"""The column solver as it was before it checked forward and set up per
column, kept as the oracle of tests/test_solver.py.

column_constraints walks every instance of every law of a system once, into
per-cell masks for the one-cell laws and per-row-pair link lists for the
two-cell laws, and system_column_solutions searches each column row by row,
values ascending, testing a row's values against the rows already assigned.
"""

from spposet.axioms import require_system, system_laws
from spposet.extensions import LocalSelection, require_owner
from spposet.poset import Poset, bits, members
from spposet.pseudo import PartialTable


def column_constraints(p: Poset, laws, sel: LocalSelection | None) -> tuple[list, object]:
    """What the laws ask of each column of a total table.

    Every law reads one cell, or two cells of the column given by its last
    variable, in rows given by the variables before it, with its conclusion
    indexed by the first cell's value.  Returns (allowed, keep):
    allowed[r][c] masks the values of cell (r, c) that the instances reading
    that cell alone allow (a two-cell instance whose cells coincide among
    them), and keep(c, k, vals, m) the values in m that row k of column c may
    hold while each row t < k holds vals[t].
    """
    n = p.n
    e = (p if sel is None else sel).laws
    allowed = [[p.full] * n for _ in range(n)]
    # per later row k and earlier row t: the conclusions of the two-cell
    # instances that read row t first, and of those that read row k first,
    # each with the columns it covers
    links: list[dict] = [{} for _ in range(n)]
    for law in laws:
        last = len(law.over) - 1
        if law.vectors is None or len(law.reads) == 2 and not (
                law.keyed and law.term is None and law.reads[0][1] == last):
            raise ValueError("only a law of one cell, or of two cells in one column, constrains columns")
        if len(law.reads) == 2:
            (r1, _), (r2, _) = law.reads
            for pre, mask, masks, _ in e.plan(law):
                if not mask:
                    continue
                first, other = pre[r1], pre[r2]
                if first == other:
                    fixed = sum(1 << a for a in range(n) if masks[a] >> a & 1)
                    for c in members(mask):
                        allowed[first][c] &= fixed
                elif first < other:
                    links[other].setdefault(first, ([], []))[0].append((masks, mask))
                else:
                    links[first].setdefault(other, ([], []))[1].append((masks, mask))
            continue
        (r, k), = law.reads
        for pre, mask, masks, terms in e.plan(law):
            for u in members(mask):
                v = pre + (u, terms[u]) if terms else pre + (u,)
                if v[-1] is not None:  # an undefined term: the instance holds
                    allowed[v[r]][v[k]] &= masks[v[-1] if law.keyed else u]
    by_row = [list(row.items()) for row in links]

    def keep(c, k, vals, m):
        for t, (reads_t, reads_k) in by_row[k]:
            a = vals[t]
            for masks, cover in reads_t:
                if cover >> c & 1:
                    m &= masks[a]
            for masks, cover in reads_k:
                if cover >> c & 1:
                    for v in members(m):
                        if not masks[v] >> a & 1:
                            m ^= 1 << v
        return m
    return allowed, keep


def system_column_solutions(p: Poset, system: str, sel: LocalSelection | None = None,
                            forced: PartialTable | None = None) -> list[list[tuple]]:
    """All per-column assignments satisfying the system's axioms.

    A table satisfies the system iff it picks one solution per column, so the
    full model set is the cartesian product of the returned lists.  For the SP
    system the column domain is the rows weakly above the column element; all
    other systems are total.  With `forced`, sectioned cells are pinned to the
    given star table (extension enumeration).  The poset must have the
    structure and the selection the system needs, as in check_system, and a
    given selection must be over p.  Each column is searched row by row,
    values ascending: a row's values are those its cell allows, narrowed by
    the links to the rows already assigned.
    """
    laws = []
    if system != "NRMW":
        # the solver has no NRMW constraints yet: it yields every extension,
        # on any poset, and the generate benchmark pins those streams
        require_system(p, system, sel)
        laws = system_laws(system)
    else:
        require_owner(p, sel)
    n = p.n
    allowed, keep = column_constraints(p, laws, sel)
    out = []
    for c in range(n):
        rows = [r for r in range(n) if p.leq_ix(c, r)] if system == "SP" else list(range(n))
        masks = [allowed[r][c] for r in range(n)]
        if forced is not None:
            for r in bits(p.ups[c]):
                masks[r] &= 1 << forced.cells[r][c]
        sols: list[tuple] = []
        out.append(sols)
        if not all(masks[r] for r in rows):
            continue
        vals = [0] * n

        def rec(i):
            if i == len(rows):
                sols.append(tuple([vals[r] for r in rows]))
                return
            k = rows[i]
            for v in bits(keep(c, k, vals, masks[k])):
                vals[k] = v
                rec(i + 1)

        rec(0)
    return out

