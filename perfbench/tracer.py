"""Per-layer spans recorded from outside the package.

Each traced public function is replaced, in every spposet module namespace
that binds it, by a wrapper that opens a span on entry and closes it on exit.
A span's parent is whatever traced span is open below it on the stack.  Spans
are not kept one by one: they are folded into one aggregate per
(function, parent) pair, so a sweep with about a million spans stays small.

Self time is a span's duration minus the time covered by its child spans.
For generator functions a span covers one resumption (the time spent inside
`next()`), and `calls` counts the items yielded.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

# (layer, qualified name inside the layer) for every traced function.
TRACED = (
    ("cli", "main"),
    ("fileformat", "parse"),
    ("fileformat", "emit"),
    ("poset", "build_poset"),
    ("poset", "Poset.classify"),
    ("pseudo", "star_table"),
    ("pseudo", "verify_sp_properties"),
    ("extensions", "pure_extension"),
    ("extensions", "natural_extension"),
    ("extensions", "natural_min_form"),
    ("extensions", "normal_extension"),
    ("extensions", "i_natural_extension"),
    ("extensions", "i_min_extension"),
    ("extensions", "dual_j_extension"),
    ("extensions", "m_extension"),
    ("extensions", "mlb_extension"),
    ("extensions", "lb_min_extension"),
    ("extensions", "selection_union"),
    ("extensions", "selection_frink"),
    ("axioms", "check_system"),
    ("axioms", "verify_lemma_suite"),
    ("axioms", "is_esp"),
    ("axioms", "implicativity"),
    ("axioms", "is_strong"),
    ("axioms", "is_normal"),
    ("enumeration", "enumerate_posets"),
    ("enumeration", "canonical_key"),
    ("enumeration", "are_isomorphic"),
    ("enumeration", "system_column_solutions"),
    ("enumeration", "products_equal"),
    ("enumeration", "enumerate_extensions"),
    ("enumeration", "verify_theorem"),
    ("enumeration", "find_counterexample"),
)

NO_PARENT = "-"  # parent of spans opened outside any traced span


def span_names() -> list[str]:
    return [f"{layer}.{name}" for layer, name in TRACED]


class Tracer:
    """Installs the wrappers, aggregates spans, and restores the package on exit."""

    def __init__(self):
        # (span, parent) -> [calls, total seconds, self seconds]
        self.agg: dict[tuple[str, str], list] = {}
        self._stack: list[list] = []  # [name, start, child seconds]
        self._undo: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _enter(self, name):
        self._stack.append([name, time.perf_counter(), 0.0])

    def _exit(self, counted: bool):
        name, start, child = self._stack.pop()
        dur = time.perf_counter() - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += dur
        key = (name, parent[0] if parent is not None else NO_PARENT)
        rec = self.agg.get(key)
        if rec is None:
            rec = self.agg[key] = [0, 0.0, 0.0]
        rec[0] += counted
        rec[1] += dur
        rec[2] += dur - child

    def _wrap(self, name, fn):
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                try:
                    while True:
                        self._enter(name)
                        try:
                            item = next(it)
                        except StopIteration:
                            self._exit(False)
                            return
                        except BaseException:
                            self._exit(False)
                            raise
                        self._exit(True)
                        yield item
                finally:
                    it.close()
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(True)
        return wrapper

    # -- installation --------------------------------------------------------

    def __enter__(self):
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "spposet" or k.startswith("spposet."))]
        for layer, qual in TRACED:
            owner = sys.modules[f"spposet.{layer}"]
            if "." in qual:
                cls_name, attr = qual.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[attr]
                self._patch(cls, attr, self._wrap(f"{layer}.{qual}", orig))
                continue
            orig = getattr(owner, qual)
            wrapped = self._wrap(f"{layer}.{qual}", orig)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        self._patch(mod, attr, wrapped)
        return self

    def _patch(self, target, attr, value):
        self._undo.append((target, attr, getattr(target, attr)))
        setattr(target, attr, value)

    def __exit__(self, *exc):
        for target, attr, value in reversed(self._undo):
            setattr(target, attr, value)
        self._undo.clear()
        return False

    # -- results -------------------------------------------------------------

    def totals(self) -> dict[str, tuple[int, float]]:
        """Per span: (calls, self seconds), summed over parents; every traced name present."""
        out = {name: [0, 0.0] for name in span_names()}
        for (name, _parent), (calls, _total, self_s) in self.agg.items():
            out[name][0] += calls
            out[name][1] += self_s
        return {k: (v[0], v[1]) for k, v in out.items()}

    def calls_under(self, name: str, parent: str) -> int:
        rec = self.agg.get((name, parent))
        return rec[0] if rec else 0

    def edges(self) -> list[dict]:
        """The (span, parent) aggregates, for the result record."""
        return [
            {"span": name, "parent": parent, "calls": rec[0],
             "total_s": rec[1], "self_s": rec[2]}
            for (name, parent), rec in sorted(self.agg.items())
        ]
