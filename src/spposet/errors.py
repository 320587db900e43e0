"""Exception types shared across the toolkit."""


class SpposetError(Exception):
    """Base class for all toolkit errors."""


class DuplicateElement(SpposetError):
    pass


class UnknownElement(SpposetError):
    pass


class AntisymmetryViolation(SpposetError):
    """The declared relation closes into a cycle of distinct elements."""

    def __init__(self, cycle):
        self.cycle = tuple(cycle)
        super().__init__("antisymmetry violated by cycle: " + " <= ".join(self.cycle))


class SizeCap(SpposetError):
    pass


class NotInSection(SpposetError):
    """A sectioned pair (x, y) with y <= x was required."""


class NotSectionallyBounded(SpposetError):
    pass


class NotMeetSemilattice(SpposetError):
    pass


class InternalDisagreement(SpposetError):
    """Two formulas that must agree produced different results; implementation bug."""


class MextSchDisagreement(InternalDisagreement):
    pass


class SelectionAxiomViolation(SpposetError):
    def __init__(self, axiom, witness):
        self.axiom = axiom
        self.witness = tuple(witness)
        super().__init__(f"selection axiom {axiom} fails at {self.witness}")


class StructureMismatch(SpposetError):
    pass


class MalformedTable(SpposetError, ValueError):
    """A table given to a constructor has the wrong shape, a cell outside the
    elements, or defined cells other than its sectioned pairs."""


class UnknownOption(SpposetError, ValueError):
    """An option given by name, such as a reading, suite or dedup mode, names no known choice."""


class MissingSelection(SpposetError):
    pass


class UnknownTheorem(SpposetError):
    pass


class UnknownPredicate(SpposetError):
    pass


class UnknownSection(SpposetError):
    """A document has no poset, table or selection of the requested name."""


class ParseError(SpposetError):
    def __init__(self, message, line=None):
        self.line = line
        where = f"line {line}: " if line is not None else ""
        super().__init__(where + message)
