"""Exception types shared across the package."""


class AxiometerError(Exception):
    """Base class for all package-specific errors."""


class ParseError(AxiometerError, ValueError):
    """Malformed, incomplete, or over-complete JSON input."""


class SchemaError(ParseError):
    """Structurally valid inputs combined inconsistently (e.g. mixed axiom sets)."""


class UnknownAxiomError(AxiometerError, LookupError):
    """A referenced axiom name is not part of the axiom set."""


class DuplicateAxiomError(AxiometerError, ValueError):
    """The same axiom name appears twice where distinct names are required."""


class RangeError(AxiometerError, ValueError):
    """A numeric argument is outside its admissible range."""


class MonotonicityError(AxiometerError, ValueError):
    """A cardinality profile that must be non-decreasing is not."""


class NegativeWeightError(AxiometerError, ValueError):
    """Reconstruction weights must be non-negative and sum to one."""


class WeightError(AxiometerError, ValueError):
    """Summary weights must be non-negative and sum to one."""


class AlignmentError(AxiometerError, ValueError):
    """Point-wise comparison requires identically aligned model lists."""


class ArityError(AxiometerError, ValueError):
    """Too few instance coordinates for a relational axiom."""


class SizeError(AxiometerError, ValueError):
    """The requested exact computation exceeds the enumeration guard."""


class InfeasibleCollectionError(AxiometerError, ValueError):
    """Operation requires a feasible collection but membership failed.

    Carries the offending feasibility report in ``report`` and the axiom set
    it refers to in ``axioms``, when available.
    """

    def __init__(self, message, report=None, axioms=None):
        super().__init__(message)
        self.report = report
        self.axioms = axioms
