"""Exception hierarchy shared by all polygeom modules."""


class PolygeomError(Exception):
    """Base class for every error raised by this package; report is what
    the raising check had computed (a theorem 1 hypothesis report)."""

    def __init__(self, message="", report=None):
        super().__init__(message)
        self.report = report


class InvalidInput(PolygeomError):
    """Malformed or out-of-contract argument."""


class InvalidIndex(InvalidInput):
    """Index outside its admissible range (e.g. k > n for e_k or C(n,k))."""


class InvalidDegree(InvalidInput):
    """Polynomial degree too small for the requested operation."""


class DegreeTooLarge(InvalidInput):
    """Degree exceeds N_MAX; exact binomial arithmetic is not guaranteed."""


class InvalidInstance(InvalidInput):
    """A structured instance violates its declared invariants."""


class InvalidConfig(InvalidInput):
    """Campaign configuration rejected before any trial ran."""


class NonConvergence(PolygeomError):
    """Root iteration hit MAX_ITER sweeps with residuals above tolerance.

    Carries the best-effort roots and their scaled residuals for
    diagnostics.
    """

    def __init__(self, message, roots=(), residuals=()):
        super().__init__(message)
        self.roots = tuple(roots)
        self.residuals = tuple(residuals)


class HypothesisViolated(PolygeomError):
    """A theorem's hypothesis does not hold for the given instance."""


class TheoremViolation(PolygeomError):
    """A theorem's guaranteed conclusion was not observed numerically.

    Never expected on valid instances; signals an implementation or
    tolerance bug rather than a mathematical counterexample.
    """
