"""Exception hierarchy.

Every error carries a stable machine-readable ``code`` (kebab-case) and an
``exit_code`` used by the CLI: 1 for "a check did not succeed" outcomes,
2 for invalid inputs, violated hypotheses, and resource limits.
"""

from __future__ import annotations


class SeriesCertError(Exception):
    """Base class for all library errors; keyword context (``index``, ``m``) becomes attributes."""

    code = "error"
    exit_code = 2

    def __init__(self, message: str, **context):
        super().__init__(message)
        vars(self).update(context)


class IndexOutOfRangeError(SeriesCertError):
    """A finite sequence or index list was asked for a term it does not have."""

    code = "index-out-of-range"


class DigitBudgetError(SeriesCertError):
    """An exact integer would exceed the configured decimal-digit budget."""

    code = "digit-budget-exceeded"


class InvalidParameterError(SeriesCertError):
    """A parameter violates a documented precondition."""

    code = "invalid-parameter"


class InvalidIndexMapError(SeriesCertError):
    """An index map is not strictly increasing into valid indices."""

    code = "invalid-index-map"


class NoTailGuaranteeError(SeriesCertError):
    """The sequence family carries no structural doubling guarantee, so no
    certified tail bound exists."""

    code = "no-tail-guarantee"


class NotFoundInWindowError(SeriesCertError):
    """No index in the searched window satisfied the requested condition."""

    code = "not-found-in-window"
    exit_code = 1


class NotFoundBelowNMaxError(SeriesCertError):
    """The threshold index search ran out of indices."""

    code = "not-found-below-nmax"
    exit_code = 1


class EnumerationTooLargeError(SeriesCertError):
    """The polynomial enumeration would exceed the configured cap, or a
    walk would build more than ``sequences.MAX_TERMS`` terms."""

    code = "enumeration-too-large"


class AlphaTooSmallError(SeriesCertError):
    """The exponent is at most 2, so the transcendence criterion does not apply."""

    code = "alpha-too-small"


class HypothesisFailedError(SeriesCertError):
    """A growth hypothesis (growth or sandwich) failed inside the window."""

    code = "hypothesis-failed"


class WitnessFailedError(SeriesCertError):
    """A witness inequality did not verify at some index."""

    code = "witness-failed"
    exit_code = 1


class InconclusiveError(SeriesCertError):
    """Refinement budget exhausted before the comparison could be decided.

    Never a counterexample: a sound procedure can fail to verify, but it
    cannot refute the bound.
    """

    code = "inconclusive"
    exit_code = 1


class SpecMismatchError(SeriesCertError):
    """An artifact was combined with a sequence it was not built from."""

    code = "spec-mismatch"


class ExactnessError(SeriesCertError):
    """An internally checked identity of exact arithmetic failed.

    Raised only if something is deeply wrong (memory corruption, a bug in
    the arithmetic layer); callers should treat it as a crash, not a result.
    """

    code = "internal-exactness-violation"
