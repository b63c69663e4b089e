"""Exact verification for series of unit fractions with fast-growing terms.

Everything computes with arbitrary-size integers and exact rationals;
floats appear only in advisory log columns. The package checks growth
inequalities, produces rational enclosures of the series value, verifies
the rational-approximation inequality at chosen indices, and confronts
polynomial lower bounds with exhaustive search.
"""

from types import ModuleType as _ModuleType

from .convergents import (
    Convergent,
    TailShrink,
    convergent_range,
    effective_start,
    partial_sum,
    shrink_decreases,
    shrink_factor,
    shrink_less_than,
)
from .enclosure import Enclosure, enclose, has_tail_guarantee, refine, tail_bound
from .errors import (
    AlphaTooSmallError,
    DigitBudgetError,
    EnumerationTooLargeError,
    ExactnessError,
    HypothesisFailedError,
    InconclusiveError,
    IndexOutOfRangeError,
    InvalidIndexMapError,
    InvalidParameterError,
    NoTailGuaranteeError,
    NotFoundBelowNMaxError,
    NotFoundInWindowError,
    SeriesCertError,
    SpecMismatchError,
    WitnessFailedError,
)
from .measure import (
    BruteForceResult,
    MeasureBound,
    MeasureEvidence,
    N1Result,
    PolynomialInt,
    abs_bracket,
    bound,
    brute_force_min,
    enumerate_brackets,
    find_n1,
    verify_measure,
)
from .sequences import (
    DEFAULT_DIGIT_BUDGET,
    Affine,
    Explicit,
    ExplicitIndices,
    FactorialExponent,
    GrowthCheck,
    GrowthReport,
    Ordering,
    PowerRecurrence,
    SequenceSpec,
    Subseries,
    check_growth,
    check_sandwich,
    checked_pow,
    compare_power,
    exponent_form,
    term,
)
from .serialize import (
    canonical_dumps,
    certificate_obj,
    parse_rational,
    rational_from_obj,
    rational_obj,
    spec_fingerprint,
    spec_from_obj,
    spec_obj,
)
from .witness import CAVEAT, CONCLUSION, Certificate, Witness, certify, rational_prefix, witness

__version__ = "0.1.0"

# the public names are the ones imported above, the submodules aside
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
