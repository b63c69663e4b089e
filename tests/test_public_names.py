"""Names that code outside the package depends on.

``seriescert.__all__`` is pinned to an explicit list, so no public name
goes away unnoticed. The benchmark tracer (``perfbench/tracing.py``)
wraps layer functions by name; a renamed one would break a traced run
only when someone starts it, so every name it lists is resolved here,
and so is each module it expects to hold ``partial_sum``; a small op is
traced, so that every observer reads a field that is still there.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import seriescert

PUBLIC_NAMES = [
    "Affine", "AlphaTooSmallError", "BruteForceResult", "CAVEAT", "CONCLUSION",
    "Certificate", "Convergent", "DEFAULT_DIGIT_BUDGET", "DigitBudgetError", "Enclosure",
    "EnumerationTooLargeError", "ExactnessError", "Explicit", "ExplicitIndices",
    "FactorialExponent", "GrowthCheck", "GrowthReport", "HypothesisFailedError",
    "InconclusiveError", "IndexOutOfRangeError", "InvalidIndexMapError",
    "InvalidParameterError", "MeasureBound", "MeasureEvidence", "N1Result",
    "NoTailGuaranteeError", "NotFoundBelowNMaxError", "NotFoundInWindowError", "Ordering",
    "PolynomialInt", "PowerRecurrence", "SequenceSpec", "SeriesCertError",
    "SpecMismatchError", "Subseries", "TailShrink", "Witness", "WitnessFailedError",
    "abs_bracket", "bound", "brute_force_min", "canonical_dumps",
    "certificate_obj", "certify", "check_growth", "check_sandwich", "checked_pow",
    "compare_power", "convergent_range", "effective_start",
    "enclose", "enumerate_brackets", "exponent_form", "find_n1", "has_tail_guarantee",
    "parse_rational", "partial_sum", "rational_from_obj", "rational_obj", "rational_prefix",
    "refine", "shrink_decreases", "shrink_factor", "shrink_less_than", "spec_fingerprint",
    "spec_from_obj", "spec_obj", "tail_bound", "term", "verify_measure", "witness",
]

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_public_names_are_pinned():
    assert seriescert.__all__ == PUBLIC_NAMES
    assert all(hasattr(seriescert, name) for name in PUBLIC_NAMES)


def test_the_tracer_finds_partial_sum_where_it_looks():
    # the tracer's self-test checks that wrapping convergents.partial_sum
    # also reaches the modules that imported it
    from seriescert import convergents, enclosure, measure

    assert measure.partial_sum is convergents.partial_sum
    assert enclosure.partial_sum is convergents.partial_sum


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_name_the_tracer_wraps_resolves():
    tracing = _load_tracing()
    for module in tracing.MODULES:
        home = importlib.import_module(f"seriescert.{module}")
        # a wrapped generator may be any function that returns an iterator
        for name in tracing.FUNCTIONS.get(module, ()) + tracing.GENERATORS.get(module, ()):
            assert inspect.isfunction(getattr(home, name, None)), f"{module}.{name}"
        for cls_name, name in tracing.METHODS.get(module, ()):
            cls = getattr(home, cls_name, None)
            assert inspect.isfunction(vars(cls).get(name) if cls else None), f"{module}.{name}"


def test_the_tracer_s_observers_read_a_traced_op():
    # the observers read Enclosure.fingerprint and terms_used, Convergent.q,
    # MeasureEvidence.refinements and the results of checked_pow and
    # int_to_str: a renamed field would break only a traced run, and a
    # wrapped name the op no longer reaches would read 0
    from seriescert import serialize

    tracing = _load_tracing()
    spec, poly = seriescert.PowerRecurrence(2, 4), seriescert.PolynomialInt((-1, 1, 1))
    with tracing.Tracer() as tracer:  # names are looked up inside, once patched
        enc = seriescert.enclose(spec, 2)
        list(seriescert.enumerate_brackets(spec, 1, 2, enc))
        list(seriescert.convergent_range(spec, 3))
        seriescert.partial_sum(spec, 4)
        seriescert.verify_measure(spec, 3, "3/2", poly)
        seriescert.checked_pow(3, 40)
        serialize.int_to_str(seriescert.term(spec, 5))
    summary = tracer.summary(1, 0, 0.0)
    for metric in ("measure.enumerate_brackets.yields", "convergents.q_bits_max",
                   "sequences.checked_pow.max_digits", "serialize.int_to_str.digits"):
        assert summary[metric] > 0, metric
