"""Command-line front end.

Five subcommands: analyze (per-index CSV of all the growth and
denominator inequalities), certify (witness certificate JSON), measure
(polynomial bound evidence JSON), search (exhaustive polynomial report),
term (decimal expansion of a term or a partial sum).

The commands call the library's checks and readers, not copies of them:
--alpha and --k reach the library as text, read under --digit-budget,
and --revalidate reads a certificate through serialize.certificate_claim.
analyze walks the window once: one term stream (each a_n read once, as a
form) and one run of the partial-sum step feed the per-index predicates;
search reads the enumeration once, for its CSV rows and its minimum.

Exit status contract: 0 all requested checks verified, 1 some check
failed or stayed inconclusive, 2 invalid input or violated hypothesis.
Errors are emitted to stderr as a one-object JSON document with a stable
machine-readable code.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from .convergents import TailShrink, _prefix_sums, partial_sum
from .enclosure import enclose
from .errors import DigitBudgetError, InvalidParameterError, SeriesCertError
from .measure import (
    PolynomialInt,
    _minimum,
    _scaled_brackets,
    verify_measure,
)
from .sequences import (
    DEFAULT_DIGIT_BUDGET,
    SequenceSpec,
    _as_k,
    _as_positive_fraction,
    _at_least,
    _Verdicts,
    _window,
    one_pass,
    term,
    term_stream,
)
from .serialize import (
    brute_force_obj,
    canonical_dumps,
    certificate_claim,
    certificate_obj,
    decimal_digits,
    evidence_obj,
    int_to_str,
    lowest_terms,
    ratio_to_str,
    spec_from_obj,
    str_to_int,
)
from .witness import certify

ANALYZE_COLUMNS = (
    "n",
    "digits",
    "growth",
    "sandwich_lower",
    "sandwich_upper",
    "log10_shrink",
    "denom_bound",
    "q_exp_bound",
    "q_growth",
)


def _emit(text: str, out_path: Optional[str]) -> None:
    if out_path:
        with open(out_path, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _error(payload: dict, exit_code: int) -> int:
    sys.stderr.write(canonical_dumps(payload))
    return exit_code


def _decode(text: str):
    """json.loads, with nesting too deep for the decoder as invalid input."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("JSON nesting too deep to decode") from None


def _load_spec(path: str) -> SequenceSpec:
    with open(path) as handle:
        return spec_from_obj(_decode(handle.read()))


@one_pass()
def _run_analyze(config: argparse.Namespace) -> int:
    spec = _load_spec(config.spec_path)
    budget = config.digit_budget
    alpha = _as_positive_fraction(config.alpha, "alpha", budget)
    k = _as_k(config.k, budget) if config.k is not None else None
    first, last = _window(config.first, config.last)

    a, s, v = term_stream(spec, budget), _prefix_sums(spec, budget), _Verdicts(alpha, k, budget)
    rows = []
    all_pass = True
    for n in range(first, last + 1):
        sum_n, a_n, a_next = s(n), a(n), a(n + 1)
        growth, lower = v.lower_holds(a_n, a_next)
        checks = {"growth": growth, "q_exp_bound": v.q_exponent_ok(sum_n.q, a_n)}
        shrink = TailShrink(n, sum_n.product, a_next, alpha).log10_approx
        if k is not None:
            checks["sandwich_lower"] = lower
            checks["sandwich_upper"] = v.upper_holds(a_n, a_next)
            checks["q_growth"] = v.q_growth_ok(sum_n.q, s(n + 1).q)
        row = dict.fromkeys(ANALYZE_COLUMNS, "")
        # denom_bound passes: the sum step raises ExactnessError otherwise
        row.update(n=n, digits=decimal_digits(a_n), log10_shrink=f"{shrink:.6g}",
                   denom_bound="pass")
        row.update((name, "pass" if ok else "fail") for name, ok in checks.items())
        rows.append(row)
        all_pass = all_pass and all(checks.values())

    if config.fmt == "json":
        _emit(canonical_dumps(rows), config.out)
    else:
        _emit("".join(map(_csv_row, [ANALYZE_COLUMNS, *(row.values() for row in rows)])),
              config.out)
    return 0 if all_pass else 1


def _run_certify(config: argparse.Namespace) -> int:
    if config.revalidate:
        with open(config.revalidate) as handle:
            original = handle.read()
        spec, alpha, indices = certificate_claim(_decode(original))
        cert = certify(spec, alpha, min(indices), max(indices), config.digit_budget)
        if canonical_dumps(certificate_obj(cert)) != original:
            return _error({"error": "revalidation-mismatch", "path": config.revalidate}, 1)
        _emit(canonical_dumps({"revalidated": True, "witnesses": len(indices)}), config.out)
        return 0
    # the one presence rule the parser cannot hold: --revalidate lifts it
    given = (("--spec", config.spec_path), ("--alpha", config.alpha), ("--to", config.last))
    missing = [flag for flag, value in given if value is None]
    if missing:
        raise InvalidParameterError(
            f"seriescert certify: the following arguments are required: {', '.join(missing)}"
        )
    spec = _load_spec(config.spec_path)
    cert = certify(spec, config.alpha, config.first, config.last, config.digit_budget)
    _emit(canonical_dumps(certificate_obj(cert)), config.out)
    return 0


def _run_measure(config: argparse.Namespace) -> int:
    spec = _load_spec(config.spec_path)
    poly = PolynomialInt(tuple(str_to_int(c, "coefficient") for c in config.coeffs.split(",")))
    evidence = verify_measure(
        spec,
        config.alpha,
        config.k,
        poly,
        max_refinements=config.max_refine,
        digit_budget=config.digit_budget,
        degree=config.degree,
        height=config.height,
    )
    _emit(canonical_dumps(evidence_obj(evidence)), config.out)
    return 0


def _run_search(config: argparse.Namespace) -> int:
    spec = _load_spec(config.spec_path)
    enc = enclose(spec, config.terms, config.digit_budget)
    rows, scale = _scaled_brackets(spec, config.degree, config.height, enc, config.enum_cap,
                                   config.digit_budget)
    with one_pass():  # the rows' cells share one table of powers, each value spelled once
        if config.csv_path:
            header = [f"e{i}" for i in range(config.degree + 1)] + ["abs_lower", "abs_upper"]
            lines = [_csv_row(header)]
            rows = _written(rows, scale, lines)
        result = _minimum(rows, scale)
    if config.csv_path:
        _emit("".join(lines), config.csv_path)
    _emit(canonical_dumps(brute_force_obj(result)), config.out)
    return 0


def _csv_row(cells) -> str:
    """One CSV row, as csv.writer spells it: cells joined by commas, then
    CRLF. No cell of analyze or search holds a comma, a quote or a line
    break, so none is quoted."""
    return ",".join(map(str, cells)) + "\r\n"


def _written(rows, scale, lines):
    """The rows, each appended to lines as a CSV row as it passes."""
    for vec, low, high in rows:
        lines.append(_csv_row([*vec, *(ratio_to_str(lowest_terms(v, scale)) for v in (low, high))]))
        yield vec, low, high


def _decimal_expansion(p: int, q: int, places: int) -> str:
    """p/q (q > 0) truncated to places fractional digits."""
    whole, rem = divmod(p, q)
    if places <= 0:
        return int_to_str(whole)
    scaled = rem * 10**places // q
    return int_to_str(whole) + "." + int_to_str(scaled).rjust(places, "0")


def _run_term(config: argparse.Namespace) -> int:
    spec = _load_spec(config.spec_path)
    budget = config.digit_budget
    if config.m is None:  # the parser requires exactly one of --n and --m
        _emit(int_to_str(term(spec, config.n, budget)) + "\n", config.out)
        return 0
    _at_least(config.digits, 0, "--digits")
    if config.digits > budget:
        raise DigitBudgetError(f"--digits {config.digits} is beyond the {budget}-digit budget")
    conv = partial_sum(spec, config.m, budget)
    _emit(_decimal_expansion(conv.p, conv.q, config.digits) + "\n", config.out)
    return 0


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors raise InvalidParameterError,
    so they reach the JSON error contract instead of printing usage text
    (subcommand parsers are made of the same class)."""

    def error(self, message: str):
        raise InvalidParameterError(f"{self.prog}: {message}")


def _command(commands, name: str, run, help: str, spec_required: bool = True):
    """A subcommand parser that runs run(config), with the common flags."""
    sub = commands.add_parser(name, help=help)
    sub.set_defaults(run=run)
    sub.add_argument("--spec", dest="spec_path", required=spec_required,
                     help="path to a sequence spec JSON file")
    sub.add_argument("--digit-budget", dest="digit_budget", type=int,
                     default=DEFAULT_DIGIT_BUDGET,
                     help="max decimal digits any exact integer may reach")
    sub.add_argument("--out", help="write output here instead of stdout")
    return sub


def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand; it alone decides which flags must
    be given (certify, where --revalidate lifts them, excepted)."""
    parser = _Parser(
        prog="seriescert",
        description="exact checks for unit-fraction series with fast-growing terms",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    analyze = _command(commands, "analyze", _run_analyze,
                       "per-index CSV of growth, sandwich, and denominator checks")
    analyze.add_argument("--alpha", required=True, help="exponent as p/q")
    analyze.add_argument("--k", help="sandwich upper ratio as p/q")
    analyze.add_argument("--from", dest="first", type=int, default=1)
    analyze.add_argument("--to", dest="last", type=int, required=True)
    analyze.add_argument("--format", dest="fmt", choices=("csv", "json"), default="csv")

    cert = _command(commands, "certify", _run_certify, "emit a witness certificate",
                    spec_required=False)
    cert.add_argument("--alpha", help="exponent as p/q")
    cert.add_argument("--from", dest="first", type=int, default=1)
    cert.add_argument("--to", dest="last", type=int)
    cert.add_argument("--revalidate", help="recompute a stored certificate and compare bytes")

    measure = _command(commands, "measure", _run_measure, "verify the polynomial bound")
    measure.add_argument("--alpha", required=True, help="exponent as p/q")
    measure.add_argument("--k", required=True, help="sandwich upper ratio as p/q")
    measure.add_argument("--coeffs", required=True,
                         help="comma-separated integer coefficients, constant first")
    measure.add_argument("--degree", type=int, help="declared degree of the polynomial class")
    measure.add_argument("--height", type=int, help="declared height of the polynomial class")
    measure.add_argument("--max-refine", dest="max_refine", type=int, default=8)

    search = _command(commands, "search", _run_search,
                      "exhaustive minimum over small polynomials")
    search.add_argument("--degree", type=int, required=True)
    search.add_argument("--height", type=int, required=True)
    search.add_argument("--terms", type=int, default=4, help="enclosure depth in series terms")
    search.add_argument("--enum-cap", dest="enum_cap", type=int, default=10**6)
    search.add_argument("--csv", dest="csv_path", help="also write per-polynomial rows here")

    term_cmd = _command(commands, "term", _run_term, "print a term or a partial sum in decimal")
    index = term_cmd.add_mutually_exclusive_group(required=True)
    index.add_argument("--n", type=int, help="term index to print")
    index.add_argument("--m", type=int, help="partial-sum index to print")
    term_cmd.add_argument("--digits", type=int, default=50,
                          help="fractional digits for partial sums (truncated)")

    return parser


def _normalize(argv: list[str]) -> list[str]:
    """Glue values onto --coeffs, --alpha and --k so a leading minus sign
    is not mistaken for an option (argparse only special-cases bare
    negative numbers)."""
    out, rest = [], iter(argv)
    for arg in rest:
        value = next(rest, None) if arg in ("--coeffs", "--alpha", "--k") else None
        out.append(arg if value is None else f"{arg}={value}")
    return out


# built once, at import: each main() call only parses
_PARSER = build_parser()


def main(argv: Optional[list[str]] = None) -> int:
    """Run one command. Usage errors and command failures alike end in one
    JSON error object on stderr, with the exit status of the contract."""
    try:
        config = _PARSER.parse_args(_normalize(sys.argv[1:] if argv is None else argv))
        _at_least(config.digit_budget, 1, "--digit-budget")
        return config.run(config)
    except SeriesCertError as exc:
        # plus the failing index a HypothesisFailedError (index) or a
        # WitnessFailedError (m) carries
        return _error({"error": exc.code, "message": str(exc), **vars(exc)}, exc.exit_code)
    except (OSError, ValueError) as exc:
        return _error({"error": "invalid-input", "message": str(exc)}, 2)


if __name__ == "__main__":
    sys.exit(main())
