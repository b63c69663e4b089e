"""The benchmark workloads: inputs drawn from a seed, the CLI calls of
one op, and the checks on every artifact those calls write.

One op is the sequence of ``seriescert`` commands a user runs to get one
verdict. Each workload draws the base ``a1`` of its power-recurrence spec
from a band whose ``log2`` agrees within 1%, so every seed does the same
amount of work; the program sees only the spec file and the flags.

For ``DEFAULT_SEED`` the SHA-256 of every artifact must match
``digests.json``, recorded when the benchmark was defined. For every seed
the verdict fields are checked as well.
"""

from __future__ import annotations

import csv
import hashlib
import io
import itertools
import json
import math
import random
from fractions import Fraction
from pathlib import Path

DEFAULT_SEED = 1
BUDGET = "10000000"
DIGESTS = Path(__file__).with_name("digests.json")

ANALYZE_CHECKS = ("growth", "sandwich_lower", "sandwich_upper",
                  "denom_bound", "q_exp_bound", "q_growth")


def sparse_base(rng, log2_lo, log2_hi):
    """A power of two with exponent in [log2_lo, log2_hi]."""
    return 2 ** rng.randint(log2_lo, log2_hi)


def dense_base(rng, log2_lo, width=0.005):
    """A prime with log2 in [log2_lo, log2_lo * (1 + width)).

    A prime base shares no small factor with the numerators, so how far
    fractions reduce, and with it every operand size, depends only on
    the size of a1 and not on which a1 the seed picked.
    """
    while True:
        a1 = rng.randrange(2 ** log2_lo, int(2 ** (log2_lo * (1 + width))))
        if a1 % 2 and all(a1 % d for d in range(3, math.isqrt(a1) + 1, 2)):
            return a1


class Workload:
    """One workload bound to a seed and a working directory.

    ``run_op(invoke)`` runs one op, passing each argv to ``invoke`` (which
    calls the CLI and returns its exit code), and returns the problems it
    found. ``bytes_out`` is the size of the artifacts the last op wrote.
    """

    name = ""

    def __init__(self, seed, workdir, smoke=False):
        self.seed = seed
        self.workdir = Path(workdir)
        self.smoke = smoke
        self.rng = random.Random(f"{self.name}/{seed}")
        self.bytes_out = 0
        self.digests = {}  # artifact name -> sha256 hex of the last op
        self.setup()

    def setup(self):
        """Draw the inputs from ``self.rng`` and write the spec file."""
        raise NotImplementedError

    def run_op(self, invoke):
        raise NotImplementedError

    # -- helpers shared by the workloads -----------------------------------

    def write_spec(self, a1, e, **shape):
        """Write the power-recurrence spec and record the inputs drawn."""
        power_of_two = a1 & (a1 - 1) == 0
        self.inputs = {"a1": f"2^{a1.bit_length() - 1}" if power_of_two else str(a1),
                       "e": e, **shape}
        path = self.workdir / "spec.json"
        path.write_text(json.dumps({"family": "power", "a1": str(a1), "e": str(e)}))
        self.spec = str(path)

    def fresh(self, filename):
        """An output path with no stale artifact left from the last op."""
        path = self.workdir / filename
        path.unlink(missing_ok=True)
        return path

    def collect(self, name, path):
        """Read an artifact, record its size and digest."""
        data = path.read_bytes()
        self.bytes_out += len(data)
        self.digests[name] = hashlib.sha256(data).hexdigest()
        return data

    def expected_digests(self):
        if self.smoke or self.seed != DEFAULT_SEED:
            return None
        return json.loads(DIGESTS.read_text())[self.name]

    def digest_problems(self):
        expected = self.expected_digests()
        if expected is None:
            return []
        if set(expected) != set(self.digests):
            return [f"artifacts {sorted(self.digests)} differ from recorded {sorted(expected)}"]
        return [f"{name}: sha256 differs from the recorded digest"
                for name in sorted(expected) if expected[name] != self.digests[name]]

    def begin_op(self):
        self.bytes_out = 0
        self.digests = {}


def _exit(problems, what, code):
    """Record a non-zero exit code; True when the call succeeded."""
    if code != 0:
        problems.append(f"{what} exited {code}, expected 0")
        return False
    return True


class CertifyRoundtrip(Workload):
    """certify, then certify --revalidate of that file.

    a_{n+1} = a_n^4 with a1 = 2^512..2^516, window 1..5: the largest
    integer spelled out is 2/a_6, about 158k digits, so decimal encoding
    (serialize.int_to_str, both ways) dominates. Powers of two keep term
    generation cheap, as for the classic a1 = 2 series.
    """

    name = "certify-roundtrip"

    def setup(self):
        self.last = 3 if self.smoke else 5
        self.write_spec(sparse_base(self.rng, 512, 516), 4, window=[1, self.last])

    def run_op(self, invoke):
        self.begin_op()
        problems = []
        self.certify_roundtrip(invoke, problems)
        return problems + self.digest_problems()

    def certify_roundtrip(self, invoke, problems):
        cert, echo = self.fresh("certificate.json"), self.fresh("revalidate.json")
        code = invoke(["certify", "--spec", self.spec, "--alpha", "5/2", "--from", "1",
                       "--to", str(self.last), "--digit-budget", BUDGET, "--out", str(cert)])
        if not _exit(problems, "certify", code):
            return
        before = self.collect("certificate.json", cert)
        doc = json.loads(before)
        if [w["m"] for w in doc["witnesses"]] != list(range(1, self.last + 1)):
            problems.append("certificate witnesses do not cover the window")
        if not all(w["verified"] is True for w in doc["witnesses"]):
            problems.append("certificate has an unverified witness")
        if doc["conclusion"] != "roth-criterion-satisfied-on-window":
            problems.append(f"certificate conclusion is {doc['conclusion']!r}")
        code = invoke(["certify", "--revalidate", str(cert), "--digit-budget", BUDGET,
                       "--out", str(echo)])
        if _exit(problems, "certify --revalidate", code):
            if cert.read_bytes() != before:
                problems.append("revalidation changed the certificate")
            reply = json.loads(self.collect("revalidate.json", echo))
            if reply != {"revalidated": True, "witnesses": self.last}:
                problems.append(f"revalidation replied {reply}")


class Analyze(Workload):
    """One analyze call over the window; every check cell must pass."""

    alpha = k = ""

    def run_op(self, invoke):
        self.begin_op()
        problems = []
        out = self.fresh("analyze.csv")
        code = invoke(["analyze", "--spec", self.spec, "--alpha", self.alpha, "--k", self.k,
                       "--from", "1", "--to", str(self.last), "--digit-budget", BUDGET,
                       "--out", str(out)])
        if not _exit(problems, "analyze", code):
            return problems
        rows = list(csv.DictReader(io.StringIO(self.collect("analyze.csv", out).decode("ascii"))))
        if [int(r["n"]) for r in rows] != list(range(1, self.last + 1)):
            problems.append("analyze rows do not cover the window")
        for row in rows:
            bad = [c for c in ANALYZE_CHECKS if row[c] != "pass"]
            if bad:
                problems.append(f"analyze n={row['n']} fails {bad}")
        return problems + self.digest_problems()


class AnalyzeSums(Analyze):
    """analyze --alpha 5/2 --k 2 on the certify-roundtrip band, window 1..5.

    Exact Fraction partial sums and their gcds, computed inline in the
    cli layer, dominate. With a dense base the cross-powers would.
    """

    name = "analyze-sums"
    alpha, k = "5/2", "2"

    def setup(self):
        self.last = 3 if self.smoke else 5
        self.write_spec(sparse_base(self.rng, 512, 516), 4, window=[1, self.last])


class AnalyzePowers(Analyze):
    """analyze --alpha 7/3 --k 5/2 on a_{n+1} = a_n^5, dense a1 near 2^24, window 1..6.

    The cross-powers inside compare_power (exponents 10/3 and 35/6) of
    dense integers dominate: sequences.checked_pow.
    """

    name = "analyze-powers"
    alpha, k = "7/3", "5/2"

    def setup(self):
        self.last = 3 if self.smoke else 6
        self.write_spec(dense_base(self.rng, 24), 5, window=[1, self.last])


def nonzero_vectors(degree, height):
    """Coefficient vectors of the nonzero polynomials of degree <= degree
    and height <= height, constant coefficient first."""
    return [v for v in itertools.product(range(-height, height + 1), repeat=degree + 1)
            if any(v)]


def search(workload, invoke, problems, degree, height, terms, *budget):
    """search --csv over every polynomial of the class; checks the count,
    the minimum bracket and the CSV rows."""
    report, rows = workload.fresh("search.json"), workload.fresh("search.csv")
    code = invoke(["search", "--spec", workload.spec, "--degree", str(degree),
                   "--height", str(height), "--terms", str(terms), *budget,
                   "--csv", str(rows), "--out", str(report)])
    if not _exit(problems, "search", code):
        return
    count = (2 * height + 1) ** (degree + 1) - 1
    result = json.loads(workload.collect("search.json", report))
    if result["count"] != count:
        problems.append(f"search counted {result['count']} polynomials, not {count}")
    lower, upper = (Fraction(int(result[k]["num"]), int(result[k]["den"]))
                    for k in ("minLower", "minUpper"))
    if not 0 <= lower <= upper or upper == 0:
        problems.append(f"search bracket [{lower}, {upper}] is not a bracket")
    table = workload.collect("search.csv", rows).decode("ascii").splitlines()
    if len(table) != count + 1:
        problems.append(f"search CSV has {len(table) - 1} rows, not {count}")


def measure(workload, invoke, problems, vectors, degree, height, *budget):
    """One measure call per coefficient vector; each must be verified
    evidence for that polynomial."""
    for vec in vectors:
        coeffs = ",".join(map(str, vec))
        evidence = workload.fresh("evidence.json")
        code = invoke(["measure", "--spec", workload.spec, "--alpha", "3", "--k", "3/2",
                       "--degree", str(degree), "--height", str(height), *budget,
                       "--coeffs", coeffs, "--out", str(evidence)])
        if not _exit(problems, f"measure {coeffs}", code):
            continue
        doc = json.loads(workload.collect(f"evidence/{coeffs}", evidence))
        if doc["verified"] is not True:
            problems.append(f"measure {coeffs} is not verified")
        trimmed = list(vec)
        while trimmed[-1] == 0:
            trimmed.pop()
        if doc["polynomial"]["coeffs"] != [str(c) for c in trimmed]:
            problems.append(f"measure {coeffs} reports polynomial {doc['polynomial']}")


class PolynomialScan(Workload):
    """search --csv over the 728 quadratics of height <= 4, then one
    measure call per nonzero quadratic of height <= 2, in seeded order.

    a_{n+1} = a_n^4 with dense a1 near 2^16: small enough that every
    measure call verifies without refinement, and with --terms 4 the
    enclosure has the sizes of a1 = 2 with 6 terms. Interval Horner
    (measure.evaluate_interval) dominates the search; per-call CLI cost
    (argparse, spec load, fingerprint) dominates the 124 short calls.
    """

    name = "polynomial-scan"

    DEGREE, HEIGHT, MEASURE_HEIGHT = 2, 4, 2

    def setup(self):
        self.terms = 2 if self.smoke else 4
        self.write_spec(dense_base(self.rng, 16), 4, terms=self.terms)
        self.batch = nonzero_vectors(self.DEGREE, self.MEASURE_HEIGHT)
        self.rng.shuffle(self.batch)

    def run_op(self, invoke):
        self.begin_op()
        problems = []
        search(self, invoke, problems, self.DEGREE, self.HEIGHT, self.terms)
        measure(self, invoke, problems, self.batch, self.DEGREE, self.MEASURE_HEIGHT)
        return problems + self.digest_problems()


class CertifyMeasure(CertifyRoundtrip):
    """Both pipelines on the certify-roundtrip spec: certify and
    --revalidate, then search --csv over the quadratics of height <= 2
    (--terms 1) and measure for every MEASURE_STRIDE-th of them, the same
    polynomials for every seed, in seeded order.

    Decimal encoding dominates as in certify-roundtrip; the measure
    layer (enclose, evaluate_interval, enumerate_brackets,
    brute_force_min, verify_measure) takes a small share of each op.
    theta < 2^-511 here, so a polynomial without constant term has
    |P(theta)| far below the bound and measure could only refine until
    the digit budget stops it: the measure calls take polynomials with a
    nonzero constant term.
    """

    name = "certify-measure"

    DEGREE, HEIGHT, MEASURE_STRIDE = 2, 2, 6

    def setup(self):
        super().setup()
        self.batch = [v for v in nonzero_vectors(self.DEGREE, self.HEIGHT)
                      if v[0]][::self.MEASURE_STRIDE]
        self.rng.shuffle(self.batch)
        self.inputs.update(search_height=self.HEIGHT, measure_calls=len(self.batch))

    def run_op(self, invoke):
        self.begin_op()
        problems = []
        self.certify_roundtrip(invoke, problems)
        budget = ("--digit-budget", BUDGET)
        search(self, invoke, problems, self.DEGREE, self.HEIGHT, 1, *budget)
        measure(self, invoke, problems, self.batch, self.DEGREE, self.HEIGHT, *budget)
        return problems + self.digest_problems()


# BENCHMARK.json gates on certify-measure and analyze-sums, whose time
# goes to big-integer division (decimal encoding) and to Fraction sums
# over power-of-two denominators. On a shared 2-vCPU host, interpreter-
# bound code and dense big-integer multiplication or gcd slow down by up
# to 35% in phases that last tens of seconds, while division moves by
# 3-5%. analyze-powers (checked_pow) and polynomial-scan (Fraction
# interval Horner and per-call CLI cost) are that kind of work, so they
# run the same way but serve traced diagnosis only; certify-measure
# carries the measure layer into the gated set.
WORKLOADS = {w.name: w for w in (CertifyRoundtrip, AnalyzeSums, AnalyzePowers, PolynomialScan,
                                 CertifyMeasure)}
