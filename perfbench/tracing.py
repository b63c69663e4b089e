"""Spans around the public functions of each seriescert layer, from outside.

The tracer wraps functions by patching module attributes; nothing in
``src/`` knows it exists. Modules import each other's functions with
``from .x import y``, so one function object can sit in several module
namespaces. ``install`` replaces it in every ``seriescert`` module that
holds it, ``uninstall`` puts every original back and checks that it is
there again.

Each call (and each ``next()`` on a wrapped generator) is one span:
name, start, end, parent span and op id. Spans stay in memory until
``summary`` turns them into per-op layer metrics. A span's self time is
its duration minus the durations of its children; the program is
single-threaded, so children never overlap and their durations add up.
"""

from __future__ import annotations

import importlib
import json
import math
import sys
from collections import defaultdict
from time import perf_counter

MODULES = ("sequences", "convergents", "enclosure", "witness", "measure", "serialize", "cli")

# Public functions wrapped per module. Generators get one span per next().
FUNCTIONS = {
    "sequences": ("checked_pow", "term", "compare_power", "check_growth", "check_sandwich"),
    "convergents": ("partial_sum",),
    "enclosure": ("enclose", "refine", "tail_bound"),
    "witness": ("certify", "rational_prefix"),
    "measure": ("verify_measure", "brute_force_min"),
    "serialize": ("int_to_str", "canonical_dumps", "spec_from_obj", "spec_fingerprint"),
    "cli": ("main",),
}
GENERATORS = {
    "convergents": ("convergent_range",),
    "measure": ("enumerate_brackets",),
}
METHODS = {"measure": (("PolynomialInt", "evaluate_interval"),)}

_LOG10_2 = math.log10(2)

# Per-layer metrics reported by a traced run: name -> unit. Counts and
# self times are per op; maxima are over all traced ops. A distinct_ratio
# is distinct arguments per call within one op, 0 when never called.
METRICS = {
    "serialize.int_to_str.calls": "count",
    "serialize.int_to_str.self_s": "s",
    "serialize.int_to_str.digits": "digits",
    "serialize.int_to_str.distinct_ratio": "ratio",
    "serialize.canonical_dumps.calls": "count",
    "serialize.canonical_dumps.self_s": "s",
    "serialize.spec_from_obj.calls": "count",
    "serialize.spec_from_obj.self_s": "s",
    "serialize.spec_fingerprint.calls": "count",
    "serialize.spec_fingerprint.self_s": "s",
    "serialize.self_s": "s",
    "cli.main.calls": "count",
    "cli.self_s": "s",
    "cli.bytes_out": "bytes",
    "convergents.convergent_range.yields": "count",
    "convergents.partial_sum.calls": "count",
    "convergents.self_s": "s",
    "convergents.q_bits_max": "bits",
    "sequences.checked_pow.calls": "count",
    "sequences.checked_pow.self_s": "s",
    "sequences.checked_pow.max_digits": "digits",
    "sequences.checked_pow.budget_refusals": "count",
    "sequences.term.calls": "count",
    "sequences.term.self_s": "s",
    "sequences.term.distinct_ratio": "ratio",
    "sequences.compare_power.calls": "count",
    "sequences.compare_power.self_s": "s",
    "sequences.check_growth.calls": "count",
    "sequences.check_growth.self_s": "s",
    "sequences.check_sandwich.calls": "count",
    "sequences.check_sandwich.self_s": "s",
    "sequences.self_s": "s",
    "witness.certify.calls": "count",
    "witness.certify.self_s": "s",
    "witness.rational_prefix.calls": "count",
    "witness.rational_prefix.self_s": "s",
    "witness.self_s": "s",
    "enclosure.enclose.calls": "count",
    "enclosure.refine.calls": "count",
    "enclosure.tail_bound.calls": "count",
    "enclosure.self_s": "s",
    "measure.evaluate_interval.calls": "count",
    "measure.evaluate_interval.self_s": "s",
    "measure.enumerate_brackets.yields": "count",
    "measure.enumerate_brackets.distinct_ratio": "ratio",
    "measure.verify_measure.calls": "count",
    "measure.verify_measure.self_s": "s",
    "measure.verify_measure.refinements": "count",
    "measure.brute_force_min.calls": "count",
    "measure.brute_force_min.self_s": "s",
    "measure.self_s": "s",
    **{f"{module}.errors": "count" for module in MODULES},
    "trace.overhead_ratio": "ratio",
}


def _big_int_key(value):
    # Hashing keeps no reference to budget-sized integers alive.
    return (value.bit_length(), hash(value))


def _call_key(args, kwargs):
    return (args, tuple(sorted(kwargs.items())))


class Tracer:
    """Records spans while installed; one instance per traced run."""

    def __init__(self):
        self.spans = []  # (span id, name, start, end, parent id, op id)
        self.op = 0
        self._stack = []  # open spans as (span id, name)
        self._next_id = 0
        self._patches = []  # (owner, attribute, original)
        self.calls = defaultdict(int)
        self.yields = defaultdict(int)
        self.errors = defaultdict(int)
        self.digits = 0
        self.max_digits = 0
        self.budget_refusals = 0
        self.q_bits_max = 0
        self.refinements = 0
        self.distinct = defaultdict(set)  # (span name, op id) -> keys seen
        self.distinct_calls = defaultdict(int)

    # -- spans -------------------------------------------------------------

    def _open(self, name):
        """Start a span; returns (span id, parent id, start time)."""
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else 0
        self._stack.append((self._next_id, name))
        return self._next_id, parent, perf_counter()

    def _close(self, name, span_id, parent, start, failed):
        end = perf_counter()
        self._stack.pop()
        self.spans.append((span_id, name, start, end, parent, self.op))
        if failed:
            # Count an exception once per layer it leaves.
            module = name.split(".", 1)[0]
            caller = self._stack[-1][1].split(".", 1)[0] if self._stack else None
            if caller != module:
                self.errors[module] += 1

    def _seen(self, name, key):
        self.distinct[(name, self.op)].add(key)
        self.distinct_calls[name] += 1

    # -- wrappers ----------------------------------------------------------

    def _wrap_function(self, name, fn, observe):
        tracer = self
        counts_refusals = name == "sequences.checked_pow"

        def traced(*args, **kwargs):
            tracer.calls[name] += 1
            span_id, parent, start = tracer._open(name)
            failed = True
            try:
                result = fn(*args, **kwargs)
                failed = False
            except tracer._budget_error:
                if counts_refusals:
                    tracer.budget_refusals += 1
                raise
            finally:
                tracer._close(name, span_id, parent, start, failed)
            if observe is not None:
                observe(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_generator(self, name, fn, observe):
        tracer = self

        def traced(*args, **kwargs):
            tracer.calls[name] += 1
            return tracer._iterate(name, fn(*args, **kwargs), observe, args, kwargs)

        traced.__wrapped__ = fn
        return traced

    def _iterate(self, name, inner, observe, args, kwargs):
        try:
            while True:
                span_id, parent, start = self._open(name)
                failed = True
                try:
                    item = next(inner)
                    failed = False
                except StopIteration:
                    failed = False
                    return
                finally:
                    self._close(name, span_id, parent, start, failed)
                self.yields[name] += 1
                if observe is not None:
                    observe(args, kwargs, item)
                yield item
        finally:
            inner.close()

    def _observers(self):
        def int_to_str(args, kwargs, result):
            self.digits += len(result)
            self._seen("serialize.int_to_str", _big_int_key(args[0]))

        def checked_pow(args, kwargs, result):
            digits = int(result.bit_length() * _LOG10_2) + 1
            self.max_digits = max(self.max_digits, digits)

        def term(args, kwargs, result):
            self._seen("sequences.term", _call_key(args, kwargs))

        def convergent(args, kwargs, conv):
            self.q_bits_max = max(self.q_bits_max, conv.q.bit_length())

        def bracket(args, kwargs, item):
            enc = args[3] if len(args) > 3 else kwargs["enc"]
            self._seen("measure.enumerate_brackets", (item[0], enc.fingerprint, enc.terms_used))

        def verify_measure(args, kwargs, evidence):
            self.refinements += evidence.refinements

        return {
            "serialize.int_to_str": int_to_str,
            "sequences.checked_pow": checked_pow,
            "sequences.term": term,
            "convergents.convergent_range": convergent,
            "convergents.partial_sum": convergent,
            "measure.enumerate_brackets": bracket,
            "measure.verify_measure": verify_measure,
        }

    # -- install / uninstall -----------------------------------------------

    def install(self):
        if self._patches:
            raise RuntimeError("tracer is already installed")
        try:
            self._patch_layers()
        except BaseException:
            self.uninstall()
            raise

    def _patch_layers(self):
        self._budget_error = importlib.import_module("seriescert.errors").DigitBudgetError
        modules = [importlib.import_module(f"seriescert.{m}") for m in MODULES]
        namespaces = [importlib.import_module("seriescert")] + modules
        observers = self._observers()
        for module in MODULES:
            home = sys.modules[f"seriescert.{module}"]
            targets = [(attr, False) for attr in FUNCTIONS.get(module, ())]
            targets += [(attr, True) for attr in GENERATORS.get(module, ())]
            for attr, is_generator in targets:
                # A renamed layer function fails here rather than reading 0.
                original = getattr(home, attr)
                name = f"{module}.{attr}"
                wrap = self._wrap_generator if is_generator else self._wrap_function
                wrapper = wrap(name, original, observers.get(name))
                for namespace in namespaces:
                    for key, value in list(vars(namespace).items()):
                        if value is original:
                            self._patches.append((namespace, key, original))
                            setattr(namespace, key, wrapper)
            for cls_name, attr in METHODS.get(module, ()):
                cls = getattr(home, cls_name)
                original = vars(cls)[attr]
                self._patches.append((cls, attr, original))
                setattr(cls, attr, self._wrap_function(f"{module}.{attr}", original, None))

    def uninstall(self):
        """Put back every patched attribute and check that it is back."""
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        for owner, key, original in self._patches:
            current = vars(owner).get(key)
            if current is not original:
                raise RuntimeError(f"{owner!r}.{key} was not restored")
        self._patches = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- results -----------------------------------------------------------

    def self_times(self):
        """Total self time per span name, and per op over all layers."""
        child = defaultdict(float)
        for _, _, start, end, parent, _ in self.spans:
            if parent:
                child[parent] += end - start
        by_name = defaultdict(float)
        by_op = defaultdict(float)
        for span_id, name, start, end, _, op in self.spans:
            own = end - start - child[span_id]
            by_name[name] += own
            by_op[op] += own
        return by_name, by_op

    def summary(self, ops, bytes_out, overhead_ratio):
        """Per-layer metrics as a name -> value dict, per op over ``ops``."""
        by_name, _ = self.self_times()
        per_module = defaultdict(float)
        for name, seconds in by_name.items():
            per_module[name.split(".", 1)[0]] += seconds

        def ratio(name):
            distinct = sum(len(keys) for (n, _), keys in self.distinct.items() if n == name)
            calls = self.distinct_calls[name]
            return distinct / calls if calls else 0.0

        values = {}
        for metric in METRICS:
            layer, _, field = metric.rpartition(".")
            if field == "calls":
                values[metric] = self.calls[layer] / ops
            elif field == "yields":
                values[metric] = self.yields[layer] / ops
            elif field == "self_s":
                values[metric] = (by_name[layer] if "." in layer else per_module[layer]) / ops
            elif field == "errors":
                values[metric] = self.errors[layer] / ops
        values.update({
            "serialize.int_to_str.digits": self.digits / ops,
            "serialize.int_to_str.distinct_ratio": ratio("serialize.int_to_str"),
            "sequences.term.distinct_ratio": ratio("sequences.term"),
            "measure.enumerate_brackets.distinct_ratio": ratio("measure.enumerate_brackets"),
            "sequences.checked_pow.max_digits": self.max_digits,
            "sequences.checked_pow.budget_refusals": self.budget_refusals / ops,
            "convergents.q_bits_max": self.q_bits_max,
            "measure.verify_measure.refinements": self.refinements / ops,
            "cli.bytes_out": bytes_out,
            "trace.overhead_ratio": overhead_ratio,
        })
        return values

    def write_spans(self, path):
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
