"""Layer tracing from outside the program.

A `Recorder` replaces public functions of `hypmoduli` with wrappers that
record a span per call (name, start, end, parent span, op id) and the
counts that need the call's arguments or result, such as MC draws.  A
`from .x import f` binds `f` at the importing module, so each wrapper
replaces the name in every loaded `hypmoduli` module that holds the
original function.  Spans stay in memory and are written out at the end.

`patterns`, `symmetry` and `cli` are not wrapped: each takes under 1% of
every workload, and at their call rates a wrapper would cost more than it
measures.
"""

from __future__ import annotations

import inspect
import sys
from collections import defaultdict
from time import perf_counter

PACKAGE = "hypmoduli"

TRACED = (
    "poly.expand",
    "poly.couple_of",
    "search.mc_search",
    "search.witness_for",
    "search.concatenate",
    "search.canonical_witness",
    "search.transport",
    "certify.forced_sign",
    "certify.verify_certificate",
    "certify.sample_certificate",
    "certify.classify_pattern",
    "certify.propagate",
    "certify.frontier_exclusion",
    "results.builtin_table",
    "published.published_witnesses",
)

# Untraced runs still count MC draws for the fingerprint: 278 calls per
# degree-6 sweep, so a counting wrapper costs nothing measurable.
COUNTED = ("search.mc_search",)

LAYERS = ("poly", "search", "certify")


class Recorder:
    """Spans and counts at the wrapped layer boundaries of one process."""

    def __init__(self, timed: bool):
        self.timed = timed
        self.spans: list[tuple[str, float, float, int, int] | None] = []
        self.op = -1  # id of the benchmark operation in progress; -1 is set-up
        self.mc: list[tuple[object, int, bool]] = []  # (target couple, draws, found)
        self.none = 0  # witness_for calls that returned None
        self.hits = 0  # forced_sign calls that returned a certificate
        self.samples = 0  # configurations drawn by sample_certificate
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ install

    def install(self, names) -> None:
        modules = [
            m for n, m in sys.modules.items() if n == PACKAGE or n.startswith(PACKAGE + ".")
        ]
        for qual in names:
            module_name, func_name = qual.split(".")
            original = getattr(sys.modules[f"{PACKAGE}.{module_name}"], func_name)
            wrapper = self._wrap(qual, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._installed.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    def _wrap(self, qual: str, fn):
        observe = self._observer(qual, fn)
        if not self.timed:
            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                if observe is not None:
                    observe(args, kwargs, result)
                return result

            return counted

        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (qual, start, end, parent, self.op)
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return traced

    def _observer(self, qual: str, fn):
        if qual == "search.mc_search":
            def mc(args, kwargs, outcome):
                target = kwargs.get("target", args[0] if args else None)
                found = hasattr(outcome, "witness")
                draws = outcome.iterations if found else outcome.budget
                self.mc.append((target, draws, found))

            return mc
        if qual == "search.witness_for":
            def witness(args, kwargs, result):
                self.none += result is None

            return witness
        if qual == "certify.forced_sign":
            def forced(args, kwargs, result):
                self.hits += result is not None

            return forced
        if qual == "certify.sample_certificate":
            signature = inspect.signature(fn)

            def sampled(args, kwargs, result):
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                self.samples += bound.arguments["samples"]

            return sampled
        return None

    # ------------------------------------------------------------ summary

    def span_totals(self, scale, setup: bool = False) -> dict[str, tuple[int, float, float]]:
        """Per wrapped name: (calls, inclusive seconds, self seconds) over the
        spans of the timed operations, or of set-up when `setup` is true.
        Each span's times are multiplied by `scale(op)`.

        Self time is a span's duration minus the durations of its direct
        child spans; inclusive time double-counts recursive calls, so it is
        used only for functions that do not recurse.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        for index, (name, start, end, parent, op) in enumerate(self.spans):
            if (op < 0) != setup:
                continue
            factor = scale(op)
            entry = totals[name]
            entry[0] += 1
            entry[1] += (end - start) * factor
            entry[2] += (end - start - child[index]) * factor
        return {name: tuple(v) for name, v in totals.items()}

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tname\tstart_s\tend_s\tparent\top\n")
            for index, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(f"{index}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{op}\n")


def per_layer(recorder: Recorder, ops_s: float, scale, nonrealizable) -> dict[str, float]:
    """Per-layer metrics of one traced pass: the timed operations, plus
    the two set-up calls.

    `ops_s` is the time of the timed operations; the part of it that no
    top-level span covers is charged to `layer.outside`.  Span times are
    multiplied by `scale(op)`, as the operations' times were.
    `nonrealizable(couple)` tells whether a search target is proven
    non-realizable, for `draws_on_nonrealizable`.
    """
    totals = recorder.span_totals(scale)
    setup = recorder.span_totals(scale, setup=True)

    def calls(name):
        return totals.get(name, (0, 0.0, 0.0))[0]

    def inclusive(name):
        return totals.get(name, (0, 0.0, 0.0))[1]

    def self_s(name):
        return totals.get(name, (0, 0.0, 0.0))[2]

    def ratio(a, b):
        return a / b if b else 0.0

    draws = sum(d for _, d, _ in recorder.mc)
    exhausted_draws = sum(d for _, d, found in recorder.mc if not found)
    m = {
        "search.mc_search.calls": calls("search.mc_search"),
        "search.mc_search.found": sum(found for _, _, found in recorder.mc),
        "search.mc_search.exhausted": sum(not found for _, _, found in recorder.mc),
        "search.mc_search.draws": draws,
        "search.mc_search.self_s": self_s("search.mc_search"),
        "search.mc_search.draws_per_s": ratio(draws, inclusive("search.mc_search")),
        "search.mc_search.exhausted_draw_share": ratio(exhausted_draws, draws),
        "search.mc_search.draws_on_nonrealizable": sum(
            d for target, d, _ in recorder.mc if nonrealizable(target)
        ),
        "search.witness_for.calls": calls("search.witness_for"),
        "search.witness_for.none": recorder.none,
        "search.witness_for.self_s": self_s("search.witness_for"),
        "search.concatenate.calls": calls("search.concatenate"),
        "search.concatenate.self_s": self_s("search.concatenate"),
        "search.canonical_witness.calls": calls("search.canonical_witness"),
        "search.transport.calls": calls("search.transport"),
        "certify.forced_sign.calls": calls("certify.forced_sign"),
        "certify.forced_sign.hits": recorder.hits,
        "certify.forced_sign.self_s": self_s("certify.forced_sign"),
        "certify.forced_sign.us_per_call": 1e6
        * ratio(inclusive("certify.forced_sign"), calls("certify.forced_sign")),
        "certify.verify_certificate.calls": calls("certify.verify_certificate"),
        "certify.verify_certificate.self_s": self_s("certify.verify_certificate"),
        "certify.sample_certificate.samples_per_s": ratio(
            recorder.samples, inclusive("certify.sample_certificate")
        ),
        "certify.classify_pattern.calls": calls("certify.classify_pattern"),
        "certify.classify_pattern.self_s": self_s("certify.classify_pattern"),
        "certify.propagate.calls": calls("certify.propagate"),
        "certify.propagate.self_s": self_s("certify.propagate"),
        "certify.frontier_exclusion.calls": calls("certify.frontier_exclusion"),
        "certify.frontier_exclusion.self_s": self_s("certify.frontier_exclusion"),
        "poly.expand.calls": calls("poly.expand"),
        "poly.expand.self_s": self_s("poly.expand"),
        "poly.expand.us_per_call": 1e6 * ratio(inclusive("poly.expand"), calls("poly.expand")),
        "poly.couple_of.calls": calls("poly.couple_of"),
        "results.builtin_table.s": setup.get("results.builtin_table", (0, 0.0))[1],
        "published.published_witnesses.s": setup.get("published.published_witnesses", (0, 0.0))[1],
    }
    for layer in LAYERS:
        m[f"layer.{layer}.self_s"] = sum(
            s for name, (_, _, s) in totals.items() if name.startswith(layer + ".")
        )
    top_level = sum(
        (end - start) * scale(op)
        for name, start, end, parent, op in recorder.spans
        if parent < 0 and op >= 0
    )
    m["layer.outside.self_s"] = ops_s - top_level
    return m
