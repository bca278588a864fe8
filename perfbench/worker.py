"""One pass of a benchmark workload in a fresh interpreter.

Started by `run.py`, once per pass, because a CLI user pays every
module-level cache of `hypmoduli` on each invocation.  The pass times its
set-up (importing the package and building the encoded degree-6 table and
the published witness store), runs every input of the workload through
the program's public functions, and prints one JSON object on stdout.
Exact output checks and the fingerprint are computed after the timed
region.

    python3 perfbench/worker.py --workload NAME --seed N --role pass|setup
        [--trace] [--check] [--spans PATH]
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import traceback
import types
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import tracing  # noqa: E402  (the benchmark's own modules; neither imports hypmoduli)
import workloads  # noqa: E402

MAX_REPORTED_FAILURES = 20


def _load_program(recorder):
    """Import the package, wrap its public functions and build the
    encoded table and witness store: the set-up a CLI invocation pays."""
    import hypmoduli.certify
    import hypmoduli.patterns
    import hypmoduli.poly
    import hypmoduli.published
    import hypmoduli.results
    import hypmoduli.search

    hm = types.SimpleNamespace(
        certify=hypmoduli.certify,
        patterns=hypmoduli.patterns,
        poly=hypmoduli.poly,
        published=hypmoduli.published,
        results=hypmoduli.results,
        search=hypmoduli.search,
    )
    recorder.install(tracing.TRACED if recorder.timed else tracing.COUNTED)
    table = hm.results.builtin_table(6)
    store = {w.couple: w for w in hm.published.published_witnesses()}
    return hm, table, store


def _nonrealizable_oracle(hm, table, store):
    """Whether a couple is proven non-realizable: by the encoded table at
    degree 6, and below it by a verdict of classify_pattern with a one-draw
    MC budget, which decides only through the rigid, canonical, forced-sign,
    propagation and frontier stages."""
    cfg = hm.search.SamplerConfig(seed=0, budget=1)
    tables = {}

    def nonrealizable(couple) -> bool:
        if couple.sp.degree == 6:
            return table.status(couple) is hm.certify.Status.NON_REALIZABLE
        if couple.sp not in tables:
            tables[couple.sp] = hm.certify.classify_pattern(couple.sp, cfg, store)
        return tables[couple.sp][couple.order].status is hm.certify.Status.NON_REALIZABLE

    return nonrealizable


# Times are scaled to a reference speed of the interpreter.  On a shared
# machine the speed of one core drifts by 20-70% over seconds to minutes as
# other tenants load it, which swamps the differences the benchmark must
# resolve.  A fixed piece of work like the program's own (float polynomial
# expansion and exact Fraction arithmetic) is timed before the first
# operation, then after any operation that ends 0.2 s or more after the
# last calibration, and after the last one.  Each operation's time is
# multiplied by REFERENCE_CALIBRATION_S over the mean of the two
# calibrations around it.  Raw times are reported alongside.
CALIBRATE_EVERY_S = 0.2
REFERENCE_CALIBRATION_S = 0.01


def _calibrate() -> float:
    """Seconds taken by the calibration work; it uses no part of hypmoduli."""
    import random
    from fractions import Fraction

    start = perf_counter()
    rng = random.Random(20231014)
    total = Fraction(0)
    seen = {}
    for i in range(60):
        xs = sorted(rng.uniform(0.0, 1.0) for _ in range(6))
        coeffs = [1.0]
        for x in xs:
            coeffs = [a - x * b for a, b in zip(coeffs + [0.0], [0.0] + coeffs)]
        exact = [Fraction(1)]
        for j in range(6):
            root = Fraction(i + j + 1, j + 2)
            exact = [a - root * b for a, b in zip(exact + [Fraction(0)], [Fraction(0)] + exact)]
        total += exact[-1]
        seen[tuple(xs)] = coeffs
    return perf_counter() - start


def _speed_factors(marks: list[tuple[int, float]], n: int) -> list[float]:
    """Per operation, the reference calibration time over the mean of the
    calibrations before and after it; `marks` holds (operations done
    before the calibration, its seconds)."""
    factors = []
    m = 0
    for i in range(n):
        while m + 1 < len(marks) and marks[m + 1][0] <= i:
            m += 1
        around = (marks[m][1] + marks[m + 1][1]) / 2
        factors.append(REFERENCE_CALIBRATION_S / around)
    return factors


def run_pass(args) -> dict:
    recorder = tracing.Recorder(timed=args.trace)
    start = perf_counter()
    hm, table, store = _load_program(recorder)
    setup_raw_s = perf_counter() - start
    setup_factor = REFERENCE_CALIBRATION_S / ((_calibrate() + _calibrate()) / 2)
    if args.role == "setup":
        recorder.uninstall()
        return {"setup_s": setup_raw_s * setup_factor, "setup_raw_s": setup_raw_s}

    workload = workloads.WORKLOADS[args.workload](hm, table, store, args.seed)
    results, raw, errors = [], [], {}
    marks = [(0, _calibrate())]
    last = perf_counter()
    for index, x in enumerate(workload.inputs):
        recorder.op = index
        t = perf_counter()
        try:
            result = workload.run(x)
        except Exception as exc:  # one failed operation must not stop the pass
            traceback.print_exc(file=sys.stderr)
            errors[index] = f"{x}: {type(exc).__name__}: {exc}"
            result = None
        raw.append(perf_counter() - t)
        results.append(result)
        if perf_counter() - last >= CALIBRATE_EVERY_S:
            marks.append((index + 1, _calibrate()))
            last = perf_counter()
    if marks[-1][0] < len(raw):
        marks.append((len(raw), _calibrate()))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    recorder.op = -1
    recorder.uninstall()
    factors = _speed_factors(marks, len(raw))
    latencies = [t * f for t, f in zip(raw, factors)]
    ops_s = sum(latencies)

    ops = failed = questions = undecided = 0
    messages = list(errors.values())
    for index, (x, result) in enumerate(zip(workload.inputs, results)):
        units = workload.units(x)
        ops += units
        if index in errors:
            failed += units
            continue
        asked, left = workload.decisions(x, result)
        questions += asked
        undecided += left
        if args.check:
            found = workload.check(x, result)
            if found:
                failed += units
                messages.extend(found)

    fingerprint = {
        "mc_calls": len(recorder.mc),
        "mc_found": sum(found for _, _, found in recorder.mc),
        "mc_exhausted": sum(not found for _, _, found in recorder.mc),
        "mc_draws": sum(draws for _, draws, _ in recorder.mc),
    }
    if not errors:
        fingerprint.update(workload.fingerprint(results))

    report = {
        "setup_s": setup_raw_s * setup_factor,
        "setup_raw_s": setup_raw_s,
        "ops_raw_s": sum(raw),
        "speed_factor": sum(raw) and ops_s / sum(raw),
        "ops": ops,
        "failed": failed,
        "questions": questions,
        "undecided": undecided,
        "ops_s": ops_s,
        "latencies_s": latencies if workload.request_per_input else [ops_s],
        "peak_rss_mb": peak_rss_mb,
        "fingerprint": fingerprint,
        "failures": messages[:MAX_REPORTED_FAILURES],
        "failure_count": len(messages),
    }
    if args.trace:
        layers = tracing.per_layer(
            recorder,
            ops_s,
            lambda op: factors[op] if op >= 0 else setup_factor,
            _nonrealizable_oracle(hm, table, store),
        )
        decided = fingerprint.get("decided", {})
        for kind in workloads.DECIDED_KINDS:
            layers[f"certify.decided.{kind}"] = decided.get(kind, 0)
        layers["certify.undecided"] = fingerprint.get("undecided", 0)
        report["layers"] = layers
        if args.spans:
            recorder.write_spans(args.spans)
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--role", choices=("pass", "setup"), default="pass")
    parser.add_argument("--trace", action="store_true", help="record spans at layer boundaries")
    parser.add_argument("--check", action="store_true", help="check every output exactly")
    parser.add_argument("--spans", default=None, help="write the spans here (traced passes)")
    args = parser.parse_args(argv)
    print(json.dumps(run_pass(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
