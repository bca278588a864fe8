"""Benchmark of the hypmoduli classifier, run from the root of a checkout:

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Workloads (see NOTES.md for why each was chosen):
  deg6-classify    `decide --all --degree 6`: 64 patterns, 924 couples
  search-requests  `search` on each of 202 realizable degree-6 couples
  cert-corpus      `certify --samples 100` on 224 degree-6 and wall orders

Times are scaled to a reference interpreter speed measured by a
calibration loop between operations; see `worker.py`.

Every pass runs in a fresh interpreter (`worker.py`), one after another
from this single process, because a CLI user pays every module-level cache
on each invocation.  Passes repeat for about S seconds of measured work.
Set-up is also timed in extra fresh interpreters, and its median is
reported.  The first pass checks every output exactly; later passes must
reproduce its fingerprint.

With `--trace 0` the last line of stdout is a JSON object with the
end-to-end metrics named in BENCHMARK.json.  With `--trace 1` the run
alternates an untraced and a traced pass, reports the per-layer metrics
from the traced passes, and writes their spans under `.perfbench_out/`.
`--workload all` runs the three workloads in turn.  The exit code is 0
when every output passed its exact check; 1 when some output failed it
(the result line is still printed, with `correct` false) or a pass could
not run; 2 for bad arguments or a checkout without the program.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SPEC = ROOT / "BENCHMARK.json"
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("deg6-classify", "search-requests", "cert-corpus")
SETUP_PROBES = 5
RUN_DEADLINE_S = 170.0


class PassError(RuntimeError):
    """A worker process failed or printed no report."""


class Runner:
    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.started = perf_counter()

    def worker(self, *extra: str) -> dict:
        remaining = RUN_DEADLINE_S - (perf_counter() - self.started)
        if remaining <= 1:
            raise PassError("out of time before the next pass")
        cmd = [
            sys.executable, str(WORKER),
            "--workload", self.workload, "--seed", str(self.seed), *extra,
        ]
        try:
            proc = subprocess.run(
                cmd, cwd=ROOT, capture_output=True, text=True, timeout=remaining
            )
        except subprocess.TimeoutExpired as exc:
            raise PassError(f"pass exceeded the run deadline: {' '.join(cmd)}") from exc
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise PassError(f"worker exited with {proc.returncode}: {' '.join(cmd)}")
        return json.loads(lines[-1])


def _percentile(values: list[float], p: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def _measured(report: dict) -> float:
    return report["setup_raw_s"] + report["ops_raw_s"]


def run(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    runner = Runner(workload, seed)
    runner.worker("--role", "setup")  # compiles bytecode; not timed
    setups = []
    if not trace:
        setups = [runner.worker("--role", "setup")["setup_s"] for _ in range(SETUP_PROBES)]

    # Each round is one pass, or with tracing an untraced and a traced pass.
    # Another round starts while the measured work so far, plus half a round,
    # stays under the requested seconds.
    rounds: list[tuple[dict, dict | None]] = []
    measured = 0.0
    while True:
        index = len(rounds)
        flags = ["--check"] if index == 0 else []
        plain = runner.worker("--role", "pass", *flags)
        traced = None
        if trace:
            spans = OUT / f"spans-{workload}-seed{seed}-pass{index}.tsv"
            traced = runner.worker("--role", "pass", "--trace", "--spans", str(spans))
        length = _measured(plain) + (_measured(traced) if traced else 0.0)
        rounds.append((plain, traced))
        measured += length
        if measured + length / 2 >= seconds:
            break

    first = rounds[0][0]
    passes = [r for pair in rounds for r in pair if r is not None]
    attempted = sum(r["ops"] for r in passes)
    failed = sum(r["failed"] for r in passes)
    for i, r in enumerate(passes[1:], start=1):
        if r["fingerprint"] != first["fingerprint"]:
            failed += r["ops"] - r["failed"]
            first["failures"].append(f"pass {i} fingerprint differs: {r['fingerprint']}")
            first["failure_count"] += 1

    # A request's latency is its median over the passes, which halves the
    # noise the speed scaling leaves in a single operation's time.
    plains = [plain for plain, _ in rounds]
    latencies = [statistics.median(ts) for ts in zip(*(r["latencies_s"] for r in plains))]
    questions = sum(r["questions"] for r in plains)
    setups += [r["setup_s"] for r in plains]
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": statistics.median(r["ops"] / r["ops_s"] for r in plains),
        "request_p50_ms": 1e3 * _percentile(latencies, 50),
        "request_p95_ms": 1e3 * _percentile(latencies, 95),
        "decided_share": (
            (questions - sum(r["undecided"] for r in plains)) / questions if questions else 0.0
        ),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plains),
    }
    layers = {}
    if trace:
        traced = [t for _, t in rounds]
        for name in traced[0]["layers"]:
            layers[name] = statistics.median(t["layers"][name] for t in traced)
        overheads = [t["ops_s"] - p["ops_s"] for p, t in rounds]
        layers["trace.overhead_s"] = statistics.median(overheads)
        layers["trace.overhead_share"] = statistics.median(
            (t["ops_s"] - p["ops_s"]) / p["ops_s"] for p, t in rounds
        )
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "passes": len(passes),
        "speed_factors": [r["speed_factor"] for r in passes],
        "ops_raw_s": [r["ops_raw_s"] for r in passes],
        "latencies_s": [r["latencies_s"] for r in plains],
        "setups": len(setups),
        "attempted": attempted,
        "failed": failed,
        "questions_per_pass": first["questions"],
        "undecided_per_pass": first["undecided"],
        "fingerprint": first["fingerprint"],
        "failures": first["failures"],
        "failure_count": first["failure_count"],
        "metrics": metrics,
        "layers": layers,
    }


def _result_line(summary: dict, spec: dict, trace: bool) -> dict:
    values = summary["layers"] if trace else summary["metrics"]
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise KeyError(f"BENCHMARK.json names metrics this run does not measure: {missing}")
    return {
        "correct": summary["failed"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted
        },
    }


def _print_summary(summary: dict, spec: dict) -> None:
    s = summary
    print(f"workload {s['workload']}  seed {s['seed']}  "
          f"trace {'on' if s['trace'] else 'off'}  passes {s['passes']}")
    print("  raw seconds of timed work per pass: "
          + ", ".join(f"{t:.3f}" for t in s["ops_raw_s"])
          + "; speed factors: " + ", ".join(f"{f:.3f}" for f in s["speed_factors"]))
    print(f"  failed_share {s['failed'] / s['attempted']:.6g} "
          f"({s['failed']} of {s['attempted']} operations)")
    print(f"  undecided per pass: {s['undecided_per_pass']} of {s['questions_per_pass']}")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    if s["trace"]:
        ops = [v for k, v in s["layers"].items() if k.startswith("layer.")]
        total = sum(ops) or 1.0
        print("  self time per layer over the timed operations:")
        for name in ("layer.search.self_s", "layer.certify.self_s",
                     "layer.poly.self_s", "layer.outside.self_s"):
            v = s["layers"][name]
            print(f"    {name:<24} {v:10.4f} s  {100 * v / total:5.1f}%")
        print(f"  tracing overhead {s['layers']['trace.overhead_s']:.4f} s "
              f"({100 * s['layers']['trace.overhead_share']:.1f}% of untraced time)")
        for name, v in s["layers"].items():
            print(f"    {name:<44} {v:14.6g} {units.get(name, '')}")
    else:
        print(f"  set-up timed {s['setups']} times")
        for name, v in s["metrics"].items():
            print(f"    {name:<16} {v:14.6g} {units.get(name, '')}")
    print(f"  fingerprint {json.dumps(s['fingerprint'], sort_keys=True)}")
    for message in s["failures"]:
        print(f"  FAILED {message}", file=sys.stderr)
    if s["failure_count"] > len(s["failures"]):
        print(f"  ... {s['failure_count'] - len(s['failures'])} more failed checks",
              file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="hypmoduli benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "hypmoduli" / "__init__.py").is_file() or not SPEC.is_file():
        print(f"error: no hypmoduli sources or BENCHMARK.json under {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    OUT.mkdir(exist_ok=True)
    status = 0
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        try:
            summary = run(workload, args.seed, args.seconds, bool(args.trace))
        except PassError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        line = _result_line(summary, spec, bool(args.trace))
        (OUT / f"{workload}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(summary, indent=1, sort_keys=True) + "\n", encoding="utf-8"
        )
        _print_summary(summary, spec)
        print(json.dumps(line))
        if not line["correct"]:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
