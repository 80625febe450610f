"""Run the benchmark on several seeds and report the spread of each metric.

    python3 benchmarks/spread.py --workloads gold-replica itinerary-dense \
        --seeds 1-10 --seconds 36 [--trace 1] [--label set-a]

Runs are sequential.  For every workload and metric it prints the median,
the first and third quartiles (``statistics.quantiles(values, n=4)``) and
their distance as a share of the median, then the calibration time of
each run.  The raw lines go to ``benchmarks/out/spread-<label>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    t0 = time.perf_counter()
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         check=True).stdout.splitlines()
    result = json.loads(out[-1])
    result["wall_s"] = time.perf_counter() - t0
    info = dict(f.split("=", 1) for f in out[-2].split()[2:])
    result["control_loop_ms"] = info["control_loop_ms"]
    result["rounds"] = int(info["rounds"])
    return result


def summarize(workload: str, runs: list[dict], bounds: dict) -> list[str]:
    lines = [f"### {workload} ({len(runs)} runs)", "",
             "| metric | median | q1 | q3 | (q3-q1)/median | bound |",
             "|---|---|---|---|---|---|"]
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        unit = runs[0]["metrics"][name]["unit"]
        med = statistics.median(values)
        q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                     else (med, med, med))
        spread = (q3 - q1) / med if med else float("nan")
        lines.append(f"| {name} ({unit}) | {med:.6g} | {q1:.6g} | {q3:.6g} "
                     f"| {spread:.3f} | {bounds.get(name, '')} |")
    failed = sum(r["failed"] for r in runs)
    attempted = sum(r["attempted"] for r in runs)
    lines += ["", f"failed/attempted: {failed}/{attempted}; rounds per run: "
              + " ".join(str(r["rounds"]) for r in runs),
              "calibration ms per run (median over the run): "
              + " ".join(r["control_loop_ms"] for r in runs),
              "wall s per run: " + " ".join(f"{r['wall_s']:.1f}" for r in runs),
              ""]
    return lines


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", nargs="+", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=36)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--label", default="spread")
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    record = {}
    report = []
    for workload in args.workloads:
        runs = []
        for seed in _seeds(args.seeds):
            runs.append(run_once(workload, seed, args.seconds, args.trace))
            print(f"{workload} seed {seed}: "
                  + " ".join(f"{k}={v['value']:.4g}"
                             for k, v in runs[-1]["metrics"].items()),
                  file=sys.stderr, flush=True)
        record[workload] = runs
        report += summarize(workload, runs, bounds)
    (HERE / "out").mkdir(exist_ok=True)
    (HERE / "out" / f"spread-{args.label}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8")
    print("\n".join(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
