"""Run-to-run spread of the end-to-end metrics, workloads interleaved.

    python3 perfbench/spread.py [--runs 10]

Runs ``run.py`` untraced once per (seed, workload), with the workloads and
run length of BENCHMARK.json and seeds 1 to RUNS, cycling through the
workloads for each seed so that slow drift of the machine spreads over all
of them.  For every workload and end-to-end metric it prints the median of
the runs and their quartile spread, (q3 - q1) / median as
``statistics.quantiles(values, n=4)`` gives the quartiles, next to the
metric's bound.  All results go to ``.perfbench_runs/spread-<time>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]

    results: dict[str, list[dict]] = {w: [] for w in workloads}
    for seed in range(1, args.runs + 1):
        for w in workloads:
            cmd = [
                sys.executable,
                str(BENCH / "run.py"),
                *("--workload", w, "--seed", str(seed)),
                *("--seconds", str(spec["run_seconds"]), "--trace", "0"),
            ]
            t0 = time.monotonic()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
            last = json.loads(proc.stdout.strip().splitlines()[-1])
            last["run_s"] = time.monotonic() - t0
            results[w].append(last)
            print(f"seed {seed} {w}: correct={last['correct']} run {last['run_s']:.1f} s")

    for w in workloads:
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in results[w]]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            verdict = "ok" if spread < m["bound"] / 3 else "WIDE"
            print(
                f"{w:18} {m['name']:34} median {med:<12.6g} spread {spread:7.4f} "
                f"bound {m['bound']} {verdict}"
            )
    out = ROOT / ".perfbench_runs" / f"spread-{time.strftime('%Y%m%dT%H%M%S')}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(results, indent=1) + "\n")
    print(f"results: {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
