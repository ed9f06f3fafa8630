"""thinlab benchmark: one workload, timed end to end (--trace 0) or per
layer (--trace 1).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A closed loop with one client.  Every repetition is a fresh Python process
(``workload.py``) that runs the workload's configs through
``thinlab.cli.run`` one after another with ``jobs=1`` and one BLAS thread,
then checks its outputs against the stored reference.  Repetitions start
while the next one is expected to finish within S seconds; at least one
always runs.  Untraced runs then fill the rest of the S seconds, and at
least MIN_SETUP_PROBES, with processes that stop after set-up, so
``setup_s`` is the median of many samples in every run.

Prints one line per metric (median, quartiles, sample count), the machine
facts, and as its last line one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics of BENCHMARK.json when
untraced, its per-layer metrics when traced.  A repetition that dies after
set-up (a crash, or the kill at the run's time limit) counts all its
planned operations as failed.  Exits nonzero without the JSON line if a
repetition could not get through set-up (for example, no thinlab source).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUNS = ROOT / ".perfbench_runs"
MIN_SETUP_PROBES = 6
# a run must end within 180 s; a process still running at this point is killed
RUN_LIMIT_S = 170


class RepetitionError(RuntimeError):
    """A repetition process exited before the end of its set-up."""


def spawn(workload: str, seed: int, extra: list[str], log: Path, kill_at: float) -> dict:
    """Run workload.py once, killing it at time.monotonic() ``kill_at``;
    return its result plus the process's CPU time and peak resident memory,
    read from its own rusage."""
    started = time.monotonic()
    cmd = [
        sys.executable,
        str(BENCH / "workload.py"),
        *("--workload", workload, "--seed", str(seed), "--started", repr(started)),
        *extra,
    ]
    with open(log, "w") as err:
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=err)
        killer = threading.Timer(max(kill_at - started, 1.0), proc.kill)
        killer.start()
        try:
            stdout = proc.stdout.read().decode()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            killer.cancel()
            proc.stdout.close()
    lines = stdout.strip().splitlines()
    tail = " | ".join(log.read_text().strip().splitlines()[-5:])
    if proc.returncode == 3 or not lines:
        raise RepetitionError(f"{' '.join(extra)}: exit {proc.returncode}: {tail}")
    result = json.loads(lines[-1])
    if "--setup-only" not in extra and (proc.returncode != 0 or "wall_s" not in result):
        # died after set-up: every planned operation failed
        result.update(
            attempted=result["planned"],
            failed=result["planned"],
            mismatches=[f"repetition exited {proc.returncode}: {tail}"],
            wall_s=time.monotonic() - started - result["setup_s"],
        )
    result["cpu_s"] = usage.ru_utime + usage.ru_stime
    result["peak_rss_mb"] = usage.ru_maxrss * 1024 / 1e6  # ru_maxrss is in KiB
    return result


def summarize(values: list[float]) -> tuple[float, float, float]:
    """Median and first and third quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q2, q1, q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    run_dir = RUNS / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    start = time.monotonic()
    deadline, kill_at = start + args.seconds, start + RUN_LIMIT_S
    probes, reps = [], []
    try:
        longest = 0.0
        while not reps or time.monotonic() + longest <= deadline:
            t0 = time.monotonic()
            out = run_dir / f"rep{len(reps)}"
            extra = ["--out", str(out)] + (["--trace"] if args.trace else [])
            log = run_dir / f"rep{len(reps)}.log"
            reps.append(spawn(args.workload, args.seed, extra, log, kill_at))
            longest = max(longest, time.monotonic() - t0)
            # keep the spans; drop the data outputs, which were checked
            for child in out.iterdir() if out.exists() else ():
                if child.is_dir():
                    shutil.rmtree(child)
                elif child.name != "spans.jsonl":
                    child.unlink()
        while not args.trace and (len(probes) < MIN_SETUP_PROBES or time.monotonic() < deadline):
            log = run_dir / f"probe{len(probes)}.log"
            probes.append(spawn(args.workload, args.seed, ["--setup-only"], log, kill_at))
    except RepetitionError as exc:
        print(f"benchmark could not run: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        # a repetition that died reports no layers
        layers = [r.get("layers") or spans.layer_metrics([]) for r in reps]
        samples = {name: [x[name] for x in layers] for name in layers[0]}
    else:
        samples = {name: [r[name] for r in reps] for name in ("wall_s", "cpu_s", "peak_rss_mb")}
        samples["setup_s"] = [r["setup_s"] for r in probes + reps]
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    mismatches = [m for r in reps for m in r["mismatches"]]

    facts = reps[0]["facts"]
    metrics = {}
    for m in declared:
        median, q1, q3 = summarize(samples[m["name"]])
        metrics[m["name"]] = {"value": median, "unit": m["unit"]}
        print(
            f"{m['name']}: median {median:.6g} {m['unit']} "
            f"(q1 {q1:.6g}, q3 {q3:.6g}, n={len(samples[m['name']])})"
        )
    if args.trace:
        median, q1, q3 = summarize([r["wall_s"] for r in reps])
        print(f"traced wall_s: median {median:.6g} s (q1 {q1:.6g}, q3 {q3:.6g}, n={len(reps)})")
    print(f"failed_frac: {failed / attempted:.6g} ({failed} of {attempted} operations failed)")
    for m in mismatches[:10]:
        print(f"mismatch: {m}")
    print(f"machine: {json.dumps(facts, sort_keys=True)}")
    summary = {
        "correct": failed == 0 and not mismatches,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    (run_dir / "result.json").write_text(
        json.dumps({**summary, "machine": facts, "samples": samples}, indent=2) + "\n"
    )
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
