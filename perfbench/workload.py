"""One repetition of one benchmark workload, in a fresh Python process.

    python3 perfbench/workload.py --workload NAME --seed N --started T --out DIR [--trace]
    python3 perfbench/workload.py --workload NAME --seed N --started T --setup-only

T is the ``time.monotonic()`` at which the caller launched the process.
Pins the BLAS pool to one thread, imports thinlab from ``src/``, and
validates the workload's configs with the seed written into each (that is
set-up), then prints the set-up time and the number of planned operations
as one JSON line.  It then runs the configs one after another through
``thinlab.cli.run`` with ``jobs=1``, checks every data output against
``perfbench/reference/<workload>``, and prints one JSON object with the
results as its last line.  Exit code 0 means the repetition ran, whatever
it found; 3 means thinlab could not be imported.
"""

import os

# Before numpy is imported: the benchmark is the single-threaded baseline.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import check  # noqa: E402
import spans  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = sorted(p.name for p in (BENCH / "workloads").iterdir() if p.is_dir())


def machine_facts() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def _planned_tasks(config) -> int:
    return len(config.params["primes"]) if "primes" in config.params else 1


def _cli_spectra(cli, groups, graphs, out: Path, ref: Path, seed: int):
    """Dump the SL2(F_41) Cayley graph, run `thinlab spectra --graph` on it,
    and check the dump and the printed row; the printed lambda1 must equal
    lambda1_cayley at p = 41 in the schreier_g1 config's comparison.csv."""
    gens = groups.sl2_generators(41)
    graph = graphs.cayley_graph(groups.bfs_closure(gens), gens, label="cayley_g1_p41")
    dump = out / "cayley_p41.tlg"
    graphs.save_graph(graph, dump)
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        code = cli.main(["spectra", "--graph", str(dump)])
    (out / "spectra_cli.csv").write_text(printed.getvalue())
    if code != 0:
        return [f"thinlab spectra --graph exited {code}"]
    return (
        check.compare_digest(ref / f"{dump.name}.sha256", dump)
        + check.compare_file(ref / "spectra_cli.csv", out / "spectra_cli.csv", seed)
        + check.cli_lambda1_matches(
            out / "spectra_cli.csv", out / "schreier_g1" / "comparison.csv", 41
        )
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument(
        "--started",
        type=float,
        required=True,
        help="time.monotonic() when the parent launched this process",
    )
    args = parser.parse_args(argv)
    if args.out is None and not args.setup_only:
        parser.error("--out is required unless --setup-only")
    seed = args.seed % 2**63

    sys.path.insert(0, str(ROOT / "src"))
    try:
        from thinlab import cli, graphs, groups
    except ImportError as exc:
        print(f"cannot import thinlab from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 3
    configs = []
    for path in sorted((BENCH / "workloads" / args.workload).glob("*.json")):
        raw = json.loads(path.read_text())
        raw["seed"] = seed
        configs.append((path.stem, cli.validate_config(raw)))
    setup_s = time.monotonic() - args.started
    spectral = args.workload == "spectral"
    planned = sum(_planned_tasks(config) for _, config in configs) + spectral
    result = {"setup_s": setup_s, "planned": planned, "facts": machine_facts()}
    # the caller counts the planned operations as failed if no later line comes
    print(json.dumps(result), flush=True)
    if args.setup_only:
        return 0

    tracer = None
    if args.trace:
        tracer = spans.Tracer(run_id=f"{args.workload}-seed{seed}-{os.getpid()}")
        tracer.install()
    ref = BENCH / "reference" / args.workload
    out = args.out
    out.mkdir(parents=True, exist_ok=True)
    attempted = failed = 0
    mismatches: list[str] = []

    t0 = time.perf_counter()
    for stem, config in configs:
        try:
            manifest = cli.run(config, out_dir=str(out / stem), jobs=1)
            bad = check.compare_dir(ref / stem, out / stem, seed)
        except Exception as exc:  # noqa: BLE001 - a crash is a failed operation
            attempted += _planned_tasks(config)
            failed += _planned_tasks(config)
            mismatches.append(f"{stem}: {type(exc).__name__}: {exc}")
            continue
        if tracer is not None:
            names = [*manifest.outputs, "manifest.json"]
            tracer.add_counts(
                "cli.run", output_bytes=sum((out / stem / n).stat().st_size for n in names)
            )
        attempted += len(manifest.tasks)
        failed += len(manifest.tasks) if bad else sum(t["status"] != "ok" for t in manifest.tasks)
        mismatches += bad
    if spectral:
        attempted += 1
        try:
            bad = _cli_spectra(cli, groups, graphs, out, ref, seed)
        except Exception as exc:  # noqa: BLE001
            bad = [f"spectra --graph: {type(exc).__name__}: {exc}"]
        failed += bool(bad)
        mismatches += bad
    result["wall_s"] = time.perf_counter() - t0

    result.update(attempted=attempted, failed=failed, mismatches=mismatches)
    if tracer is not None:
        tracer.write(out / "spans.jsonl")
        result["layers"] = spans.layer_metrics(tracer.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
