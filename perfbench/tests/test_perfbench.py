"""Tests of the benchmark itself: the reference checker, tracing leaving the
data files alone, failure counting, and the metric names in the output.

    python3 -m pytest perfbench/tests -q
"""

import csv
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import check  # noqa: E402

REFERENCE = BENCH / "reference"

# every metric the benchmark defines, in BENCHMARK.json order
END_TO_END = ("wall_s", "cpu_s", "peak_rss_mb", "setup_s")
PER_LAYER = (
    "groups.bfs_closure.s",
    "groups.bfs_closure.calls",
    "groups.bfs_closure.elements",
    "groups.bfs_closure.elements_per_s",
    "monodromy.braid_to_matrix.s",
    "graphs.cayley_graph.s",
    "graphs.cayley_graph.edges",
    "graphs.components.s",
    "graphs.torsion_action.s",
    "graphs.schreier_graph.s",
    "graphs.torsion_projection.s",
    "graphs.quotient_check.s",
    "graphs.save_graph.s",
    "graphs.save_graph.bytes",
    "graphs.load_graph.s",
    "spectra.lambda1.s",
    "spectra.lambda1.calls",
    "spectra.lambda1.vertices",
    "spectra.lambda1.dense_s",
    "spectra.lambda1.iterative_s",
    "spectra.lambda1.max_s",
    "spectra.lambda1.max_residual",
    "spectra.family_sweep.self_s",
    "spectra.write_reports_csv.s",
    "spectra.esperantist_fit.s",
    "pra.pra_graph.s",
    "pra.transitivity_report.s",
    "pra.pra_walk.s",
    "pra.epi_count",
    "pra.epi_yield",
    "pra.walk_steps_per_s",
    "origami.census.s",
    "origami.census.classes",
    "origami.origami_graph.s",
    "origami.origami_graph.vertices",
    "cli.run.s",
    "cli.run.self_s",
    "cli.outputs.bytes",
)


def _copy_reference(tmp_path, workload, stem):
    out = tmp_path / stem
    shutil.copytree(REFERENCE / workload / stem, out)
    return REFERENCE / workload / stem, out


def test_checker_accepts_reference_and_flags_perturbed_lambda1(tmp_path):
    ref, out = _copy_reference(tmp_path, "spectral", "cayley_sweep_full")
    assert check.compare_dir(ref, out, seed=0) == []

    path = out / "spectra.csv"
    rows = list(csv.reader(path.open(newline="")))
    col = rows[0].index("lambda1")
    original = float(rows[5][col])

    def write(value):
        rows[5][col] = repr(value)
        with path.open("w", newline="") as fh:
            csv.writer(fh).writerows(rows)

    write(original + 1e-10)
    assert check.compare_dir(ref, out, seed=0) == []
    write(original + 1e-6)
    bad = check.compare_dir(ref, out, seed=0)
    assert len(bad) == 1 and "lambda1" in bad[0]


def test_checker_flags_group_order_off_by_one(tmp_path):
    ref, out = _copy_reference(tmp_path, "combinatorial", "pointpush_g1")
    path = out / "congruence.json"
    payload = json.loads(path.read_text())
    payload["primes"]["67"]["order"] += 1
    path.write_text(json.dumps(payload))
    bad = check.compare_dir(ref, out, seed=0)
    assert len(bad) == 1 and "order" in bad[0]


def test_checker_flags_cli_lambda1_disagreeing_with_comparison(tmp_path):
    ref = REFERENCE / "spectral"
    comparison = ref / "schreier_g1" / "comparison.csv"
    assert check.cli_lambda1_matches(ref / "spectra_cli.csv", comparison, 41) == []
    rows = list(csv.reader((ref / "spectra_cli.csv").open(newline="")))
    rows[1][3] = repr(float(rows[1][3]) + 1e-6)
    printed = tmp_path / "spectra_cli.csv"
    with printed.open("w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    assert len(check.cli_lambda1_matches(printed, comparison, 41)) == 1


def _workload(out, *extra):
    cmd = [sys.executable, str(BENCH / "workload.py"), "--workload", "combinatorial"]
    cmd += ["--seed", "7", "--started", repr(time.monotonic()), "--out", str(out), *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_traced_and_untraced_runs_write_identical_data_files(tmp_path):
    plain = _workload(tmp_path / "plain")
    traced = _workload(tmp_path / "traced", "--trace")
    assert plain["failed"] == traced["failed"] == 0
    assert plain["attempted"] == traced["attempted"] == 21

    def data_files(root):
        return {
            p.relative_to(root): p.read_bytes()
            for p in sorted(root.rglob("*"))
            if p.is_file() and p.name not in ("manifest.json", "spans.jsonl")
        }

    assert data_files(tmp_path / "plain") == data_files(tmp_path / "traced")
    assert (tmp_path / "traced" / "spans.jsonl").exists()
    assert set(traced["layers"]) == set(PER_LAYER)


def test_repetition_killed_after_setup_counts_its_operations_as_failed(tmp_path):
    import run

    # set-up takes about 0.5 s and the repetition about 10 s
    kill_at = time.monotonic() + 3
    result = run.spawn("combinatorial", 1, ["--out", str(tmp_path)], tmp_path / "log", kill_at)
    assert result["attempted"] == result["failed"] == result["planned"] == 21
    assert "exited -9" in result["mismatches"][0]


def _bench(workload, trace, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5"]
    cmd += ["--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True)


def test_every_named_metric_is_declared_and_reported():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == list(PER_LAYER)
    for trace, names in ((0, END_TO_END), (1, PER_LAYER)):
        proc = _bench("combinatorial", trace)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert list(result["metrics"]) == list(names)
        assert any(line.startswith("failed_frac: 0 ") for line in lines)
        assert any(line.startswith("machine: ") for line in lines)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("combinatorial", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
