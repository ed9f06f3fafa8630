"""Smoke tests: each shipped script runs to completion on a small input,
and a refused input ends in a message and exit status 1."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_script(tmp_path, script, args, **env_extra):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("THINLAB_BUDGET", None)
    env.update(env_extra)
    argv = [sys.executable, str(ROOT / "scripts" / script)] + [a.format(tmp=tmp_path) for a in args]
    return subprocess.run(argv, cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize(
    "script,args",
    [
        ("sl2_family_sweep.py", ["13", "{tmp}"]),
        ("origami_census_summary.py", ["4"]),
        ("pointpush_congruence.py", ["1", "3"]),
        ("pointpush_congruence.py", ["2"]),  # Sp4(F5): 9,360,000 elements
    ],
)
def test_script_exits_zero(tmp_path, script, args):
    proc = run_script(tmp_path, script, args)
    assert proc.returncode == 0, proc.stderr


def test_pointpush_refusal_exits_one_without_traceback(tmp_path):
    # genus 3 at its default prime 3 is over the default element budget
    proc = run_script(tmp_path, "pointpush_congruence.py", ["3"])
    assert proc.returncode == 1, proc.stderr
    assert "matrix_group_order: orbit products at base point 2 over the limit of 2000000" in proc.stderr
    assert "Traceback" not in proc.stderr + proc.stdout


@pytest.mark.parametrize(
    "arg,env,refusal",
    [
        ("9", {}, "max_degree '9' is not an integer in 1..8"),
        ("x", {}, "max_degree 'x' is not an integer in 1..8"),
        ("6", {"THINLAB_BUDGET": "100"}, "census(d=5): S_5's 5! elements over the limit of 100"),
    ],
)
def test_census_summary_refusal_exits_one_without_traceback(tmp_path, arg, env, refusal):
    proc = run_script(tmp_path, "origami_census_summary.py", [arg], **env)
    assert proc.returncode == 1, proc.stderr
    assert f"refused: {refusal}" in proc.stderr
    assert "Traceback" not in proc.stderr + proc.stdout
    if not env:  # a bad degree is refused before any census runs
        assert proc.stdout == ""
