"""Smoke tests: each shipped script runs to completion on a small input."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


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
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    argv = [sys.executable, str(ROOT / "scripts" / script)] + [a.format(tmp=tmp_path) for a in args]
    proc = subprocess.run(argv, cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
