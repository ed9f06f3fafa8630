"""Reference check of a workload's data outputs.

The reference outputs live in ``perfbench/reference/<workload>/``.  Integer
and string fields must match exactly; floating-point fields (``lambda1`` and
the values derived from it) must agree within ``FLOAT_TOL``, the
dense/iterative cross-agreement of acceptance criterion 2.  Fields that
depend on the solver's rounding or on the walk seed are checked against
invariants instead of values.  Every function returns a list of mismatch
messages; an empty list means the outputs are correct.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import re
from pathlib import Path

FLOAT_TOL = 1e-8
# spectra.ITERATIVE_TOL: a reported residual above it is a wrong answer
RESIDUAL_MAX = 1e-6
_INT = re.compile(r"-?\d+")


def _tv_ok(tv) -> bool:
    return isinstance(tv, float) and 0.0 <= tv <= 1.0


def _is_float(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def _compare_text(key: str, ref: str, out: str) -> bool:
    """One CSV cell or .dat token; ``key`` is its column name."""
    if key == "residual":
        return _is_float(out) and 0.0 <= float(out) <= RESIDUAL_MAX
    if key == "seconds":
        return out == "" if ref == "" else _is_float(out) and float(out) >= 0.0
    if key == "tv_checkpoints":
        # "step:tv;step:tv..." -- the steps are fixed, the tv values seeded
        ref_marks = [m.split(":") for m in ref.split(";")]
        out_marks = [m.split(":") for m in out.split(";")]
        return [m[0] for m in ref_marks] == [m[0] for m in out_marks] and all(
            len(m) == 2 and _is_float(m[1]) and _tv_ok(float(m[1])) for m in out_marks
        )
    if _INT.fullmatch(ref) or not _is_float(ref):
        return ref == out
    return _is_float(out) and math.isclose(float(ref), float(out), rel_tol=0, abs_tol=FLOAT_TOL)


def _tokens(path: Path) -> list[list[str]]:
    return [line.split() for line in path.read_text().splitlines()]


def _compare_json(ref, out, seed: int, where: str, key: str = "") -> list[str]:
    if key == "seed":
        ok = out == seed
    elif key == "tv_distance":
        ok = _tv_ok(out)
    elif key == "tv_checkpoints":
        ok = (
            isinstance(out, list)
            and all(isinstance(m, list) and len(m) == 2 for m in out)
            and [m[0] for m in ref] == [m[0] for m in out]
            and all(_tv_ok(m[1]) for m in out)
        )
    elif isinstance(ref, dict):
        if not isinstance(out, dict) or sorted(ref) != sorted(out):
            return [f"{where}: {out!r} does not have the keys {sorted(ref)}"]
        return [m for k in ref for m in _compare_json(ref[k], out[k], seed, f"{where}.{k}", k)]
    elif isinstance(ref, list):
        if not isinstance(out, list) or len(ref) != len(out):
            return [f"{where}: {out!r} != {ref!r}"]
        return [
            m
            for i, (r, o) in enumerate(zip(ref, out))
            for m in _compare_json(r, o, seed, f"{where}[{i}]", key)
        ]
    elif isinstance(ref, float):
        ok = isinstance(out, float) and math.isclose(ref, out, rel_tol=0, abs_tol=FLOAT_TOL)
    else:
        ok = type(ref) is type(out) and ref == out
    return [] if ok else [f"{where}: {out!r} != reference {ref!r}"]


def _compare_rows(ref_rows, out_rows, where: str, header: list[str] | None) -> list[str]:
    if len(ref_rows) != len(out_rows):
        return [f"{where}: {len(out_rows)} rows != reference {len(ref_rows)}"]
    bad = []
    for i, (r, o) in enumerate(zip(ref_rows, out_rows)):
        if len(r) != len(o):
            bad.append(f"{where} row {i}: {len(o)} fields != reference {len(r)}")
            continue
        keys = header if header is not None else [""] * len(r)
        for key, a, b in zip(keys, r, o):
            if not _compare_text(key, a, b):
                bad.append(f"{where} row {i} {key or 'field'}: {b!r} != reference {a!r}")
    return bad


def compare_file(ref: Path, out: Path, seed: int) -> list[str]:
    """Compare one output file with its reference by file type."""
    where = f"{out.parent.name}/{out.name}"
    if not out.exists():
        return [f"{where}: missing"]
    if ref.suffix == ".json":
        return _compare_json(json.loads(ref.read_text()), json.loads(out.read_text()), seed, where)
    if ref.suffix == ".csv":
        with open(ref, newline="") as fr, open(out, newline="") as fo:
            ref_rows, out_rows = list(csv.reader(fr)), list(csv.reader(fo))
        if not ref_rows or not out_rows or ref_rows[0] != out_rows[0]:
            return [f"{where}: header {out_rows[:1]} != reference {ref_rows[:1]}"]
        return _compare_rows(ref_rows[1:], out_rows[1:], where, ref_rows[0])
    if ref.suffix == ".dat":
        return _compare_rows(_tokens(ref), _tokens(out), where, None)
    return [] if ref.read_bytes() == out.read_bytes() else [f"{where}: bytes differ"]


def compare_dir(ref_dir: Path, out_dir: Path, seed: int) -> list[str]:
    """Compare the data files of one ``cli.run`` output directory; the
    manifest (timestamps) is not a data file."""
    ref_names = sorted(p.name for p in ref_dir.iterdir())
    out_names = sorted(p.name for p in out_dir.iterdir() if p.name != "manifest.json")
    bad = []
    if ref_names != out_names:
        bad.append(f"{out_dir.name}: files {out_names} != reference {ref_names}")
    for name in ref_names:
        bad += compare_file(ref_dir / name, out_dir / name, seed)
    return bad


def compare_digest(ref_digest: Path, out: Path) -> list[str]:
    """A binary output against the sha256 hex digest stored for it."""
    if not out.exists():
        return [f"{out.name}: missing"]
    got = hashlib.sha256(out.read_bytes()).hexdigest()
    want = ref_digest.read_text().split()[0]
    return [] if got == want else [f"{out.name}: sha256 {got} != reference {want}"]


def cli_lambda1_matches(spectra_csv: Path, comparison_csv: Path, prime: int) -> list[str]:
    """The lambda1 ``thinlab spectra --graph`` printed for the dumped Cayley
    graph against ``lambda1_cayley`` for the same prime in comparison.csv."""
    with open(spectra_csv, newline="") as fh:
        printed = float(list(csv.DictReader(fh))[0]["lambda1"])
    with open(comparison_csv, newline="") as fh:
        rows = [r for r in csv.DictReader(fh) if r["p"] == str(prime)]
    if len(rows) != 1:
        return [f"comparison.csv: no single row for p={prime}"]
    want = float(rows[0]["lambda1_cayley"])
    if math.isclose(printed, want, rel_tol=0, abs_tol=FLOAT_TOL):
        return []
    return [f"spectra --graph lambda1 {printed!r} != comparison.csv lambda1_cayley {want!r}"]
