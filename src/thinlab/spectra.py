"""Normalized-Laplacian spectral gap computation for regular multigraphs.

lambda1 is the second-smallest eigenvalue (with multiplicity) of
L = I - A/k, so it is 0 exactly when the graph is disconnected and the
zero eigenvalue has multiplicity equal to the component count.  The dense
path computes the bottom of the spectrum directly.  The iterative path
needs no deflation: a disconnected graph has lambda1 = 0 with an exact
kernel vector, and on a connected graph the components pass proves the top
eigenvalue 1 of A/k simple, so sparse Lanczos (ARPACK) on A/k for its two
largest eigenvalues gives lambda1 = 1 - theta_2.
"""

from __future__ import annotations

import csv
import json
import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np
import scipy.linalg
import scipy.sparse.linalg

from .graphs import MultiGraph, components

DENSE_CUTOFF = 3000
ITERATIVE_TOL = 1e-6
_V0_SEED = 0x7A51

CSV_FIELDS = ("graph_id", "N", "k", "lambda1", "zero_mult", "solver", "residual", "seconds")


class ConvergenceError(RuntimeError):
    """Iterative solve hit the iteration cap; carries the best estimate."""

    def __init__(self, best_estimate: float, residual: float, iterations: int):
        super().__init__(
            f"eigensolver did not converge after {iterations} iterations: "
            f"best lambda1 ~ {best_estimate}, residual {residual}"
        )
        self.best_estimate = best_estimate
        self.residual = residual
        self.iterations = iterations


@dataclass
class SpectralReport:
    graph_id: str
    n_vertices: int
    degree: int
    lambda1: float
    zero_multiplicity: int
    solver: str
    residual: float
    seconds: float
    eigenvector: np.ndarray | None = field(default=None, repr=False, compare=False)

    def csv_row(self, include_seconds: bool = True) -> list:
        return [
            self.graph_id,
            self.n_vertices,
            self.degree,
            repr(self.lambda1),
            self.zero_multiplicity,
            self.solver,
            repr(self.residual),
            repr(self.seconds) if include_seconds else "",
        ]


def _residual(A, lam: float, x: np.ndarray) -> float:
    """||L x - lam x|| / ||x|| for L = I - A, with A the sparse A/k."""
    return float(np.linalg.norm(x - A @ x - lam * x) / np.linalg.norm(x))


def _lambda1_dense(graph: MultiGraph, A, comps: list[np.ndarray]) -> tuple[float, float, np.ndarray]:
    n, k = graph.n_vertices, graph.degree
    # I - A/k in A's own array, bit for bit: += 0.0 turns the -0.0 zeros
    # into +0.0.  L is exactly symmetric, so L.T is the same matrix in
    # Fortran order and eigh factors this one N x N array in place, with no
    # copy; L is overwritten, so the residual uses the sparse A/k.
    L = graph.dense_adjacency()
    L /= -k
    L += 0.0
    L.flat[:: n + 1] += 1.0
    zm = len(comps)
    hi = min(max(zm, 1), n - 1)
    w, V = scipy.linalg.eigh(L.T, subset_by_index=(0, hi), overwrite_a=True, check_finite=False)
    if abs(w[zm - 1]) > 1e-6:
        raise RuntimeError(
            f"kernel mismatch: component count {zm} but eigenvalue {w[zm - 1]} is not zero"
        )
    # a disconnected graph's lambda1 is exactly 0, not eigh's rounding of it
    lam = 0.0 if zm >= 2 else float(w[1])
    x = V[:, 1]
    return lam, _residual(A, lam, x), x


def lambda1(
    graph: MultiGraph,
    method: str = "auto",
    tol: float | None = None,
    maxiter: int | None = None,
) -> SpectralReport:
    """Spectral gap report for one graph.

    method "dense" does a symmetric eigendecomposition of the bottom of the
    spectrum; "iterative" runs sparse Lanczos on A/k for its two largest
    eigenvalues (graphs with N <= 2, too small for ARPACK, are solved
    densely); "auto" is dense up to ``DENSE_CUTOFF`` vertices.
    """
    if graph.degree < 1:
        raise ValueError("lambda1 requires degree k >= 1")
    if graph.n_vertices < 2:
        raise ValueError("lambda1 undefined for a single-vertex graph")
    if method not in ("auto", "dense", "iterative"):
        raise ValueError(f"unknown method {method!r}")
    if method == "auto":
        method = "dense" if graph.n_vertices <= DENSE_CUTOFF else "iterative"

    comps = components(graph)
    zm = len(comps)
    n, k = graph.n_vertices, graph.degree
    t0 = time.perf_counter()

    A = graph.adjacency() / k
    if method == "dense" or n <= 2:
        lam, res, x = _lambda1_dense(graph, A, comps)
        return SpectralReport(graph.label, n, k, lam, zm, "dense", res, time.perf_counter() - t0, x)

    tol = ITERATIVE_TOL if tol is None else tol
    maxiter = 10 * n if maxiter is None else maxiter

    if zm >= 2:
        # second eigenvalue is another exact kernel vector; no solve needed
        x = np.zeros(n)
        x[comps[0]] = 1.0 / len(comps[0])
        x[comps[1]] = -1.0 / len(comps[1])
        x /= np.linalg.norm(x)
        res = _residual(A, 0.0, x)
        return SpectralReport(graph.label, n, k, 0.0, zm, "iterative", res, time.perf_counter() - t0, x)

    v0 = np.random.default_rng(_V0_SEED ^ n).standard_normal(n)
    try:
        # ARPACK stops at ||r|| <= tol * |theta| with |theta| <= 1
        theta, vecs = scipy.sparse.linalg.eigsh(A, k=2, which="LA", tol=tol, maxiter=maxiter, v0=v0)
    except scipy.sparse.linalg.ArpackNoConvergence as exc:
        best = 1.0 - float(min(exc.eigenvalues)) if len(exc.eigenvalues) == 2 else math.nan
        raise ConvergenceError(best, math.nan, maxiter) from exc
    if abs(theta[1] - 1.0) > 1e-6:
        raise RuntimeError(f"kernel mismatch: connected graph, top eigenvalue {theta[1]} of A/k")
    lam = 1.0 - float(theta[0])
    x = vecs[:, 0] - vecs[:, 0].mean()
    x /= np.linalg.norm(x)
    res = _residual(A, lam, x)
    return SpectralReport(graph.label, n, k, lam, zm, "iterative", res, time.perf_counter() - t0, x)


@dataclass
class SweepResult:
    """Per-prime reports in input order plus isolated failures."""

    reports: list[SpectralReport]
    errors: dict[int, str]

    @property
    def ok(self) -> bool:
        return not self.errors


def family_sweep(
    builder: Callable[[int], MultiGraph],
    primes: Sequence[int],
    method: str = "auto",
    jobs: int | None = None,
) -> SweepResult:
    """Build and solve one graph per prime, concurrently unless there is
    one worker, in which case the primes run in the calling thread; a
    failure for one prime is recorded and the sweep continues.  The reports
    carry no eigenvector, so no N-sized array outlives its prime."""
    if not primes:
        raise ValueError("need at least one prime")
    if jobs is not None and jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")

    def task(p: int) -> SpectralReport:
        report = lambda1(builder(p), method=method)
        report.eigenvector = None  # N floats per prime, read by no sweep caller
        return report

    reports: list[SpectralReport] = []
    errors: dict[int, str] = {}

    def collect(p: int, result: Callable[[], SpectralReport]) -> None:
        try:
            reports.append(result())
        except Exception as exc:  # noqa: BLE001 - isolate per prime
            errors[p] = f"{type(exc).__name__}: {exc}"

    workers = jobs or os.cpu_count() or 1
    if workers == 1:
        for p in primes:
            collect(p, lambda: task(p))
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [(p, pool.submit(task, p)) for p in primes]
            for p, fut in futures:
                collect(p, fut.result)
    return SweepResult(reports, errors)


@dataclass
class EsperantistFit:
    """Least-squares fit of lambda1 ~ c * (log N)^(-A), diagnostic only."""

    points: tuple[tuple[int, float], ...]
    c: float
    exponent: float
    residual_norm: float
    min_lambda1: float


def esperantist_fit(series: Iterable) -> EsperantistFit:
    """Fit log(lambda1) against log(log N) over the connected entries.

    Accepts (N, lambda1) pairs or SpectralReport objects; entries with
    lambda1 <= 0 are dropped, and at least three must remain.
    """
    pts = []
    for item in series:
        if isinstance(item, SpectralReport):
            pts.append((item.n_vertices, item.lambda1))
        else:
            n, lam = item
            pts.append((int(n), float(lam)))
    pts = [(n, lam) for n, lam in pts if lam > 0]
    if len(pts) < 3:
        raise ValueError(f"insufficient data: need >= 3 connected graphs, have {len(pts)}")
    if any(n < 2 for n, _ in pts):
        raise ValueError("vertex counts must be >= 2 for a log-log fit")
    x = np.log(np.log([n for n, _ in pts]))
    y = np.log([lam for _, lam in pts])
    if np.ptp(x) < 1e-12:
        # all vertex counts equal: the regressor is constant, fit is flat
        exponent, intercept = 0.0, float(np.mean(y))
    else:
        slope, intercept = np.polyfit(x, y, 1)
        exponent = -float(slope)
        if exponent < 0:
            # boundary of the constrained model: flat fit
            exponent = 0.0
            intercept = float(np.mean(y))
    resid = float(np.linalg.norm(y - (intercept - exponent * x)))
    return EsperantistFit(
        points=tuple(pts),
        c=float(np.exp(intercept)),
        exponent=exponent,
        residual_norm=resid,
        min_lambda1=min(lam for _, lam in pts),
    )


def write_reports_csv(reports: Sequence[SpectralReport], path, include_seconds: bool = True) -> None:
    """One CSV row per report: graph_id,N,k,lambda1,zero_mult,solver,residual,seconds.

    With include_seconds=False the column stays but the field is left empty,
    keeping harness outputs byte-identical across reruns.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_FIELDS)
        for r in reports:
            writer.writerow(r.csv_row(include_seconds=include_seconds))


def fit_to_json(fit: EsperantistFit) -> str:
    payload = {
        "model": "lambda1 ~ c * (log N)^(-A)",
        "c": fit.c,
        "exponent": fit.exponent,
        "residual_norm": fit.residual_norm,
        "min_lambda1": fit.min_lambda1,
        "points": [[n, lam] for n, lam in fit.points],
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def fit_from_json(text: str) -> EsperantistFit:
    payload = json.loads(text)
    return EsperantistFit(
        points=tuple((int(n), float(lam)) for n, lam in payload["points"]),
        c=float(payload["c"]),
        exponent=float(payload["exponent"]),
        residual_norm=float(payload["residual_norm"]),
        min_lambda1=float(payload["min_lambda1"]),
    )
