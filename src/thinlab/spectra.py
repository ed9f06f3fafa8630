"""Normalized-Laplacian spectral gap computation for regular multigraphs.

lambda1 is the second-smallest eigenvalue (with multiplicity) of
L = I - A/k, so it is 0 exactly when the graph is disconnected and the
zero eigenvalue has multiplicity equal to the component count.  A
disconnected graph needs no solve: lambda1 = 0 with an exact kernel vector.
On a connected graph the components pass proves the constant vector the
simple top eigenvector of A/k, so the iterative path deflates it exactly:
plain Lanczos on A/k restricted to the constant-free subspace 1-perp,
keeping no basis, has theta_2 as its top Ritz value and
lambda1 = 1 - theta_2.  A second pass of the same recurrence rebuilds the
Ritz vector, and a residual on the sparse A/k above ``tol`` resumes the
recurrence instead of being reported (Paige 1976; Cullum and Willoughby
1985).

The dense path proves its value the bottom of the nonzero spectrum.  On a
connected graph it runs the same Lanczos to a residual of 1e-10, then
factors M = L + 2 11^T / N - (lambda1 - 1e-9) I by Cholesky.  M moves the
constant vector to eigenvalue 2, the top of L's spectrum, so success shows
that no eigenvalue of L on 1-perp lies below lambda1 - 1e-9; a Ritz value
never lies below the true lambda1, so the two are within 1e-9.  If Lanczos
does not converge or the factorisation fails, a symmetric
eigendecomposition (eigh) of L decides, as it does for every disconnected
graph.  ``tol`` and ``maxiter`` apply to the iterative path only.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np
import scipy.linalg
from scipy.linalg import lapack
from scipy.linalg.blas import daxpy, dtrsm

from .graphs import MultiGraph, components

DENSE_CUTOFF = 3000
ITERATIVE_TOL = 1e-6
_V0_SEED = 0x7A51
# Lanczos steps between Ritz checks, and the beta below which the Krylov
# space counts as invariant (A/k has norm 1)
_RITZ_CHECK = 8
_BREAKDOWN = 1e-12
# the dense path: the Lanczos residual it asks for, how far below that value
# its Cholesky certificate proves the spectrum empty, and the block width
_CERTIFIED_TOL = 1e-10
_CERTIFICATE_MARGIN = 1e-9
_CHOL_BLOCK = 64

# the solver choices lambda1 accepts
_METHODS = ("auto", "dense", "iterative")

CSV_FIELDS = ("graph_id", "N", "k", "lambda1", "zero_mult", "solver", "residual", "seconds")


class ConvergenceError(RuntimeError):
    """Iterative solve hit the step cap: carries 1 - the largest Ritz value
    so far and its last residual estimate, both finite."""

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


def _kernel_vector(n: int, comps: list[np.ndarray]) -> np.ndarray:
    """Unit kernel vector of L orthogonal to the constants: constant on the
    first two components, of opposite signs, zero elsewhere."""
    x = np.zeros(n)
    x[comps[0]] = 1.0 / len(comps[0])
    x[comps[1]] = -1.0 / len(comps[1])
    x /= np.linalg.norm(x)
    return x


def _dense_laplacian(graph: MultiGraph) -> np.ndarray:
    """L = I - A/k in A's own array, bit for bit: += 0.0 turns the -0.0
    zeros into +0.0.  L is exactly symmetric, so L.T is the same matrix in
    Fortran order."""
    n, k = graph.n_vertices, graph.degree
    L = graph.dense_adjacency()
    L /= -k
    L += 0.0
    L.flat[:: n + 1] += 1.0
    return L


def _cholesky_in_place(M: np.ndarray) -> bool:
    """True iff the symmetric C-order M is positive definite, by a
    left-looking blocked Cholesky M = U^T U that overwrites M's upper
    triangle with U.

    Block row j is updated from the finished rows above it by one matmul,
    its diagonal block is factored by dpotrf and the rest of the row is
    solved against that block, both panels in one reused _CHOL_BLOCK x N
    work array.  A dpotrf of the whole matrix touches several MB more of
    the BLAS library's own GEMM buffer, which no numpy allocation shows."""
    n = M.shape[0]
    work = np.empty(_CHOL_BLOCK * n)
    for j in range(0, n, _CHOL_BLOCK):
        e = min(j + _CHOL_BLOCK, n)
        if j:
            update = work[: (e - j) * (n - j)].reshape(e - j, n - j)
            np.matmul(M[:j, j:e].T, M[:j, j:], out=update)
            M[j:e, j:] -= update
        u, info = lapack.dpotrf(M[j:e, j:e])
        if info:
            return False
        M[j:e, j:e] = u
        if e < n:
            # U_jj^T X = B solved as X^T U_jj = B^T, in place in the
            # Fortran-order view of the work panel
            panel = work[: (e - j) * (n - e)].reshape(e - j, n - e)
            panel[...] = M[j:e, e:]
            dtrsm(1.0, u, panel.T, side=1, overwrite_b=1)
            M[j:e, e:] = panel
    return True


def _certified_lanczos(graph: MultiGraph, A) -> tuple[float, float, np.ndarray] | None:
    """The Lanczos lambda1 of a connected graph with a Cholesky certificate
    that it is the bottom of L's spectrum on 1-perp, or None when Lanczos
    does not converge or the certificate fails."""
    n = graph.n_vertices
    try:
        lam, res, x = _lambda1_lanczos(A, n, _CERTIFIED_TOL, 10 * n)
    except ConvergenceError:
        return None
    M = _dense_laplacian(graph)
    M += 2.0 / n
    M.flat[:: n + 1] -= lam - _CERTIFICATE_MARGIN
    return (lam, res, x) if _cholesky_in_place(M) else None


def _lambda1_dense(graph: MultiGraph, A, comps: list[np.ndarray]) -> tuple[float, float, np.ndarray]:
    n = graph.n_vertices
    zm = len(comps)
    if zm == 1:
        certified = _certified_lanczos(graph, A)
        if certified is not None:
            return certified
    # eigh factors this one N x N array in place through its Fortran view,
    # with no copy; L is overwritten, so the residual uses the sparse A/k
    L = _dense_laplacian(graph)
    if zm >= 2:
        # lambda1 is exactly 0 with a known kernel vector, so eigh only
        # checks the kernel's dimension and forms no eigenvectors, which
        # would be nearly N x N on a graph with many components
        w = scipy.linalg.eigh(
            L.T, eigvals_only=True, subset_by_index=(0, zm - 1), overwrite_a=True, check_finite=False
        )
    else:
        w, V = scipy.linalg.eigh(L.T, subset_by_index=(0, 1), overwrite_a=True, check_finite=False)
    if abs(w[zm - 1]) > 1e-6:
        raise RuntimeError(
            f"kernel mismatch: component count {zm} but eigenvalue {w[zm - 1]} is not zero"
        )
    lam, x = (0.0, _kernel_vector(n, comps)) if zm >= 2 else (float(w[1]), V[:, 1])
    return lam, _residual(A, lam, x), x


def _top_ritz(alpha: list[float], beta: list[float]) -> tuple[float, float, np.ndarray]:
    """Largest eigenvalue theta of the Lanczos tridiagonal T, its Ritz
    residual estimate |beta_m s_m| and its eigenvector s."""
    m = len(alpha)
    theta, s = scipy.linalg.eigh_tridiagonal(
        np.array(alpha), np.array(beta[:-1]), select="i", select_range=(m - 1, m - 1)
    )
    return float(theta[0]), abs(beta[-1] * float(s[-1, 0])), s[:, 0]


def _lanczos_step(A, q: np.ndarray, q_prev: np.ndarray | None, b_prev: float, alpha: float | None):
    """One three-term step on 1-perp: w = A q - mean - b_prev q_prev - alpha q.

    Subtracting the mean keeps rounding from growing the eigenvalue-1
    component back.  With ``alpha`` None it is computed as q . w; the second
    pass passes the stored value, so both passes produce the same floats.
    The updates are in-place BLAS axpys, which allocate no temporary."""
    w = A @ q
    w -= w.mean()
    if q_prev is not None:
        daxpy(q_prev, w, a=-b_prev)
    if alpha is None:
        alpha = float(q @ w)
    daxpy(q, w, a=-alpha)
    return w, alpha


def _ritz_vector(A, start: np.ndarray, alpha: list[float], beta: list[float], s: np.ndarray) -> np.ndarray:
    """x = Q s, rebuilding the Lanczos vectors q_1..q_m from the same start."""
    x = s[0] * start
    q_prev, q = None, start
    for j in range(len(s) - 1):
        w, _ = _lanczos_step(A, q, q_prev, beta[j - 1] if j else 0.0, alpha[j])
        w *= 1.0 / beta[j]
        daxpy(w, x, a=s[j + 1])
        q_prev, q = q, w
    return x


def _lambda1_lanczos(A, n: int, tol: float, maxiter: int) -> tuple[float, float, np.ndarray]:
    """lambda1 = 1 - theta_2 of a connected graph by two-pass Lanczos on A/k
    restricted to 1-perp, where theta_2 is the top eigenvalue.

    Pass one runs the recurrence keeping only q, q_prev and the alpha/beta
    lists, and checks the top Ritz pair's estimate every ``_RITZ_CHECK``
    steps; pass two rebuilds the Ritz vector.  A residual above ``tol``
    resumes pass one from its saved state."""
    start = np.random.default_rng(_V0_SEED ^ n).standard_normal(n)
    start -= start.mean()
    start /= np.linalg.norm(start)
    alpha: list[float] = []
    beta: list[float] = []
    q_prev, q = None, start
    while True:
        w, a = _lanczos_step(A, q, q_prev, beta[-1] if beta else 0.0, None)
        b = float(np.linalg.norm(w))
        alpha.append(a)
        beta.append(b)
        m = len(alpha)
        # beta ~ 0: the Krylov space is invariant and T's top eigenvalue exact
        breakdown = b <= _BREAKDOWN
        if breakdown or m % _RITZ_CHECK == 0 or m >= maxiter:
            theta, est, s = _top_ritz(alpha, beta)
            if breakdown or est <= tol:
                x = _ritz_vector(A, start, alpha, beta, s)
                est = _residual(A, 1.0 - theta, x)
                if est <= tol:
                    x /= np.linalg.norm(x)
                    return 1.0 - theta, est, x
            if breakdown or m >= maxiter:
                raise ConvergenceError(1.0 - theta, est, m)
        w *= 1.0 / b
        q_prev, q = q, w


def lambda1(
    graph: MultiGraph,
    method: str = "auto",
    tol: float | None = None,
    maxiter: int | None = None,
) -> SpectralReport:
    """Spectral gap report for one graph.

    method "dense" reports a Lanczos value certified the bottom of the
    nonzero spectrum by a Cholesky factorisation of the shifted dense
    Laplacian, with a symmetric eigendecomposition as the fallback;
    "iterative" runs Lanczos on A/k restricted to the constant-free
    subspace; "auto" is dense up to ``DENSE_CUTOFF`` vertices.  ``tol`` and
    ``maxiter`` apply to the iterative path only, and a bad value of either
    raises ``ValueError`` whatever the method.  ``tol`` (default
    ``ITERATIVE_TOL``, finite and > 0) bounds the reported residual
    ||L x - lambda1 x|| / ||x||, and ``maxiter`` (default 10 N, an int
    >= 1) bounds the Lanczos steps; past it ``ConvergenceError`` is raised.
    """
    if graph.degree < 1:
        raise ValueError("lambda1 requires degree k >= 1")
    if graph.n_vertices < 2:
        raise ValueError("lambda1 undefined for a single-vertex graph")
    if method not in _METHODS:
        raise ValueError(f"unknown method {method!r}")
    if tol is not None and not (isinstance(tol, numbers.Real) and math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and > 0, got {tol!r}")
    if maxiter is not None and (
        isinstance(maxiter, bool) or not isinstance(maxiter, numbers.Integral) or maxiter < 1
    ):
        raise ValueError(f"maxiter must be an int >= 1, got {maxiter!r}")
    if method == "auto":
        method = "dense" if graph.n_vertices <= DENSE_CUTOFF else "iterative"

    comps = components(graph)
    zm = len(comps)
    n, k = graph.n_vertices, graph.degree
    t0 = time.perf_counter()

    A = graph.adjacency() / k
    if method == "dense":
        lam, res, x = _lambda1_dense(graph, A, comps)
    elif zm >= 2:
        # lambda1 is 0 with an exact kernel vector; no solve needed
        lam, x = 0.0, _kernel_vector(n, comps)
        res = _residual(A, 0.0, x)
    else:
        # the deflation of 1 rests on every row sum of A/k being 1
        drift = float(np.abs(np.asarray(A.sum(axis=1)).ravel() - 1.0).max())
        if drift > 1e-12:
            raise RuntimeError(f"kernel mismatch: a row sum of A/k is off 1 by {drift}")
        tol = ITERATIVE_TOL if tol is None else tol
        maxiter = 10 * n if maxiter is None else maxiter
        lam, res, x = _lambda1_lanczos(A, n, tol, maxiter)
    return SpectralReport(graph.label, n, k, lam, zm, method, res, time.perf_counter() - t0, x)


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
