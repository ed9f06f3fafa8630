"""Normalized-Laplacian spectral gap computation for regular multigraphs.

lambda1 is the second-smallest eigenvalue (with multiplicity) of
L = I - A/k, so it is 0 exactly when the graph is disconnected and the
zero eigenvalue has multiplicity equal to the component count.  Both
solvers share one flow.  A disconnected graph needs no solve: once no edge
is seen to leave its component, lambda1 = 0 with an exact kernel vector.
On a connected graph every row sum of A/k is checked to be 1, and the
components pass proves the constant vector the simple top eigenvector of
A/k, so it is deflated exactly: plain Lanczos on A/k restricted to 1-perp,
keeping no basis, has theta_2 as its top Ritz value and
lambda1 = 1 - theta_2.  A second pass of the same recurrence rebuilds the
Ritz vector, and a residual on the sparse A/k above the tolerance resumes
the recurrence instead of being reported (Paige 1976; Cullum and
Willoughby 1985).  The graph's size alone picks the solver: dense up to
``DENSE_CUTOFF`` vertices, iterative above.  The iterative solver reports a
residual of at most ``ITERATIVE_TOL`` within 10 N Lanczos steps.

The dense solver proves its value the bottom of the nonzero spectrum.  It
runs the same Lanczos to a residual of 1e-10, then shows by Cholesky that
M = L + 2 11^T / N - (lambda1 - 1e-9) I is positive definite.  M moves the
constant vector to eigenvalue 2, the top of L's spectrum, so success shows
that no eigenvalue of L on 1-perp lies below lambda1 - 1e-9; a Ritz value
never lies below the true lambda1, so the two are within 1e-9.  M is
factored on the blocks of a vertex permutation sigma that the graph's
builder knows (left multiplication by a generator on a Cayley graph, a
primitive root's scalar multiplication on a torsion graph), once sigma is
verified from the neighbor table alone: a bijection, all orbits of one
size h, and sigma(neighbors(u)) = neighbors(sigma(u)) as multisets.  The
characters of the cyclic group it generates split M into h blocks of
order n = N / h, of which the blocks j = 0..h/2 decide (the others are
their conjugates; Serre, Linear Representations of Finite Groups, section
7).  Without a symmetry, or if it fails a check, every vertex is its own
orbit: h = 1, and the one block is M.  Each block's upper triangle is
written straight from the neighbor table in LAPACK's rectangular full
packed format (about n^2/2 entries, n padded to even), and dpftrf or
zpftrf factors it in place at level-3 BLAS speed (Gustavson et al., ACM
TOMS 37(2), 2010).  SL2(F13)'s certificate is then 7 factorizations of
order 168 instead of one of order 2,184.  If Lanczos does not converge or
a block fails, a symmetric eigendecomposition (eigh) of the dense L
decides; no other path calls eigh.
"""

from __future__ import annotations

import csv
import json
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np
import scipy.linalg
from scipy.linalg import lapack
from scipy.linalg.blas import daxpy

from .graphs import MultiGraph, _components

DENSE_CUTOFF = 3000
ITERATIVE_TOL = 1e-6
_V0_SEED = 0x7A51
# Lanczos steps between Ritz checks, and the beta below which the Krylov
# space counts as invariant (A/k has norm 1)
_RITZ_CHECK = 8
_BREAKDOWN = 1e-12
# the dense path: the Lanczos residual it asks for, and how far below that
# value its Cholesky certificate proves the spectrum empty
_CERTIFIED_TOL = 1e-10
_CERTIFICATE_MARGIN = 1e-9

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


def _dense_laplacian(A) -> np.ndarray:
    """L = I - A as a dense array, with A the sparse A/k: negated in place,
    and += 0.0 turns the -0.0 zeros into +0.0.  L is exactly symmetric, so
    L.T is the same matrix in Fortran order."""
    L = A.toarray()
    np.negative(L, out=L)
    L += 0.0
    L.flat[:: L.shape[0] + 1] += 1.0
    return L


def _rfp_index(m: int, rows, cols) -> np.ndarray:
    """Positions of the upper-triangle entries (rows <= cols) of an
    even-order-m Hermitian matrix in LAPACK's rectangular full packed (RFP)
    array with TRANSR = 'N', UPLO = 'U': the (m + 1) x m/2 column-major
    array whose top holds columns m/2.. of the upper triangle and whose
    bottom rows hold columns ..m/2 - 1 conjugate-transposed."""
    h = m // 2
    return np.where(cols >= h, (cols - h) * (m + 1) + rows, rows * (m + 1) + h + 1 + cols)


def _rfp_cholesky(rfp: np.ndarray, m: int) -> bool:
    """True iff the Hermitian order-m matrix held in ``rfp`` is positive
    definite, by LAPACK's level-3 RFP Cholesky M = U^H U (dpftrf for a
    float64 buffer, zpftrf for a complex128 one), which overwrites ``rfp``
    with U and allocates nothing of its size."""
    pftrf = lapack.zpftrf if rfp.dtype.kind == "c" else lapack.dpftrf
    _, info = pftrf(m, rfp, overwrite_a=1)
    return info == 0


def _symmetry_orbits(graph: MultiGraph) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """The orbits of the graph's ``symmetry`` sigma, verified from the
    neighbor table alone, or the trivial ones, every vertex its own orbit
    with h = 1, if sigma is missing or fails a check.

    sigma must be a bijection of the N vertices whose orbits all have one
    size h, and sigma(neighbors(u)) must equal neighbors(sigma(u)) as
    multisets for every u, which is exactly sigma commuting with A.
    Returns the orbit representatives (each orbit's smallest vertex, in
    increasing order), each vertex's orbit and its exponent e, with vertex
    w = sigma^e(representative of w's orbit), and h."""
    sigma, nbrs = np.asarray(graph.symmetry), graph.neighbors
    n = graph.n_vertices
    trivial = np.arange(n), np.arange(n), np.zeros(n, dtype=np.int64), 1
    if sigma.shape != (n,) or sigma.dtype.kind not in "iu":
        return trivial
    if sigma.min() < 0 or sigma.max() >= n or np.bincount(sigma, minlength=n).max() != 1:
        return trivial
    if not np.array_equal(np.sort(sigma[nbrs], axis=1), np.sort(nbrs[sigma], axis=1)):
        return trivial
    # each cycle walked once from its smallest vertex
    perm = sigma.tolist()
    orbit, power, reps, sizes = [-1] * n, [0] * n, [], set()
    for v in range(n):
        if orbit[v] < 0:
            u, e = v, 0
            while orbit[u] < 0:
                orbit[u], power[u] = len(reps), e
                u, e = perm[u], e + 1
            reps.append(v)
            sizes.add(e)
    if len(sizes) > 1:
        return trivial
    return np.array(reps), np.array(orbit), np.array(power), sizes.pop()


def _blocks_cholesky(graph: MultiGraph, orbits, shift: float) -> bool:
    """True iff M = L + 2 11^T / N - shift I is positive definite, decided
    on the blocks that sigma's characters split it into (Serre, Linear
    Representations of Finite Groups, section 7).

    With omega = exp(2 pi i / h), the vectors phi_(c,j)(sigma^e r_c) =
    omega^(j e) / sqrt(h), one per orbit c and character j, are an
    orthonormal basis in which A is block diagonal: block j is the n x n
    matrix B_j[c, c'] = sum of omega^(j e(w)) over the neighbors w of r_c
    in orbit c', with n = N / h.  The constants are sqrt(h) times the sum
    of the phi_(c,0), so 2 11^T / N is 2 11^T / n in block 0 and 0 in the
    others.  Block h - j is the conjugate of block j, with the same
    spectrum, so j = 0..h/2 decide.  The trivial orbits give h = 1 and
    one block, M itself.

    Each block's upper triangle is written straight from the neighbor
    table in RFP (``_rfp_index``), an odd n padded to even by one identity
    row and column, so the stored matrix is positive definite iff the
    block is, and ``_rfp_cholesky`` factors it: a real block (j = 0, and
    j = h/2 for even h) as float64, a complex one as complex128."""
    reps, orbit, power, h = orbits
    n, k = reps.size, graph.degree
    m = n + n % 2
    nbrs = graph.neighbors[reps]
    rows, slots = np.nonzero(orbit[nbrs] >= np.arange(n)[:, np.newaxis])
    w = nbrs[rows, slots]
    cols = orbit[w]
    cell = _rfp_index(m, rows, cols)
    # the columns below m/2 are stored transposed, so a complex block holds
    # their conjugates, omega^(-j e)
    e = np.where(cols < m // 2, -power[w], power[w])
    diag = _rfp_index(m, np.arange(n), np.arange(n))
    pad = _rfp_index(m, np.arange(m), m - 1)
    roots = np.exp(2j * np.pi / h * np.arange(h))
    for j in range(h // 2 + 1):
        real = 2 * j % h == 0
        dtype = np.float64 if real else np.complex128
        rfp = np.full(m * (m + 1) // 2, 2.0 / n if j == 0 else 0.0, dtype=dtype)
        weights = roots[j * e % h] * (-1 / k)
        # unbuffered, so repeated cells sum with no temporary of rfp's size
        np.add.at(rfp, cell, weights.real if real else weights)
        rfp[diag] += 1.0 - shift
        if m > n:
            rfp[pad] = 0.0
            rfp[pad[-1]] = 1.0
        # the factor overwrites rfp, and neither outlives its block
        if not _rfp_cholesky(rfp, m):
            return False
        del rfp
    return True


def _lambda1_certified(graph: MultiGraph, A, n: int) -> tuple[float, float, np.ndarray]:
    """The dense lambda1 of a connected graph: the Lanczos value with a
    Cholesky certificate that it is the bottom of L's spectrum on 1-perp
    (``_blocks_cholesky``), or, when Lanczos does not converge or the
    certificate fails, eigh's."""
    try:
        lam, res, x = _lambda1_lanczos(A, n, _CERTIFIED_TOL, 10 * n)
        if _blocks_cholesky(graph, _symmetry_orbits(graph), lam - _CERTIFICATE_MARGIN):
            return lam, res, x
    except ConvergenceError:
        pass
    # eigh factors this one N x N array in place through its Fortran view,
    # with no copy; L is overwritten, so the residual uses the sparse A/k
    L = _dense_laplacian(A)
    w, V = scipy.linalg.eigh(L.T, subset_by_index=(0, 1), overwrite_a=True, check_finite=False)
    if abs(w[0]) > 1e-6:
        raise RuntimeError(f"kernel mismatch: connected graph but eigenvalue {w[0]} is not zero")
    lam, x = float(w[1]), V[:, 1]
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


def lambda1(graph: MultiGraph) -> SpectralReport:
    """Spectral gap report for one graph.

    A disconnected graph reports lambda1 = 0 with an exact kernel vector,
    and a ``RuntimeError`` ("kernel mismatch") is raised if an edge leaves
    its component or, on a connected graph, if a row sum of A/k is off 1 by
    more than 1e-12.  A connected graph of at most ``DENSE_CUTOFF``
    vertices gets solver "dense": a Lanczos value certified the bottom of
    the nonzero spectrum by Cholesky factorisations of the shifted
    Laplacian's packed n x n blocks: those of the graph's ``symmetry``
    where it passes its checks, else the one block n = N.  A symmetric
    eigendecomposition of the dense Laplacian decides where they fail or
    Lanczos does not converge.  A larger one gets "iterative":
    Lanczos on A/k restricted to the constant-free subspace, whose reported
    residual ||L x - lambda1 x|| / ||x|| is at most ``ITERATIVE_TOL``; past
    10 N steps ``ConvergenceError`` is raised.  The components are
    searched on the neighbor table (``graphs._components``) before the
    sparse A/k is built, and kept on the graph for ``graphs.components``.
    """
    if graph.degree < 1:
        raise ValueError("lambda1 requires degree k >= 1")
    if graph.n_vertices < 2:
        raise ValueError("lambda1 undefined for a single-vertex graph")
    solver = "dense" if graph.n_vertices <= DENSE_CUTOFF else "iterative"

    n, k = graph.n_vertices, graph.degree
    t0 = time.perf_counter()
    # the components come from the neighbor table, before the sparse A/k is
    # built: scaled in place, as scipy's A / k multiplies the data by 1 / k,
    # so every bit is the same
    comps = _components(graph.neighbors)
    zm = len(comps)
    A = graph.adjacency()
    A.data *= 1 / k
    if zm >= 2:
        # lambda1 is 0 with an exact kernel vector, once no edge is seen to
        # leave its component; no solve needed
        label = np.full(n, -1, dtype=np.int32)
        label[np.concatenate(comps)] = np.repeat(np.arange(zm), [c.size for c in comps])
        if not (label[graph.neighbors] == label[:, None]).all():
            raise RuntimeError(f"kernel mismatch: an edge leaves one of the {zm} components")
        lam, x = 0.0, _kernel_vector(n, comps)
        res = _residual(A, 0.0, x)
    else:
        # the deflation of 1 rests on every row sum of A/k being 1
        drift = float(np.abs(np.asarray(A.sum(axis=1)).ravel() - 1.0).max())
        if drift > 1e-12:
            raise RuntimeError(f"kernel mismatch: a row sum of A/k is off 1 by {drift}")
        if solver == "dense":
            lam, res, x = _lambda1_certified(graph, A, n)
        else:
            lam, res, x = _lambda1_lanczos(A, n, ITERATIVE_TOL, 10 * n)
    graph._comps = comps  # checked above, and kept for ``components``
    return SpectralReport(graph.label, n, k, lam, zm, solver, res, time.perf_counter() - t0, x)


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
    jobs: int | None = None,
) -> SweepResult:
    """Build and solve one graph per prime with ``lambda1``, concurrently
    unless there is one worker, in which case the primes run in the calling
    thread; a failure for one prime is recorded and the sweep continues.
    The reports carry no eigenvector, so no N-sized array outlives its
    prime."""
    if not primes:
        raise ValueError("need at least one prime")
    if jobs is not None and jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")

    def task(p: int) -> SpectralReport:
        report = lambda1(builder(p))
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
