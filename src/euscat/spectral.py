"""Radial quadrature grids, the discretized Hamiltonian, and its semigroup.

The half-line k in [0, inf) is covered up to ``k_max`` by explicit
Gauss-Legendre panels (lo, hi, count); ``k_max`` is the last panel's upper
edge.  The rules are computed here with numpy alone, by Newton's method on
the Legendre recurrence, and cached per order; the covariance quadrature of
``euclidean_gf`` tiles its panels with the same rules.  Weights are plain dk
weights; the k^2 measure factor is applied by consumers (the descriptor
records this).  The Hamiltonian is symmetrized with square-root weights,

    H_ij = delta_ij k_i^2/m - coupling * sqrt(w_i) k_i g(k_i) sqrt(w_j) k_j g(k_j),

so its eigenvectors are orthonormal under the plain dot product and one
eigendecomposition serves every later evaluation of e^{-beta H}.  H is
diagonal plus rank one, diag(k^2/m) - coupling v v^T, so the scattering
pipeline never forms it: ``_rank_one_operator`` solves the secular equation
in O(N^2) work per iteration, where ``diagonalize``, kept for any dense
symmetric input such as ``discretize_h``, calls eigh at O(N^3); one
residual and orthogonality check accepts both.  A ``Semigroup`` is
e^{-beta H} in the eigenbasis: on eigen-coordinates c = U^T u it is the
elementwise product with the images e^{-beta E} of its one beta, so no
N x N function of H is ever formed.  ``semigroup_apply`` takes grid
coordinates u and applies a ``Semigroup`` between U^T and U; complex
vectors meet the real U through a zero-copy real view, so U is never
copied to complex.  Only the contractive direction beta >= 0 is exposed.
With an attractive coupling the spectrum dips below zero, so the upper
semigroup bound exceeds 1 by e^{-beta E_bound}; downstream polynomial
approximation widens its domain accordingly instead of shifting H.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

import numpy as np

from .errors import AccuracyError, ConfigError, DomainError, PreconditionError
from .model import SeparableModel, form_factor


@dataclass(frozen=True)
class GridSpec:
    """Panel layout for :func:`build_grid`: consecutive (lo, hi, count)
    triples that tile [0, k_max] contiguously, k_max being the last ``hi``."""

    panels: Sequence[Tuple[float, float, int]]


@dataclass(frozen=True)
class RadialGrid:
    """Quadrature nodes/weights on [0, k_max]; arrays are read-only."""

    nodes: np.ndarray
    weights: np.ndarray
    k_max: float
    descriptor: str

    def __post_init__(self) -> None:
        self.nodes.setflags(write=False)
        self.weights.setflags(write=False)

    @property
    def size(self) -> int:
        return self.nodes.size


# exp overflows past this exponent
_LOG_FLOAT_MAX = math.log(np.finfo(float).max)
# an eigendecomposition is rejected above ||HU - U diag(E)||_F / ||H||_F
_RESIDUAL_TOL = 1e-10
# or above ||U^T U - I||_F; Gu-Eisenstat vectors reach about N eps
_ORTHOGONALITY_TOL = 1e-10
# largest grid build_grid accepts: the eigensolver and its checks hold about
# five N x N float64 arrays, 40 N^2 bytes, 2.7 GB at this N; an n = 10^4
# t-scan layout has N = 5050-5130
_MAX_GRID_POINTS = 8192


def _real_product(matrix: np.ndarray, v: np.ndarray) -> np.ndarray:
    """matrix @ v for a real matrix and a real or complex vector or block.

    A complex operand is viewed as real with its real and imaginary parts in
    adjacent columns, so the product is one real GEMM and the matrix is never
    copied to complex.
    """
    v = np.asarray(v)
    if not np.iscomplexobj(v):
        return matrix @ v
    v = np.ascontiguousarray(v, dtype=complex)
    parts = v.reshape(v.shape[0], -1).view(np.float64)
    return (matrix @ parts).view(complex).reshape(v.shape)


@dataclass(frozen=True)
class SpectralOperator:
    """Eigendecomposition H = U diag(eigenvalues) U^T.

    ``residuals`` holds ||H u_a - E_a u_a|| of each eigenpair, in the units
    of the eigenvalues.
    """

    eigenvalues: np.ndarray
    vectors: np.ndarray
    residuals: np.ndarray

    def __post_init__(self) -> None:
        self.eigenvalues.setflags(write=False)
        self.vectors.setflags(write=False)
        self.residuals.setflags(write=False)

    @property
    def size(self) -> int:
        return self.eigenvalues.size

    def coordinates(self, v: np.ndarray) -> np.ndarray:
        """U^T v: the eigen-coordinates of a real or complex vector, or of the
        columns of a block, as one real matrix product."""
        return _real_product(self.vectors.T, v)


# Newton steps allowed per Gauss-Legendre rule; from Tricomi's guesses the
# orders up to 5120 stop after four or five
_MAX_NEWTON_STEPS = 20


def _legendre_pair(count: int, x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """P_{count-1}(x) and P_count(x) by the three-term recurrence."""
    p_prev, p = np.ones_like(x), x
    for j in range(2, count + 1):
        p_prev, p = p, ((2 * j - 1) * x * p - (j - 1) * p_prev) / j
    return p_prev, p


@functools.lru_cache(maxsize=256)
def _legendre_roots(count: int) -> Tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes (ascending) and weights of order ``count``,
    read-only.

    Newton's method on the three-term recurrence (Hale & Townsend, SIAM J.
    Sci. Comput. 35 (2013) A652) from Tricomi's guesses cos(pi(4k-1)/(4n+2)),
    for the nodes x >= 0 only; the other half is their mirror image, so the
    rule is exactly symmetric and the middle node of an odd order is 0.  The
    cost grows as the square of the order (about 0.1 s at 2560 nodes and
    0.25 s at 5120 on a 2-core VM), so a caller bounds the order before asking.
    """
    k = np.arange(1, (count + 1) // 2 + 1)
    x = np.cos(math.pi * (4 * k - 1) / (4 * count + 2))
    for _ in range(_MAX_NEWTON_STEPS):
        p_prev, p = _legendre_pair(count, x)
        # P_n' = n (P_{n-1} - x P_n) / ((1 - x)(1 + x))
        step = p * (1.0 - x) * (1.0 + x) / (count * (p_prev - x * p))
        x = x - step
        if np.max(np.abs(step)) <= 1e-15:
            break
    else:
        raise AccuracyError(
            f"Gauss-Legendre nodes of order {count} did not converge "
            f"in {_MAX_NEWTON_STEPS} Newton steps"
        )
    if count % 2:
        x[-1] = 0.0
    # the weights 2 / ((1 - x^2) P_n'(x)^2) at the returned nodes
    p_prev, p = _legendre_pair(count, x)
    w = 2.0 * (1.0 - x) * (1.0 + x) / (count * (p_prev - x * p)) ** 2
    half = count // 2
    x = np.concatenate([-x[:half], x[::-1]])
    w = np.concatenate([w[:half], w[::-1]])
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def _panel_nodes(
    lo: np.ndarray, hi: np.ndarray, counts: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Concatenated Gauss-Legendre nodes and weights, order ``counts[i]`` (an
    integer array) on each consecutive panel [lo[i], hi[i]]."""
    roots = [_legendre_roots(count) for count in counts.tolist()]
    mid = np.repeat(0.5 * (lo + hi), counts)
    half = np.repeat(0.5 * (hi - lo), counts)
    x = np.concatenate([x for x, _ in roots])
    w = np.concatenate([w for _, w in roots])
    return mid + half * x, half * w


def build_grid(spec: GridSpec) -> RadialGrid:
    """Gauss-Legendre grid on [0, k_max] per the panel layout in ``spec``."""
    panels = [tuple(p) for p in spec.panels]
    if not panels:
        raise ConfigError("panels list must not be empty")
    k_max = float(panels[-1][1])
    if not (math.isfinite(k_max) and k_max > 0):
        raise ConfigError(f"k_max must be positive and finite, got {k_max}")
    expected_lo = 0.0
    for lo, hi, count in panels:
        if not (lo < hi):
            raise ConfigError(f"panel ({lo}, {hi}) is not increasing")
        if abs(lo - expected_lo) > 1e-9 * k_max:
            raise ConfigError(f"panels must tile [0, k_max] contiguously; gap at {lo}")
        if not (math.isfinite(count) and count >= 1 and count == math.floor(count)):
            raise ConfigError(f"panel point count must be an integer >= 1, got {count}")
        expected_lo = hi
    desc = "+".join(f"GL[{lo:g},{hi:g}]x{int(n)}" for lo, hi, n in panels)
    lo, hi, counts = np.array(panels, dtype=float).T
    size = int(np.sum(counts))
    if size > _MAX_GRID_POINTS:
        raise AccuracyError(
            f"grid of N = {size} points would need about {40 * size**2 / 1e9:.3g} GB "
            f"in N x N arrays; the limit is N = {_MAX_GRID_POINTS} "
            f"({40 * _MAX_GRID_POINTS**2 / 1e9:.3g} GB)"
        )
    nodes, weights = _panel_nodes(lo, hi, counts.astype(int))
    return RadialGrid(
        nodes=nodes,
        weights=weights,
        k_max=k_max,
        descriptor=desc + "; plain dk weights (k^2 measure applied by consumers)",
    )


def _separable_terms(model: SeparableModel, grid: RadialGrid) -> Tuple[np.ndarray, np.ndarray]:
    """d and v of the discretized H = diag(d) - coupling v v^T:
    d_i = k_i^2/m and v_i = sqrt(w_i) k_i g(k_i)."""
    k = grid.nodes
    return k * k / model.mass, np.sqrt(grid.weights) * k * form_factor(model, k)


def discretize_h(model: SeparableModel, grid: RadialGrid) -> np.ndarray:
    """Symmetric matrix of H = k^2/m - coupling |g><g| in the weighted basis."""
    d, v = _separable_terms(model, grid)
    return np.diag(d) - model.coupling * np.outer(v, v)


def diagonalize(h: np.ndarray) -> SpectralOperator:
    """Full eigendecomposition with ascending eigenvalues, by eigh.

    The residual of each eigenpair is a row of U^T H - diag(E) U^T, which is
    (H u_a - E_a u_a)^T for symmetric H; ``_accepted_residuals`` checks it
    and the orthogonality of U, as for the rank-one solver.
    """
    h = np.asarray(h, dtype=float)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise PreconditionError(f"expected a square matrix, got shape {h.shape}")
    scale = np.linalg.norm(h)
    if np.linalg.norm(h - h.T) > 1e-12 * scale:
        raise PreconditionError("matrix must be symmetric")
    eigenvalues, vectors = np.linalg.eigh(h)
    rows = vectors.T @ h
    rows -= eigenvalues[:, None] * vectors.T
    return SpectralOperator(
        eigenvalues=eigenvalues,
        vectors=vectors,
        residuals=_accepted_residuals(rows, vectors.T, scale),
    )


def _accepted_residuals(rows: np.ndarray, u: np.ndarray, scale: float) -> np.ndarray:
    """||H u_a - E_a u_a|| of each eigenpair from the rows H u_a - E_a u_a
    of ``rows``, the eigenvectors u_a being the rows of ``u``: the one
    acceptance check of every eigendecomposition.

    ``AccuracyError`` rejects the decomposition unless the Frobenius norm of
    ``rows`` is within 1e-10 ``scale`` (||H||_F) and that of the eigenvectors'
    Gram matrix less I is within 1e-10.  The Gram matrix is formed in
    ``rows``, which is overwritten, so the check makes no N x N array.
    """
    # taken before the buffer is reused for the Gram matrix
    row_squares = np.einsum("ij,ij->i", rows, rows)
    residual = math.sqrt(np.sum(row_squares))
    if not residual <= _RESIDUAL_TOL * scale:
        raise AccuracyError(
            f"eigendecomposition residual {residual:.3e} exceeds "
            f"{_RESIDUAL_TOL:g} ||H||_F = {_RESIDUAL_TOL * scale:.3e}"
        )
    gram = np.matmul(u, u.T, out=rows)
    gram[np.diag_indices_from(gram)] -= 1.0
    drift = math.sqrt(np.einsum("ij,ij->", gram, gram))
    if not drift <= _ORTHOGONALITY_TOL:
        raise AccuracyError(
            f"eigenvectors: ||U^T U - I||_F = {drift:.3e} exceeds {_ORTHOGONALITY_TOL:g}"
        )
    return np.sqrt(row_squares)


_EPS = np.finfo(float).eps
# LAPACK dlaed2's deflation threshold, 8 eps of the problem's norm
_DEFLATION = 8.0 * _EPS
# dlaed4's iteration cap per secular root
_MAX_SECULAR_ITERATIONS = 30
# rows per block of the rank-one term of the residual check
_CHECK_ROWS = 64


def _between_poles(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """The root of c eta^2 - a eta + b = 0 between the two poles of a secular
    model, in the form that does not cancel against a."""
    disc = np.sqrt(np.abs(a * a - 4.0 * b * c))
    return np.where(a <= 0.0, (a - disc) / (2.0 * c), 2.0 * b / (a + disc))


def _secular_solve(d: np.ndarray, v: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Eigenvalues x (ascending) and eigenvectors, as the rows of U, of
    diag(d) + v v^T for strictly ascending d and v without zeros: the roots
    of the secular function f(x) = 1 + sum_j w_j / (d_j - x), w = v^2.

    Root a < K-1 lies in (d_a, d_{a+1}) and the last one in
    (d_{K-1}, d_{K-1} + sum(w)].  Each root is kept as pole + tau, the
    pole being the end of its interval nearer to it (by the sign of f at the
    midpoint; d_{K-1} for the last root), so d_j - x_a = (d_j - pole_a) -
    tau_a keeps full relative accuracy however close the root is to a pole.

    The interior roots take R.-C. Li's fixed-weight steps (LAPACK Working
    Note 89, as in dlaed4), vectorised over the roots: each steps to the root
    of a rational model with poles d_a and d_{a+1} that matches f and f',
    the origin's pole keeping its own weight.  On the 20 t-scan grids this
    needs 2.9 evaluations per root where the middle way alone needs 3.1, and
    it needs no split of f' by side, so one buffer serves the iteration.  The
    first guess solves the model with both poles of the interval exact and
    the rest frozen at the midpoint.  If |f| falls by less than 10x in a
    step, a root switches to the middle way, each pole carrying the part of
    f' from its side, and back again on the next such step.  Each of these
    models is a quadratic in the offset from the origin, solved between its
    poles by ``_between_poles`` (the other pole at -gap from an upper
    origin).  The last root has every pole on one side; from the midpoint of
    its interval, its model keeps the 1 and its own pole exact and fits one
    pole of free position to the others.  A step that leaves the bracket
    kept by the sign of f bisects it.  A root has converged when |f| is
    below the rounding bound of its evaluation,
    eps (8 sum_j |w_j/(d_j - x)| + 2 + |tau| f').

    The vectors are u_a ~ z / (d - x_a), with z recomputed from the roots
    (Gu & Eisenstat, SIAM J. Matrix Anal. Appl. 15 (1994) 1266),
    |z_j|^2 ~ prod_a (d_j - x_a) / prod_{i != j} (d_j - d_i), which makes them
    orthogonal to working accuracy.

    Each iteration is a row gather and four elementwise passes over a
    [root, pole] matrix and three matrix-vector products, on the roots still
    open (plus the split on the rows that switched).  All of it runs in two
    K x K buffers, the pole spacings and a work array whose rows are gathered
    from them: a fresh array per pass costs more in page faults than the
    pass itself.
    """
    k = d.size
    w = v * v
    gap = d[1:] - d[:-1]
    half = 0.5 * gap
    w_lo, w_up = w[:-1], w[1:]
    spacing = d[None, :] - d[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        # the interior roots: f at the midpoints picks the nearer pole, and
        # the model with the interval's two poles exact and the rest frozen
        # at the midpoint gives the first guess
        work = np.empty((k, k))
        mid = np.subtract(spacing[:-1], half[:, None], out=work[:-1])
        f_mid = 1.0 + np.divide(1.0, mid, out=mid) @ w
        lower = f_mid > 0.0
        # d of the interval's other pole, less d of the origin
        to_far = np.where(lower, gap, -gap)
        weight = np.where(lower, w_lo, w_up)
        c = f_mid + (w_lo - w_up) / half
        tau = _between_poles(c * to_far + w_lo + w_up, weight * to_far, c)
    lo = np.where(lower, 0.0, -half)
    hi = np.where(lower, half, 0.0)
    tau = np.where((tau != 0.0) & (lo <= tau) & (tau <= hi), tau, 0.5 * (lo + hi))
    # the last root is kept against d_{K-1}
    origin = np.append(np.where(lower, np.arange(k - 1), np.arange(1, k)), k - 1)

    rows = np.arange(k - 1)
    middle = np.zeros(k - 1, dtype=bool)
    previous = np.full(k - 1, np.nan)
    for _ in range(_MAX_SECULAR_ITERATIONS):
        if rows.size == 0:
            break
        t = tau[rows]
        # mode="raise" would buffer a copy of the gathered rows
        inv = np.take(spacing, origin[rows], axis=0, out=work[: rows.size], mode="clip")
        inv -= t[:, None]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            np.divide(1.0, inv, out=inv)
            f = 1.0 + inv @ w
            switched = middle[rows]
            if switched.any():
                # the part of f' from the poles above each root
                right = np.maximum(inv[switched], 0.0)
                upper_df = np.square(right, out=right) @ w
            size = np.abs(inv, out=inv) @ w
            df = np.square(inv, out=inv) @ w
            bound = _EPS * (8.0 * size + 2.0 + np.abs(t) * df)
            neg = f < 0.0
            lo_r = np.where(neg, t, lo[rows])
            hi_r = np.where(neg, hi[rows], t)
            done = (np.abs(f) <= bound) | (hi_r - lo_r <= 4.0 * _EPS * np.abs(t))
            # offsets d - x of the two poles: -t at the origin, far at the other;
            # the model c + weight/(-t - eta) + S/(far - eta) keeps the origin's
            # weight and fits S and c to f and f'
            far = to_far[rows] - t
            c = f - far * df + to_far[rows] * (weight[rows] / t / t)
            if switched.any():
                at_lower = lower[rows][switched]
                near, other = -t[switched], far[switched]
                d_lo = np.where(at_lower, near, other)
                d_up = np.where(at_lower, other, near)
                c[switched] = f[switched] - d_lo * (df[switched] - upper_df) - d_up * upper_df
            eta = _between_poles((far - t) * f + t * far * df, -t * far * f, c)
            eta = np.where(f * eta < 0.0, eta, -f / df)
            trial = t + eta
            inside = (trial > lo_r) & (trial < hi_r)
            eta = np.where(inside, eta, 0.5 * (np.where(neg, hi_r, lo_r) - t))
            slow = (f * previous[rows] > 0.0) & (np.abs(f) > 0.1 * np.abs(previous[rows]))
        middle[rows] ^= slow
        previous[rows] = f
        lo[rows], hi[rows] = lo_r, hi_r
        tau[rows] = np.where(done, t, t + eta)
        rows = rows[~done]
    else:
        if rows.size:
            raise AccuracyError(
                f"secular equation: {rows.size} of {k} roots not converged in "
                f"{_MAX_SECULAR_ITERATIONS} iterations"
            )

    # the last root, one row
    row = spacing[-1, :-1]
    w_near, w_rest = float(w[-1]), w[:-1]
    end = float(np.sum(w))
    t, lo_t, hi_t = 0.5 * end, 0.0, end
    for _ in range(_MAX_SECULAR_ITERATIONS):
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            rest = 1.0 / (row - t)
            psi = float(rest @ w_rest)
            dpsi = float((rest * rest) @ w_rest)
        f = 1.0 + psi - w_near / t
        df = dpsi + w_near / t / t
        if abs(f) <= _EPS * (8.0 * (1.0 - f) + 2.0 + t * df):
            break
        if t == end:
            end = math.nan  # the closed end of the bracket is tried once
        if f < 0.0:
            lo_t = t
        else:
            hi_t = t
        if hi_t - lo_t <= 4.0 * _EPS * t:
            break
        # the model 1 + s/(q - tau) - w_near/tau in the offset tau from
        # d_{K-1}, with the others lumped at q < 0, matching psi and psi';
        # solved for tau itself, not for a step, which would cancel against
        # t when the root is much nearer d_{K-1} than t is
        q = t + psi / dpsi if dpsi > 0.0 else 0.0
        b = q + psi * (q - t) + w_near
        c = w_near * q
        disc = math.sqrt(b * b - 4.0 * c)
        trial = 0.5 * (b + disc) if b > 0.0 else 2.0 * c / (b - disc)
        if trial >= hi_t == end:
            trial = end
        t = trial if lo_t < trial < hi_t or trial == end else 0.5 * (lo_t + hi_t)
    else:
        raise AccuracyError(
            f"secular equation: the largest of {k} roots not converged in "
            f"{_MAX_SECULAR_ITERATIONS} iterations"
        )
    tau = np.append(tau, t)

    delta = np.take(spacing, origin, axis=0, out=work, mode="clip")
    delta -= tau[:, None]
    np.fill_diagonal(spacing, 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.divide(delta, spacing, out=spacing)
        z = np.copysign(np.sqrt(np.abs(np.prod(ratio, axis=0))), v)
        u = np.divide(z, delta, out=delta)
        u /= np.sqrt(np.einsum("ij,ij->i", u, u))[:, None]
    return d[origin] + tau, u


def _rank_one_update(d: np.ndarray, v: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Eigenvalues x (ascending) and eigenvectors, as the rows of U, of
    diag(d) + v v^T for ascending d.

    Deflation follows LAPACK dlaed2 with tol = 8 eps max(|d|, ||v||^2):
    a component with |v_i| ||v|| <= tol keeps (d_i, e_i), and of two
    neighbouring poles whose v-rotation leaves an off-diagonal
    |(d_q - d_p) c s| <= tol the lower is rotated out with its own (d, e).
    The rest go to the secular solver.
    """
    n = d.size
    norm_v = math.sqrt(float(v @ v))
    tol = _DEFLATION * max(abs(d[0]), abs(d[-1]), norm_v * norm_v)
    kept = np.flatnonzero(np.abs(v) * norm_v > tol)
    dk, vk = d.copy(), v.copy()
    rotations = []
    vp, vq = v[kept[:-1]], v[kept[1:]]
    if np.any((d[kept[1:]] - d[kept[:-1]]) * np.abs(vp * vq) <= tol * (vp * vp + vq * vq)):
        survivors = []
        p = kept[0]
        for q in kept[1:].tolist():
            r = math.hypot(vk[p], vk[q])
            c, s = vk[q] / r, -vk[p] / r
            if abs((dk[q] - dk[p]) * c * s) <= tol:
                vk[p], vk[q] = 0.0, r
                dk[p], dk[q] = dk[p] * c * c + dk[q] * s * s, dk[p] * s * s + dk[q] * c * c
                rotations.append((p, q, c, s))
            else:
                survivors.append(p)
            p = q
        survivors.append(p)
        kept = np.array(survivors, dtype=int)
    if kept.size == n:
        return _secular_solve(d, v)

    eigenvalues, vectors = dk, np.eye(n)
    if kept.size:
        eigenvalues[kept], vectors[np.ix_(kept, kept)] = _secular_solve(dk[kept], vk[kept])
    # undo the rotations, last first, on the coordinates
    for p, q, c, s in reversed(rotations):
        col_p, col_q = vectors[:, p].copy(), vectors[:, q].copy()
        vectors[:, p] = c * col_p - s * col_q
        vectors[:, q] = s * col_p + c * col_q
    order = np.argsort(eigenvalues, kind="stable")
    return eigenvalues[order], vectors[order]


def _rank_one_operator(d: np.ndarray, v: np.ndarray, coupling: float) -> SpectralOperator:
    """Eigendecomposition of H = diag(d) - coupling v v^T for ascending d,
    without forming H: O(N^2) work per secular iteration where eigh of the
    dense H costs O(N^3).

    With s = sqrt(|coupling|) v, a repulsive coupling is diag(d) + s s^T and
    an attractive one is solved as -H = diag(-d) + s s^T in reversed order;
    at coupling 0 the deflation deflates every pole and gives (d, I).  The
    residual rows D U - coupling v (v^T U) - U diag(E), O(N^2) to form, go
    to ``_accepted_residuals`` with ||H||_F^2 = sum_i (d_i - coupling v_i^2)^2
    + coupling^2 (||v||^4 - sum_i v_i^4) in O(N); the operator keeps their
    row norms, the residuals of the eigenpairs.
    """
    d = np.asarray(d, dtype=float)
    v = np.asarray(v, dtype=float)
    if np.any(d[1:] < d[:-1]):
        raise PreconditionError("diagonal must be in ascending order")
    flip = coupling > 0.0
    # s s^T = |coupling| v v^T, without forming coupling v_i^2 on the way
    s = math.sqrt(abs(coupling)) * v
    ds, s = (-d[::-1], s[::-1]) if flip else (d, s)
    # solved and checked at unit scale, reached by an exact power of 4, so
    # that no product in the iteration or the checks under- or overflows
    exponent = math.frexp(max(abs(ds[0]), abs(ds[-1]), float(s @ s)))[1] // 2
    ds, s = np.ldexp(ds, -2 * exponent), np.ldexp(s, -exponent)
    x, u = _rank_one_update(ds, s)

    w = s * s
    scale = math.sqrt(np.sum((ds + w) ** 2) + max(np.sum(w) ** 2 - np.sum(w * w), 0.0))
    check = np.subtract(ds[None, :], x[:, None])
    check *= u
    # the rank-one term by blocks of rows, so no N x N outer product is formed
    us = u @ s
    for start in range(0, us.size, _CHECK_ROWS):
        check[start : start + _CHECK_ROWS] += np.outer(us[start : start + _CHECK_ROWS], s)
    rows = _accepted_residuals(check, u, scale)
    del check  # released before the flip copies U
    x = np.ldexp(x, 2 * exponent)
    rows = np.ldexp(rows, 2 * exponent)
    if flip:
        x, u, rows = -x[::-1], np.ascontiguousarray(u[::-1, ::-1]), rows[::-1]
    return SpectralOperator(eigenvalues=x, vectors=u.T, residuals=rows)


@dataclass(frozen=True)
class Semigroup:
    """e^{-beta H} for one finite beta > 0 in the eigenbasis of ``op``.

    ``apply`` takes eigen-coordinates c = U^T u (``op.coordinates``), where
    the semigroup is the elementwise product with the read-only images
    e^{-beta E}, formed once the bounds check passes; ``semigroup_apply`` is
    the same operator on grid coordinates.
    """

    op: SpectralOperator
    beta: float
    images: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.bounds()
        images = np.exp(-self.beta * self.op.eigenvalues)
        images.setflags(write=False)
        object.__setattr__(self, "images", images)

    def apply(self, c: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """e^{-beta H} on eigen-coordinates: images * c for a real or complex
        vector, or row-wise for an N x K block; written into ``out`` and
        returned when given, else a fresh array."""
        c = np.asarray(c)
        return np.multiply(self.images if c.ndim == 1 else self.images[:, None], c, out=out)

    def bounds(self) -> Tuple[float, float]:
        return semigroup_bounds(self.op, self.beta)


def semigroup_apply(op: SpectralOperator, beta: float, v: np.ndarray) -> np.ndarray:
    """e^{-beta H} v for v in grid coordinates: the ``Semigroup`` of beta,
    with its overflow check, between U^T and U, or the identity at beta = 0;
    beta must be finite and >= 0."""
    if not (math.isfinite(beta) and beta >= 0):
        raise DomainError(f"beta must be finite and >= 0, got {beta}")
    images = Semigroup(op, beta).images if beta > 0 else np.ones(op.size)
    coeffs = op.coordinates(v)
    if coeffs.ndim == 2:
        images = images[:, None]
    return _real_product(op.vectors, images * coeffs)


def semigroup_bounds(op: SpectralOperator, beta: float) -> Tuple[float, float]:
    """(smallest, largest) eigenvalue of e^{-beta H}.

    With a bound state present the upper bound exceeds 1 (by e^{-beta E_b});
    callers sizing a polynomial approximation domain must use these rather
    than assuming [0, 1].  A largest eigenvalue beyond the float range raises
    ``AccuracyError``.
    """
    if not (math.isfinite(beta) and beta > 0):
        raise DomainError(f"beta must be finite and > 0, got {beta}")
    e0 = float(op.eigenvalues[0])
    if not -beta * e0 <= _LOG_FLOAT_MAX:
        raise AccuracyError(
            f"semigroup bound e^(-beta E_0) with beta={beta:g}, E_0={e0:g} MeV "
            f"overflows: exponent {-beta * e0:.6g} > log(float max) = "
            f"{_LOG_FLOAT_MAX:.2f}"
        )
    return (
        float(np.exp(-beta * op.eigenvalues[-1])),
        float(np.exp(-beta * e0)),
    )
