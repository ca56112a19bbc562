"""Radial quadrature grids, the discretized Hamiltonian, and its semigroup.

The half-line k in [0, inf) is covered up to ``k_max`` by explicit
Gauss-Legendre panels (lo, hi, count); ``k_max`` is the last panel's upper
edge.  Weights are plain dk weights; the k^2 measure factor is applied by
consumers (the descriptor records this).  The Hamiltonian is symmetrized
with square-root weights,

    H_ij = delta_ij k_i^2/m - coupling * sqrt(w_i) k_i g(k_i) sqrt(w_j) k_j g(k_j),

so its eigenvectors are orthonormal under the plain dot product and one dense
diagonalization serves every later evaluation of e^{-beta H}.  A
``Semigroup`` owns the dense real matrix U diag(e^{-beta E}) U^T of its one
beta, formed when it is constructed; complex vectors meet real matrices
through a zero-copy real view, so no matrix is ever copied to complex.  Only
the contractive direction beta >= 0 is exposed.  With an attractive coupling the
spectrum dips below zero, so the upper semigroup bound exceeds 1 by
e^{-beta E_bound}; downstream polynomial approximation widens its domain
accordingly instead of shifting H.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Sequence, Tuple

import numpy as np
from scipy.special import roots_legendre

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
    """Eigendecomposition H = U diag(eigenvalues) U^T."""

    eigenvalues: np.ndarray
    vectors: np.ndarray

    def __post_init__(self) -> None:
        self.eigenvalues.setflags(write=False)
        self.vectors.setflags(write=False)

    @property
    def size(self) -> int:
        return self.eigenvalues.size

    def apply_images(self, images: np.ndarray, v: np.ndarray) -> np.ndarray:
        """U diag(images) U^T v: the function of H with values ``images`` at
        the eigenvalues, applied to a vector or to the columns of a matrix."""
        coeffs = _real_product(self.vectors.T, v)
        if coeffs.ndim == 2:
            images = images[:, None]
        return _real_product(self.vectors, images * coeffs)


@functools.lru_cache(maxsize=256)
def _legendre_roots(count: int) -> Tuple[np.ndarray, np.ndarray]:
    # roots_legendre grows faster than linearly in the order (about 0.2 s at
    # 2000 nodes, 0.5 s at 4000, 2.8 s at 9305 and 6.2 s at 13798 on a 2-core
    # VM), so a caller bounds the order before asking
    x, w = roots_legendre(count)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def _panel_nodes(
    panels: Sequence[Tuple[float, float, int]],
) -> Tuple[np.ndarray, np.ndarray]:
    """Concatenated Gauss-Legendre nodes and weights, order ``count`` on each
    consecutive (lo, hi, count) panel."""
    lo, hi, counts = (np.array(column) for column in zip(*panels))
    counts = counts.astype(int)
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
    nodes, weights = _panel_nodes([(float(lo), float(hi), n) for lo, hi, n in panels])
    return RadialGrid(
        nodes=nodes,
        weights=weights,
        k_max=k_max,
        descriptor=desc + "; plain dk weights (k^2 measure applied by consumers)",
    )


def discretize_h(model: SeparableModel, grid: RadialGrid) -> np.ndarray:
    """Symmetric matrix of H = k^2/m - coupling |g><g| in the weighted basis."""
    k = grid.nodes
    v = np.sqrt(grid.weights) * k * form_factor(model, k)
    h = np.diag(k * k / model.mass) - model.coupling * np.outer(v, v)
    return h


def diagonalize(h: np.ndarray) -> SpectralOperator:
    """Full eigendecomposition with ascending eigenvalues.

    The reconstruction U diag(E) U^T must match the input to 1e-10 relative
    in Frobenius norm, otherwise the decomposition is rejected.
    """
    h = np.asarray(h, dtype=float)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise PreconditionError(f"expected a square matrix, got shape {h.shape}")
    scale = np.linalg.norm(h)
    if np.linalg.norm(h - h.T) > 1e-12 * scale:
        raise PreconditionError("matrix must be symmetric")
    eigenvalues, vectors = np.linalg.eigh(h)
    residual = np.linalg.norm((vectors * eigenvalues) @ vectors.T - h)
    if residual > 1e-10 * scale:
        raise AccuracyError(
            f"eigendecomposition residual {residual:.3e} exceeds 1e-10 * ||H|| "
            f"= {1e-10 * scale:.3e}"
        )
    return SpectralOperator(eigenvalues=eigenvalues, vectors=vectors)


@dataclass(frozen=True)
class Semigroup:
    """e^{-beta H} for one finite beta > 0 as the read-only dense matrix
    U diag(e^{-beta E}) U^T, formed once the bounds check passes."""

    op: SpectralOperator
    beta: float
    matrix: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.bounds()
        u = self.op.vectors
        matrix = (u * np.exp(-self.beta * self.op.eigenvalues)) @ u.T
        matrix.setflags(write=False)
        object.__setattr__(self, "matrix", matrix)

    def apply(self, v: np.ndarray) -> np.ndarray:
        """e^{-beta H} v as one real matrix product with ``matrix``; v is a
        real or complex vector or N x K block."""
        return _real_product(self.matrix, v)

    def bounds(self) -> Tuple[float, float]:
        return semigroup_bounds(self.op, self.beta)


def semigroup_apply(op: SpectralOperator, beta: float, v: np.ndarray) -> np.ndarray:
    """e^{-beta H} v through the eigenbasis; beta must be finite and >= 0,
    and a beta > 0 whose bound e^{-beta E_0} overflows raises
    ``AccuracyError``."""
    if not (math.isfinite(beta) and beta >= 0):
        raise DomainError(f"beta must be finite and >= 0, got {beta}")
    if beta > 0:
        semigroup_bounds(op, beta)
    return op.apply_images(np.exp(-beta * op.eigenvalues), v)


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
