"""Radial quadrature grids, the discretized Hamiltonian, and its semigroup.

The half-line k in [0, inf) is truncated at ``k_max`` and covered by
Gauss-Legendre panels.  Weights are plain dk weights; the k^2 measure factor
is applied by consumers (the descriptor records this).  The Hamiltonian is
symmetrized with square-root weights,

    H_ij = delta_ij k_i^2/m - coupling * sqrt(w_i) k_i g(k_i) sqrt(w_j) k_j g(k_j),

so its eigenvectors are orthonormal under the plain dot product and one dense
diagonalization serves every later evaluation of e^{-beta H}.  Only the
contractive direction beta >= 0 is exposed.  With an attractive coupling the
spectrum dips below zero, so the upper semigroup bound exceeds 1 by
e^{-beta E_bound}; downstream polynomial approximation widens its domain
accordingly instead of shifting H.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np
from scipy.special import roots_legendre

from .errors import AccuracyError, ConfigError, DomainError, PreconditionError
from .model import SeparableModel, form_factor


@dataclass(frozen=True)
class GridSpec:
    """Parameters for :func:`build_grid`.

    Default layout is two panels split at 278 MeV (twice the default form
    factor range) with a quarter of the points below the split.  ``panels``
    overrides everything else with explicit (lo, hi, count) triples that must
    tile [0, k_max] contiguously.
    """

    points: int = 400
    k_max: float = 6000.0
    split: float = 278.0
    panels: Optional[Sequence[Tuple[float, float, int]]] = None


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


@dataclass(frozen=True)
class SpectralOperator:
    """Eigendecomposition H = U diag(eigenvalues) U^T; ``kind`` tags which
    operator it represents ("h" interacting, "h0" free)."""

    eigenvalues: np.ndarray
    vectors: np.ndarray
    kind: str

    def __post_init__(self) -> None:
        self.eigenvalues.setflags(write=False)
        self.vectors.setflags(write=False)

    @property
    def size(self) -> int:
        return self.eigenvalues.size

    def apply_images(self, images: np.ndarray, v: np.ndarray) -> np.ndarray:
        """U diag(images) U^T v: the function of H with values ``images`` at
        the eigenvalues, applied to a vector or to the columns of a matrix."""
        coeffs = self.vectors.T @ np.asarray(v)
        if coeffs.ndim == 2:
            images = images[:, None]
        return self.vectors @ (images * coeffs)


@functools.lru_cache(maxsize=256)
def _legendre_roots(count: int) -> Tuple[np.ndarray, np.ndarray]:
    # roots_legendre runs in linear time and memory even for large orders
    x, w = roots_legendre(count)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def _panel_nodes(lo: float, hi: float, count: int) -> Tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights of order ``count`` on [lo, hi]."""
    x, w = _legendre_roots(count)
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    return mid + half * x, half * w


def build_grid(spec: GridSpec = GridSpec()) -> RadialGrid:
    """Gauss-Legendre grid on [0, k_max] per the panel layout in ``spec``."""
    if not (math.isfinite(spec.k_max) and spec.k_max > 0):
        raise ConfigError(f"k_max must be positive and finite, got {spec.k_max}")
    if spec.panels is None:
        if spec.points < 16:
            raise ConfigError(f"points must be >= 16, got {spec.points}")
        if not (0.0 < spec.split < spec.k_max):
            raise ConfigError(
                f"split must lie strictly inside (0, k_max), got {spec.split}"
            )
        n_lo = max(16, spec.points // 4)
        panels = [
            (0.0, spec.split, n_lo),
            (spec.split, spec.k_max, spec.points - n_lo),
        ]
    else:
        panels = [tuple(p) for p in spec.panels]
    if not panels:
        raise ConfigError("panels list must not be empty")
    expected_lo = 0.0
    for lo, hi, count in panels:
        if not (lo < hi):
            raise ConfigError(f"panel ({lo}, {hi}) is not increasing")
        if abs(lo - expected_lo) > 1e-9 * spec.k_max:
            raise ConfigError(f"panels must tile [0, k_max] contiguously; gap at {lo}")
        if int(count) < 1:
            raise ConfigError(f"panel point count must be >= 1, got {count}")
        expected_lo = hi
    if abs(expected_lo - spec.k_max) > 1e-9 * spec.k_max:
        raise ConfigError(f"panels end at {expected_lo}, not k_max={spec.k_max}")
    desc = "+".join(f"GL[{lo:g},{hi:g}]x{int(n)}" for lo, hi, n in panels)
    parts = [_panel_nodes(float(lo), float(hi), int(n)) for lo, hi, n in panels]
    return RadialGrid(
        nodes=np.concatenate([nodes for nodes, _ in parts]),
        weights=np.concatenate([weights for _, weights in parts]),
        k_max=float(spec.k_max),
        descriptor=desc + "; plain dk weights (k^2 measure applied by consumers)",
    )


def discretize_h(model: SeparableModel, grid: RadialGrid) -> np.ndarray:
    """Symmetric matrix of H = k^2/m - coupling |g><g| in the weighted basis."""
    k = grid.nodes
    v = np.sqrt(grid.weights) * k * form_factor(model, k)
    h = np.diag(k * k / model.mass) - model.coupling * np.outer(v, v)
    return h


def diagonalize(h: np.ndarray, *, kind: str = "h") -> SpectralOperator:
    """Full eigendecomposition with ascending eigenvalues.

    The reconstruction U diag(E) U^T must match the input to 1e-10 relative
    in Frobenius norm, otherwise the decomposition is rejected.
    """
    if kind not in ("h", "h0"):
        raise ValueError(f"kind must be 'h' or 'h0', got {kind!r}")
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
    return SpectralOperator(eigenvalues=eigenvalues, vectors=vectors, kind=kind)


@dataclass(frozen=True)
class Semigroup:
    """The operator e^{-beta H} for one fixed beta > 0, ready to act on vectors."""

    op: SpectralOperator
    beta: float

    def __post_init__(self) -> None:
        if self.beta <= 0:
            raise DomainError(f"beta must be > 0, got {self.beta}")

    def apply(self, v: np.ndarray) -> np.ndarray:
        return semigroup_apply(self.op, self.beta, v)

    def bounds(self) -> Tuple[float, float]:
        return semigroup_bounds(self.op, self.beta)


def semigroup_apply(op: SpectralOperator, beta: float, v: np.ndarray) -> np.ndarray:
    """e^{-beta H} v through the eigenbasis; beta must be >= 0."""
    if beta < 0:
        raise DomainError(f"beta must be >= 0, got {beta}")
    return op.apply_images(np.exp(-beta * op.eigenvalues), v)


def semigroup_bounds(op: SpectralOperator, beta: float) -> Tuple[float, float]:
    """(smallest, largest) eigenvalue of e^{-beta H}.

    With a bound state present the upper bound exceeds 1 (by e^{-beta E_b});
    callers sizing a polynomial approximation domain must use these rather
    than assuming [0, 1].
    """
    if beta <= 0:
        raise DomainError(f"beta must be > 0, got {beta}")
    return (
        float(np.exp(-beta * op.eigenvalues[-1])),
        float(np.exp(-beta * op.eigenvalues[0])),
    )
