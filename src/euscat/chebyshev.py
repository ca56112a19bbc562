"""Chebyshev approximation of x -> e^{i*osc*x} on an interval, for scalars and
for the Euclidean semigroup.

With x = (a+b)/2 + t (b-a)/2 and z = osc*(b-a)/2, Jacobi-Anger gives the
coefficients c_j = 2 i^j J_j(z) e^{i*osc*(a+b)/2} of (1/2) c_0 T_0 +
sum_{j>=1} c_j T_j (Tal-Ezer & Kosloff, J. Chem. Phys. 81, 3967 (1984)).  As
|T_j| <= 1, the tail sum_{j>N} |c_j| bounds the uniform error at degree N.
From j0 = ceil(e|z|/2) on, DLMF 10.14.4 bounds |J_j(z)| by (|z|/2)^j / j! <=
(e|z|/2j)^j <= 1, falling by 1/e or more per step, so the |c_j| past j0 + 40
sum to below 2e^{-40}/(e-1) < 5e-18.  No tolerance below the rounding of the
phase osc*x itself, eps * max(1, |osc| * max(|a|, |b|)), is accepted.

Applied to e^{-beta H}, the forward recurrence builds the Chebyshev vectors
T_j(X) v of the rescaled operator X, one semigroup application under the
affine map and one subtraction per order: oscillatory functions of H through
contractive operations only.  As in the kernel polynomial method (Weisse et
al., Rev. Mod. Phys. 78, 275 (2006)), every series on one domain sums them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import List, NamedTuple, Sequence, Tuple

import numpy as np

from .errors import AccuracyError, ConfigError, DomainError, PreconditionError
from .spectral import Semigroup

_DOMAIN_SLACK = 1e-12
# each degree costs one semigroup application; at this degree one pass over
# one column in the eigenbasis of a 500-point grid takes 1.5-2.3 s
# (1.5-2.3 us per order on a 2-core VM)
_MAX_DEGREE = 1_000_000
_BLOCK = 32  # orders per product of a series' sum; _BLOCK x N vectors kept per column


def _negligible_from(z: float) -> int:
    return math.ceil(math.e * z / 2.0) + 40  # j0 + 40, see the module docstring


@dataclass(frozen=True)
class ChebyshevExpansion:
    """Coefficients c_0..c_degree of e^{i*oscillation*x} on ``domain``."""

    degree: int
    coefficients: np.ndarray
    domain: Tuple[float, float]
    oscillation: float

    def __post_init__(self) -> None:
        self.coefficients.setflags(write=False)


class _SeriesBlock(NamedTuple):
    """Expansions on one domain side by side: column m of ``coefficients``
    holds the m-th series, zero-padded to the largest degree; no series sums
    a Chebyshev vector of the padding above its own degree."""

    degree: int
    coefficients: np.ndarray
    domain: Tuple[float, float]


def _stacked(expansions: Sequence[ChebyshevExpansion]) -> _SeriesBlock:
    degree = max(exp.degree for exp in expansions)
    coefficients = np.zeros((degree + 1, len(expansions)), dtype=complex)
    for m, exp in enumerate(expansions):
        coefficients[: exp.degree + 1, m] = exp.coefficients
    return _SeriesBlock(degree, coefficients, expansions[0].domain)


@dataclass(frozen=True)
class ErrorReport:
    """Sampled approximation errors plus the dense-grid maximum."""

    rows: List[Tuple[float, float, float]]
    dense_max_cos: float
    dense_max_sin: float


def _checked(oscillation: float, domain: Tuple[float, float]) -> Tuple[float, float, float]:
    """a, b and z = oscillation * (b - a) / 2, with |z| within the degree limit."""
    a, b = float(domain[0]), float(domain[1])
    if not (math.isfinite(a) and math.isfinite(b) and a < b):
        raise DomainError(f"domain must be a finite interval with a < b, got {domain}")
    if not math.isfinite(oscillation):
        raise DomainError(f"oscillation must be finite, got {oscillation}")
    z = float(oscillation) * (b - a) / 2.0
    if not abs(z) <= _MAX_DEGREE:
        raise AccuracyError(f"degree estimate {abs(z):.3e} for oscillation {oscillation:g} "
                            f"on [{a:g}, {b:g}] exceeds the limit {_MAX_DEGREE}")
    return a, b, z


def _bessel_j(degree: int, z: float) -> np.ndarray:
    """J_0(z)..J_degree(z) for z >= 0 by Miller's backward recurrence (DLMF 3.6)
    on J_k/J_{k-1}, from max(degree, j0 + 40), normalised by J_0 + 2 sum J_2k = 1."""
    ratios = np.ones(max(degree, _negligible_from(z)) + 1)
    r = 0.0
    for k in range(ratios.size - 1, 0, -1):
        r = z / (2.0 * k - z * r)
        ratios[k] = r
    values = np.cumprod(ratios)
    return values[: degree + 1] / (1.0 + 2.0 * np.sum(values[2::2]))


def _jacobi_anger(
    oscillation: float, degree: int, a: float, b: float, z: float
) -> ChebyshevExpansion:
    # i^j J_j(z) = (i sgn z)^j J_j(|z|), exact powers: -osc gives exact conjugates
    unit = 1j if z >= 0 else -1j
    powers = np.array([1.0, unit, -1.0, -unit])[np.arange(degree + 1) % 4]
    coeffs = 2.0 * _bessel_j(degree, abs(z)) * (powers * np.exp(0.5j * oscillation * (a + b)))
    return ChebyshevExpansion(degree, coeffs, (a, b), float(oscillation))


def expansion_coefficients(
    oscillation: float, degree: int, domain: Tuple[float, float] = (0.0, 1.0)
) -> ChebyshevExpansion:
    """Jacobi-Anger coefficients c_0..c_degree of e^{i*oscillation*x} on [a, b].

    A degree above the limit raises ``AccuracyError`` before any allocation,
    as a degree estimate above it does.
    """
    if degree < 0:
        raise ValueError(f"degree must be >= 0, got {degree}")
    if degree > _MAX_DEGREE:
        raise AccuracyError(f"degree {degree} exceeds the limit {_MAX_DEGREE}")
    return _jacobi_anger(oscillation, degree, *_checked(oscillation, domain))


def evaluate_scalar(exp: ChebyshevExpansion, x):
    """Clenshaw evaluation at x (scalar or array); extrapolation is refused."""
    a, b = exp.domain
    slack = _DOMAIN_SLACK * (b - a)
    arr = np.asarray(x, dtype=float)
    if not np.all((arr >= a - slack) & (arr <= b + slack)):  # NaN fails too
        raise DomainError(f"evaluation point not in the expansion domain [{a}, {b}]")
    halved = exp.coefficients.copy()
    halved[0] *= 0.5
    value = np.polynomial.chebyshev.chebval((2.0 * arr - (a + b)) / (b - a), halved)
    return complex(value) if np.isscalar(x) or arr.ndim == 0 else value


def apply_to_semigroup(exp: ChebyshevExpansion, sg: Semigroup, v: np.ndarray) -> np.ndarray:
    """The expansion evaluated at the operator e^{-beta H}, applied to v.

    The forward recurrence t_0 = v, t_1 = X v, t_{j+1} = 2 X t_j - t_{j-1},
    with X = scale e^{-beta H} - shift mapping the spectrum onto [-1, 1],
    gives the Chebyshev vectors T_j(X) v in one ``sg.apply`` under the map
    X or 2X per order from 1 on: degree applications, never a function of
    the matrix.  v has ``sg.op.size`` rows in the coordinates ``sg.apply``
    takes; the spectrum must lie in the domain.  Each series sums (1/2) c_0
    t_0 + sum_j c_j t_j up to its last nonzero coefficient, one real product
    per block of ``_BLOCK`` orders from order 0.  A block of series
    (``_stacked``) has one series per column; a vector or one column v
    serves them all, an N x m block v gives each its own column.  A column
    ends as its own pass would, bit for bit.
    """
    a, b = exp.domain
    lo, hi = sg.bounds()
    slack = _DOMAIN_SLACK * (b - a)
    if lo < a - slack or hi > b + slack:
        raise PreconditionError(
            f"semigroup spectrum [{lo:.12g}, {hi:.12g}] is not contained in the "
            f"expansion domain [{a:.12g}, {b:.12g}]"
        )
    vec = np.asarray(v)
    c = exp.coefficients.reshape(exp.degree + 1, -1).T.copy()  # one writable row per series
    series, columns = c.shape[0], vec.shape[1] if vec.ndim == 2 else 1
    if vec.ndim not in (1, 2) or vec.shape[0] != sg.op.size or columns < 1 or (
            series > 1 and columns not in (1, series)):
        raise PreconditionError(f"v of shape {vec.shape} does not fit {series} series "
                                f"on an operator of size {sg.op.size}")
    c[:, 0] *= 0.5
    # output q: series q % series, summed up to its last nonzero order, on
    # column q % columns of v
    outputs = max(series, columns)
    tops = [np.max(np.flatnonzero(row), initial=0) for row in c]
    # each series' real and imaginary coefficients as two real rows: one real
    # product with the vectors' real views sums both parts and loads no complex
    # BLAS kernel, whose code cost a sweep about 0.3 MB of peak memory
    parts = np.stack([c.real, c.imag], axis=1)
    sums = np.zeros((outputs, 2, 2 * vec.shape[0]))
    # one block of Chebyshev vectors per column of v: t_j is row j % size
    size = min(_BLOCK, exp.degree + 1)
    ring = np.empty((columns, size, vec.shape[0]), dtype=complex)
    ring[:, 0] = vec.T
    steps = list(ring[0]) if columns == 1 else list(ring.transpose(1, 2, 0))
    scale, shift = 2.0 / (b - a), (a + b) / (b - a)
    if exp.degree:
        sg.apply(steps[0], steps[1], scale, shift)
    apply, scale2, shift2 = sg.apply, 2.0 * scale, 2.0 * shift
    for first in range(0, exp.degree + 1, size):
        last = min(first + size, exp.degree + 1)
        for j in range(max(first, 2), last):
            out = apply(steps[(j - 1) % size], steps[j % size], scale2, shift2)
            out -= steps[(j - 2) % size]
        for q in range(outputs):
            stop = min(last, tops[q % series] + 1)
            if stop > first:
                rows = ring[q % columns, : stop - first].view(float)
                sums[q] += parts[q % series, :, first:stop] @ rows
    values = sums[:, 0].view(complex) + 1j * sums[:, 1].view(complex)
    return values[0] if vec.ndim == 1 and exp.coefficients.ndim == 1 else values.T


def uniform_error_report(
    exp: ChebyshevExpansion, sample_count: int = 11
) -> ErrorReport:
    """Componentwise errors vs e^{i*osc*x} at equispaced points, plus the
    maximum over a dense 10^4-point grid."""
    if sample_count < 2:
        raise ConfigError(f"sample_count must be >= 2, got {sample_count}")
    a, b = exp.domain

    def errors(points: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        values = evaluate_scalar(exp, points)
        return (
            np.abs(values.real - np.cos(exp.oscillation * points)),
            np.abs(values.imag - np.sin(exp.oscillation * points)),
        )

    xs = np.linspace(a, b, sample_count)
    dcos, dsin = errors(xs)
    rows = [(float(x), float(c), float(s)) for x, c, s in zip(xs, dcos, dsin)]
    dense_cos, dense_sin = errors(np.linspace(a, b, 10_000))
    return ErrorReport(rows, float(np.max(dense_cos)), float(np.max(dense_sin)))


def _require_above_floor(tol: float, oscillation: float, a: float, b: float) -> None:
    """``AccuracyError`` when ``tol`` is below the rounding of the phase
    oscillation * x on [a, b], eps * max(1, |oscillation| * max(|a|, |b|))."""
    floor = np.finfo(float).eps * max(1.0, abs(oscillation) * max(abs(a), abs(b)))
    if tol < floor:
        raise AccuracyError(f"tol {tol:.3e} is below the rounding floor {floor:.3e} "
                            f"of the phase {oscillation:g} x on [{a:g}, {b:g}]")


def converged_expansion(
    oscillation: float, domain: Tuple[float, float], tol: float = 1e-12
) -> ChebyshevExpansion:
    """Lowest-degree expansion whose certified tail sum_{j>N} |c_j|, and so
    its uniform error up to rounding, is at most ``tol``."""
    a, b, z = _checked(oscillation, domain)
    if not (math.isfinite(tol) and tol > 0.0):
        raise DomainError(f"tol must be positive and finite, got {tol}")
    _require_above_floor(tol, oscillation, a, b)
    full = _jacobi_anger(oscillation, _negligible_from(abs(z)), a, b, z)
    # tails[N] = sum_{j>N} |c_j|; the uncomputed rest adds < 5e-18 < eps/40 <= tol/40
    tails = np.append(np.cumsum(np.abs(full.coefficients[:0:-1]))[::-1], 0.0)
    degree = int(np.argmax(tails + 5e-18 <= tol))
    return replace(full, degree=degree, coefficients=full.coefficients[: degree + 1].copy())
