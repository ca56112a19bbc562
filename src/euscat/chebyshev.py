"""Chebyshev approximation of x -> e^{i*osc*x} on an interval, for scalars and
for the Euclidean semigroup.

Coefficients come from interpolation at the degree+1 Chebyshev-Gauss nodes,

    c_j = 2/(N+1) * sum_k f(x(cos theta_k)) cos(j theta_k),
    theta_k = (2k+1) pi / (2(N+1)),

computed with a type-II DCT, and the series is evaluated as
(1/2) c_0 T_0 + sum_{j>=1} c_j T_j.  Since the target is entire, coefficients
decay super-exponentially once the degree passes |osc|*(b-a)/2, so uniform
errors at the 1e-13 level are reachable on any finite interval.

Applying the expansion to e^{-beta H} uses the Clenshaw recurrence with the
affinely rescaled operator as the argument; each recurrence step costs exactly
one semigroup application and nothing else, which is the point: oscillatory
functions of H are reached through contractive operations only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np
from scipy import fft

from .errors import AccuracyError, ConfigError, DomainError, PreconditionError
from .spectral import Semigroup

_DOMAIN_SLACK = 1e-12
# each degree costs one semigroup application; at this degree one Clenshaw
# pass on a 500-point grid already takes about a minute
_MAX_DEGREE = 1_000_000


@dataclass(frozen=True)
class ChebyshevExpansion:
    """Coefficients c_0..c_degree of e^{i*oscillation*x} on ``domain``."""

    degree: int
    coefficients: np.ndarray
    domain: Tuple[float, float]
    oscillation: float

    def __post_init__(self) -> None:
        self.coefficients.setflags(write=False)


@dataclass(frozen=True)
class ErrorReport:
    """Sampled approximation errors plus the dense-grid maximum."""

    rows: List[Tuple[float, float, float]]
    dense_max_cos: float
    dense_max_sin: float


def expansion_coefficients(
    oscillation: float, degree: int, domain: Tuple[float, float] = (0.0, 1.0)
) -> ChebyshevExpansion:
    """Interpolation coefficients of e^{i*oscillation*x} on [a, b]."""
    if degree < 0:
        raise ValueError(f"degree must be >= 0, got {degree}")
    a, b = float(domain[0]), float(domain[1])
    if not (math.isfinite(a) and math.isfinite(b) and a < b):
        raise DomainError(f"domain must be a finite interval with a < b, got {domain}")
    if not math.isfinite(oscillation):
        raise DomainError(f"oscillation must be finite, got {oscillation}")
    count = degree + 1
    theta = (2.0 * np.arange(count) + 1.0) * math.pi / (2.0 * count)
    x = a + (b - a) * (np.cos(theta) + 1.0) / 2.0
    samples = np.exp(1j * oscillation * x)
    coeffs = (fft.dct(samples.real, type=2) + 1j * fft.dct(samples.imag, type=2)) / count
    return ChebyshevExpansion(
        degree=degree, coefficients=coeffs, domain=(a, b), oscillation=float(oscillation)
    )


def _halved_leading(exp: ChebyshevExpansion) -> np.ndarray:
    c = exp.coefficients.copy()
    c[0] *= 0.5
    return c


def evaluate_scalar(exp: ChebyshevExpansion, x):
    """Clenshaw evaluation at x (scalar or array); extrapolation is refused."""
    a, b = exp.domain
    slack = _DOMAIN_SLACK * (b - a)
    arr = np.asarray(x, dtype=float)
    if np.any(arr < a - slack) or np.any(arr > b + slack):
        raise DomainError(
            f"evaluation point outside expansion domain [{a}, {b}]"
        )
    t = (2.0 * arr - (a + b)) / (b - a)
    value = np.polynomial.chebyshev.chebval(t, _halved_leading(exp))
    if np.isscalar(x) or arr.ndim == 0:
        return complex(value)
    return value


def apply_to_semigroup(exp: ChebyshevExpansion, sg: Semigroup, v: np.ndarray) -> np.ndarray:
    """The expansion evaluated at the operator e^{-beta H}, applied to v.

    Clenshaw recurrence in operator form: degree applications of the
    semigroup, never an explicit function of the matrix.  The semigroup
    spectrum must lie inside the expansion domain.
    """
    a, b = exp.domain
    lo, hi = sg.bounds()
    slack = _DOMAIN_SLACK * (b - a)
    if lo < a - slack or hi > b + slack:
        raise PreconditionError(
            f"semigroup spectrum [{lo:.12g}, {hi:.12g}] is not contained in the "
            f"expansion domain [{a:.12g}, {b:.12g}]"
        )
    vec = np.asarray(v, dtype=complex)
    scale = 2.0 / (b - a)
    shift = (a + b) / (b - a)

    def rescaled(u: np.ndarray) -> np.ndarray:
        return scale * sg.apply(u) - shift * u

    c = exp.coefficients
    b1 = np.zeros_like(vec)
    b2 = np.zeros_like(vec)
    for j in range(exp.degree, 0, -1):
        b1, b2 = c[j] * vec + 2.0 * rescaled(b1) - b2, b1
    return 0.5 * c[0] * vec + rescaled(b1) - b2


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
    return ErrorReport(
        rows=rows,
        dense_max_cos=float(np.max(dense_cos)),
        dense_max_sin=float(np.max(dense_sin)),
    )


def converged_expansion(
    oscillation: float, domain: Tuple[float, float], tol: float = 1e-12
) -> ChebyshevExpansion:
    """Expansion whose dense-grid error is below ``tol``, raising the degree
    in steps of 64 if the analytic estimate falls short."""
    a, b = domain
    estimate = abs(oscillation) * (b - a) / 2.0
    if not estimate + 96 <= _MAX_DEGREE:
        raise AccuracyError(
            f"degree estimate {estimate + 96:.3e} for oscillation {oscillation:g} on "
            f"[{a:g}, {b:g}] exceeds the limit {_MAX_DEGREE}"
        )
    n = int(estimate) + 96
    cap = n + 512
    while True:
        exp = expansion_coefficients(oscillation, n, domain)
        xs = np.linspace(a, b, 2048)
        err = np.max(np.abs(evaluate_scalar(exp, xs) - np.exp(1j * oscillation * xs)))
        if err <= tol:
            return exp
        if n >= cap:
            raise AccuracyError(
                f"degree {n} expansion still has uniform error {err:.3e} > {tol:.3e}"
            )
        n += 64
