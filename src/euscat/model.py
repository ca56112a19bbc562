"""Rank-one separable-potential model with closed-form scattering solutions.

The Hamiltonian is H = k^2/m - lambda |g><g| on the s-wave radial momentum
half-line with measure int_0^inf dk k^2 and form factor g(k) = 1/(mpi^2 + k^2).
Everything reduces to the resolvent matrix element of the free Hamiltonian
between form factors, which has Yamaguchi's closed form -pi/(4b (b+kappa)^2);
an independent principal-value quadrature route is kept alongside as a
cross-check.

Normalization conventions, used consistently by the wave-packet pipeline:

* ``coupling`` multiplies g(k) g(k') under the radial measure, so the
  bound-state and T-matrix denominators contain the *radial* integral
  I(z) = int_0^inf dk k^2 g(k)^2 / (z - k^2/m).
* :func:`resolvent_form_factor_element` returns the full three-dimensional
  element int d^3k g^2/(E +- i0 - k^2/m) = 4*pi*I(E +- i0); divide by 4*pi
  where the radial coupling convention is in force.
* The on-shell density is rho(E) = m k / 2 (from dk/dE = m/(2k) against the
  k^2 measure), hence S(k) = 1 - i*pi*m*k*t(k), unimodular for real coupling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy import integrate

from .errors import AccuracyError, DomainError

DEFAULT_MASS = 938.9
DEFAULT_MPI = 139.0
DEFAULT_BINDING = -2.2246

_QUAD_OPTS = {"epsabs": 1e-15, "epsrel": 1e-12, "limit": 400}


@dataclass(frozen=True)
class SeparableModel:
    """Physical constants of the toy Hamiltonian H = k^2/m - coupling |g><g|."""

    mass: float
    coupling: float
    mpi: float = DEFAULT_MPI

    def __post_init__(self) -> None:
        if not (math.isfinite(self.mass) and self.mass > 0):
            raise DomainError(f"mass must be positive and finite, got {self.mass}")
        if not (math.isfinite(self.mpi) and self.mpi > 0):
            raise DomainError(f"mpi must be positive and finite, got {self.mpi}")
        if not math.isfinite(self.coupling):
            raise DomainError(f"coupling must be finite, got {self.coupling}")


@dataclass(frozen=True)
class OnShellAmplitude:
    """On-shell scattering data at momentum k.

    ``s_matrix = 1 - i*pi*mass*k*t_on_shell`` and ``phase_shift = arg(S)/2``.
    """

    momentum: float
    t_on_shell: complex
    s_matrix: complex
    phase_shift: float


def form_factor(model: SeparableModel, k):
    """Form factor g(k) = 1/(mpi^2 + k^2), scalar or array; 0 where k^2 overflows."""
    with np.errstate(over="ignore"):
        return 1.0 / (model.mpi**2 + np.asarray(k, dtype=float) ** 2)


def _f_closed(zp, beta: float, side: str) -> np.ndarray:
    """F(z') = int_0^inf k^2 dk / [(k^2+b^2)^2 (z' - k^2)] = -pi / (4b (b+kappa)^2).

    Yamaguchi's closed form (Phys. Rev. 95, 1628 (1954)), b = beta, for real
    scalar or array ``zp``: kappa = sqrt(|z'|) for z' <= 0 and -+i sqrt(z') on
    ``side`` "above"/"below" for z' > 0, so |b + kappa| >= b and nothing cancels.
    kappa is set by its parts and -pi/(4b) divided twice by b + kappa, so an
    infinite |z'| gives the limit 0 where -1j*inf or (b + kappa)^2 give NaN.
    """
    zp = np.asarray(zp, dtype=float)
    root = np.sqrt(np.abs(zp))
    kappa = np.empty(zp.shape, dtype=complex)
    kappa.real = np.where(zp > 0.0, 0.0, root)
    kappa.imag = np.where(zp > 0.0, (-1.0 if side == "above" else 1.0) * root, 0.0)
    return (-math.pi / (4.0 * beta) / (beta + kappa) / (beta + kappa))[()]


def _radial_resolvent(model: SeparableModel, energy, side: str = "above"):
    """I(E +- i0) = int_0^inf dk k^2 g(k)^2 / (E +- i0 - k^2/m), for a scalar
    or an array of energies; an overflowing m*E gives the limit 0."""
    with np.errstate(over="ignore"):
        zp = model.mass * np.asarray(energy, dtype=float)
    return model.mass * _f_closed(zp, model.mpi, side)


def _radial_resolvent_quadrature(model: SeparableModel, energy: float, side: str) -> complex:
    m = model.mass
    zp = m * energy

    def integrand(k: float) -> float:
        g = 1.0 / (model.mpi**2 + k * k)
        return m * k * k * g * g / (zp - k * k)

    if energy == 0.0:

        def at_threshold(k: float) -> float:
            g = 1.0 / (model.mpi**2 + k * k)
            return -m * g * g

        val, _ = integrate.quad(at_threshold, 0.0, np.inf, **_QUAD_OPTS)
        return complex(val)
    if energy < 0.0:
        val, _ = integrate.quad(integrand, 0.0, np.inf, **_QUAD_OPTS)
        return complex(val)

    k_on = math.sqrt(zp)
    cut = 2.0 * k_on + 4.0 * model.mpi

    def cauchy_numerator(k: float) -> float:
        g = 1.0 / (model.mpi**2 + k * k)
        return -m * k * k * g * g / (k + k_on)

    principal, _ = integrate.quad(
        cauchy_numerator, 0.0, cut, weight="cauchy", wvar=k_on, **_QUAD_OPTS
    )
    tail, _ = integrate.quad(integrand, cut, np.inf, **_QUAD_OPTS)
    g_on = 1.0 / (model.mpi**2 + zp)
    residue = math.pi * (m * k_on / 2.0) * g_on * g_on
    imag = -residue if side == "above" else residue
    return complex(principal + tail, imag)


def resolvent_form_factor_element(
    model: SeparableModel,
    energy: float,
    side: str = "above",
    *,
    method: str = "closed_form",
) -> complex:
    """<g|(E +- i0 - H0)^-1|g> as a three-dimensional momentum integral.

    Equals 4*pi times the radial integral I(E +- i0).  ``side`` selects the
    boundary value approached from above or below the real axis; for E <= 0
    both sides coincide and the result is real.  ``method`` is either the
    closed form or an independent principal-value quadrature with explicit
    on-shell residue (the two must agree; tests enforce 1e-8 relative).
    """
    if side not in ("above", "below"):
        raise ValueError(f"side must be 'above' or 'below', got {side!r}")
    if isinstance(energy, complex):
        raise DomainError("energy must be real; boundary side is chosen via 'side'")
    if not math.isfinite(energy):
        raise DomainError(f"energy must be finite, got {energy}")
    if method == "closed_form":
        radial = _radial_resolvent(model, energy, side)
    elif method == "quadrature":
        radial = _radial_resolvent_quadrature(model, energy, side)
    else:
        raise ValueError(f"unknown method {method!r}")
    return 4.0 * math.pi * radial


def _on_shell(model: SeparableModel, k):
    """t(k) and S(k) as arrays, for scalar or array ``k``.

    With h = -coupling*g(k)/(1 + coupling*I(E+i0)), t = g h and
    S = 1 - pi*m*(k g)*(i h): pi*m*k never multiplies a vanishing t, and no
    product of two inexact complex numbers (which numpy's scalar and array
    loops round differently) enters S.  An overflowing k^2 gives t = 0, S = 1.
    """
    k = np.asarray(k, dtype=float)
    valid = (k > 0.0) & np.isfinite(k)
    if not np.all(valid):
        raise DomainError(
            f"momentum must be positive and finite, got {k[~valid].flat[0]}"
        )
    with np.errstate(over="ignore"):
        denom = 1.0 + model.coupling * _radial_resolvent(model, k * k / model.mass)
    vanished = np.abs(denom) < 1e-12
    if np.any(vanished):
        raise AccuracyError(
            f"T-matrix denominator vanished at k={k[vanished].flat[0]}; real "
            "coupling cannot place a pole on the physical sheet"
        )
    g = form_factor(model, k)
    h = -model.coupling * g / denom
    return g * h, 1.0 - math.pi * model.mass * (k * g) * (1j * h)


def exact_t_on_shell(model: SeparableModel, k):
    """On-shell half-line T-matrix t(k) = -coupling*g(k)^2 / (1 + coupling*I(E+i0)).

    The denominator uses the radial resolvent integral I = element/(4*pi);
    the result obeys Im t = -(pi*m*k/2)|t|^2, i.e. exact elastic unitarity.
    ``k`` is a scalar, giving a complex, or an array, giving an array.
    """
    t, _ = _on_shell(model, k)
    return complex(t) if t.ndim == 0 else t


def exact_s_on_shell(model: SeparableModel, k):
    """S(k) = 1 - i*pi*m*k*t(k); |S| = 1 for real coupling.  ``k`` is a
    scalar, giving a complex, or an array, giving an array."""
    _, s = _on_shell(model, k)
    return complex(s) if s.ndim == 0 else s


def on_shell_amplitude(model: SeparableModel, k: float) -> OnShellAmplitude:
    """Bundle t(k), S(k) and the phase shift arg(S)/2 at one momentum."""
    t, s = map(complex, _on_shell(model, k))
    delta = 0.5 * math.atan2(s.imag, s.real)
    return OnShellAmplitude(momentum=k, t_on_shell=t, s_matrix=s, phase_shift=delta)


def bound_state_energy(model: SeparableModel) -> Optional[float]:
    """Root E < 0 of 1 + coupling*I(E) = 0, or None when no bound state exists.

    The closed form of I makes it (b + sqrt(-m E))^2 = coupling*pi*m/(4b) with
    b = mpi, solved without cancellation or overflow as
    sqrt(-E) = (a - b^2/m) / (sqrt(a) + b/sqrt(m)), a = coupling*pi/(4b).
    """
    b, m = model.mpi, model.mass
    a = float(model.coupling) * (math.pi / (4.0 * b))
    if not math.isfinite(a):
        raise AccuracyError(f"bound state of coupling {model.coupling:g} overflows")
    excess = a - b * b / m
    if excess <= 0.0:
        return None
    return -((excess / (math.sqrt(a) + b / math.sqrt(m))) ** 2)


def critical_coupling(mass: float = DEFAULT_MASS, mpi: float = DEFAULT_MPI) -> float:
    """Coupling at which a zero-energy bound state first appears: 4*mpi^3/(pi*m)."""
    probe = SeparableModel(mass=mass, coupling=0.0, mpi=mpi)
    return -1.0 / _radial_resolvent(probe, 0.0, "above").real


def coupling_for_binding(
    mass: float = DEFAULT_MASS,
    binding: float = DEFAULT_BINDING,
    mpi: float = DEFAULT_MPI,
) -> float:
    """Coupling that places the bound state exactly at the given energy (< 0)."""
    if not (binding < 0.0 and math.isfinite(binding)):
        raise DomainError(f"binding energy must be negative, got {binding}")
    probe = SeparableModel(mass=mass, coupling=0.0, mpi=mpi)
    with np.errstate(all="ignore"):
        coupling = -1.0 / _radial_resolvent(probe, binding, "above").real
    if not math.isfinite(coupling):
        raise AccuracyError(f"coupling for binding {binding:g} MeV overflows")
    return coupling


def default_model() -> SeparableModel:
    """Deuteron-like defaults: m = 938.9, mpi = 139, bound state at -2.2246 MeV."""
    return SeparableModel(
        mass=DEFAULT_MASS,
        coupling=coupling_for_binding(DEFAULT_MASS, DEFAULT_BINDING, DEFAULT_MPI),
        mpi=DEFAULT_MPI,
    )
