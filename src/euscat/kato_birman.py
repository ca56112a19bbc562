"""Scattering through the invariance principle: S-matrix elements from
contractive semigroup applications only.

The pipeline computes wave-packet overlaps

    <psi' | e^{-i n exp(-beta H0)} e^{2 i n exp(-beta H)} e^{-i n exp(-beta H0)} | psi>,

which converge to the S-matrix element as n grows, because replacing a
Hamiltonian pair (H, H0) by (-e^{-beta H}, -e^{-beta H0}) leaves the wave
operators unchanged for any beta > 0.  The free factors are elementwise
phases on the momentum grid; the interacting factor is a Chebyshev polynomial
in e^{-beta H} applied by Clenshaw recurrence.  No e^{iHt} ever appears in the
approximant; the real-time propagator shows up only in a cross-check oracle.

Conventions: S(k) = 1 - i pi m k t(k), energy density rho(E) = m k / 2.
The sharp amplitude comes from the quotient

    t(k0) ~= (<psi|psi> - overlap) / (2 pi i <psi| delta(E - E') |psi>),

with <psi|delta(E-E')|psi> = sum_i w_i k_i^2 |psi_i|^2 (m k_i / 2), the unique
energy-shell weight for which the quotient reproduces t for narrow packets.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Sequence

import numpy as np

from .chebyshev import (
    ChebyshevExpansion,
    apply_to_semigroup,
    converged_expansion,
    expansion_coefficients,
)
from .errors import ConfigError, DomainError, PreconditionError
from .model import (
    DEFAULT_MASS,
    SeparableModel,
    exact_s_on_shell,
    exact_t_on_shell,
)
from .spectral import (
    GridSpec,
    RadialGrid,
    Semigroup,
    SpectralOperator,
    build_grid,
    diagonalize,
    discretize_h,
)


@dataclass(frozen=True)
class WavePacket:
    """Gaussian momentum packet sampled on a radial grid.

    ``values`` holds the profile psi(k_i); norms and overlaps always carry the
    k^2 measure, sum_i w_i k_i^2 |psi_i|^2.  ``mass`` fixes the energy
    representation E = k^2/mass with Jacobian dk/dE = mass/(2k).
    """

    center: float
    width: float
    mass: float
    grid: RadialGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        self.values.setflags(write=False)

    def weighted(self) -> np.ndarray:
        """Components in the orthonormal grid basis, sqrt(w_i) k_i psi_i."""
        return np.sqrt(self.grid.weights) * self.grid.nodes * self.values

    def energy_jacobian(self) -> np.ndarray:
        return self.mass / (2.0 * self.grid.nodes)


@dataclass(frozen=True)
class KBConfig:
    """Knobs of the invariance-principle approximant.

    ``beta=None`` switches to the scale-aware choice beta_x * m / k0^2, which
    keeps e^{-beta E(k0)} = e^{-beta_x} at every packet center.  ``degree``
    forces a fixed Chebyshev degree (otherwise the expansion is refined until
    its uniform error is below 1e-12).  ``sigma=None`` means k0/10.
    """

    n: int = 250
    beta: Optional[float] = 5e-4
    beta_x: float = 0.5
    degree: Optional[int] = None
    sigma: Optional[float] = None
    grid: Optional[GridSpec] = None

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ConfigError(f"n must be >= 1, got {self.n}")
        if self.beta is not None and not (self.beta > 0):
            raise ConfigError(f"beta must be > 0, got {self.beta}")
        if not (self.beta_x > 0):
            raise ConfigError(f"beta_x must be > 0, got {self.beta_x}")
        if self.degree is not None and self.degree < 0:
            raise ConfigError(f"degree must be >= 0, got {self.degree}")
        if self.sigma is not None and not (self.sigma > 0):
            raise ConfigError(f"sigma must be > 0, got {self.sigma}")


class SMatrixEstimate(NamedTuple):
    momentum: float
    s_approx: complex
    s_exact: complex
    t_approx: complex
    t_exact: complex
    rel_err_s: float
    rel_err_t: float


class SweepRow(NamedTuple):
    n: int
    re_approx: float
    im_approx: float
    re_exact: float
    im_exact: float
    rel_err: float


def beta_for(k0: float, mass: float = DEFAULT_MASS, x: float = 0.5) -> float:
    """beta with e^{-beta E(k0)} = e^{-x}: keeps the phase profile of the
    approximant invariant under rescaling of the packet momentum."""
    if not (k0 > 0 and mass > 0 and x > 0):
        raise DomainError(f"k0, mass, x must be positive, got {k0}, {mass}, {x}")
    return x * mass / (k0 * k0)


def packet_grid_spec(
    k0: float,
    sigma: float,
    n: int,
    beta: float,
    k_max: float = 6000.0,
    mass: float = DEFAULT_MASS,
) -> GridSpec:
    """Panel layout resolving both the packet and the approximant's phases.

    The integrands carry oscillations up to phi(k) = 2n e^{-beta k^2/mass},
    so each panel gets about one Gauss-Legendre node per two radians of phase
    variation, plus a safety margin; the packet panel spans k0 +- 8 sigma.
    """
    if k0 + 8.0 * sigma > k_max:
        raise ConfigError(
            f"k_max={k_max} cannot cover the packet; need at least {k0 + 8.0 * sigma}"
        )

    def phase(k: float) -> float:
        return 2.0 * n * math.exp(-beta * k * k / mass)

    lo = max(0.0, k0 - 8.0 * sigma)
    hi = k0 + 8.0 * sigma
    panels = []
    if lo > 1e-9 * k_max:
        n_low = max(48, int(abs(phase(0.0) - phase(lo)) / 2.0) + 32)
        panels.append((0.0, lo, n_low))
    else:
        lo = 0.0
    n_mid = max(192, int(abs(phase(lo) - phase(hi)) / 2.0) + 96)
    panels.append((lo, hi, n_mid))
    n_high = max(96, int(abs(phase(hi) - phase(k_max)) / 2.0) + 64)
    panels.append((hi, k_max, n_high))
    total = sum(p[2] for p in panels)
    return GridSpec(points=total, k_max=k_max, panels=panels)


def make_packet(
    k0: float, sigma: float, grid: RadialGrid, mass: float = DEFAULT_MASS
) -> WavePacket:
    """Unit-norm Gaussian profile exp(-(k-k0)^2/(4 sigma^2)) on the grid."""
    if not (k0 > 0 and math.isfinite(k0)):
        raise DomainError(f"k0 must be positive and finite, got {k0}")
    if not (sigma > 0 and math.isfinite(sigma)):
        raise DomainError(f"sigma must be positive and finite, got {sigma}")
    if sigma > k0 / 4.0:
        raise PreconditionError(
            f"packet width sigma={sigma} too large for center k0={k0}; "
            "need sigma <= k0/4 so the profile is negligible at k=0"
        )
    if k0 + 8.0 * sigma > grid.k_max:
        raise ConfigError(
            f"grid k_max={grid.k_max} does not cover the packet; "
            f"need k_max >= {k0 + 8.0 * sigma}"
        )
    profile = np.exp(-((grid.nodes - k0) ** 2) / (4.0 * sigma * sigma))
    norm = math.sqrt(np.sum(grid.weights * grid.nodes**2 * profile**2))
    return WavePacket(
        center=float(k0),
        width=float(sigma),
        mass=float(mass),
        grid=grid,
        values=profile / norm,
    )


def _require_shared_grid(psi_prime: WavePacket, psi: WavePacket) -> RadialGrid:
    same = psi_prime.grid is psi.grid or (
        np.array_equal(psi_prime.grid.nodes, psi.grid.nodes)
        and np.array_equal(psi_prime.grid.weights, psi.grid.weights)
    )
    if not same:
        raise PreconditionError("packets must live on the same grid")
    return psi.grid


def packet_overlap(psi_prime: WavePacket, psi: WavePacket) -> complex:
    """<psi'|psi> = sum_i w_i k_i^2 conj(psi'_i) psi_i."""
    _require_shared_grid(psi_prime, psi)
    return complex(np.vdot(psi_prime.weighted(), psi.weighted()))


def _resolve_beta(model: SeparableModel, cfg: KBConfig, k0: float) -> float:
    if cfg.beta is not None:
        return cfg.beta
    return beta_for(k0, model.mass, cfg.beta_x)


def _hamiltonian(
    model: SeparableModel, grid: RadialGrid, op: Optional[SpectralOperator]
) -> SpectralOperator:
    if op is None:
        return diagonalize(discretize_h(model, grid))
    if op.size != grid.size:
        raise PreconditionError(
            f"operator size {op.size} does not match grid size {grid.size}"
        )
    return op


def kb_s_overlap(
    model: SeparableModel,
    cfg: KBConfig,
    psi_prime: WavePacket,
    psi: WavePacket,
    *,
    op: Optional[SpectralOperator] = None,
    propagator: str = "chebyshev",
) -> complex:
    """The invariance-principle S-matrix overlap at parameter n.

    ``propagator`` selects how e^{2 i n exp(-beta H)} acts: "chebyshev" is the
    production path (polynomial in the semigroup); "exact" evaluates the
    spectral mapping directly and exists to isolate the polynomial layer's
    error in tests.
    """
    grid = _require_shared_grid(psi_prime, psi)
    beta = _resolve_beta(model, cfg, psi.center)
    operator = _hamiltonian(model, grid, op)
    free_phase = np.exp(-1j * cfg.n * np.exp(-beta * grid.nodes**2 / model.mass))
    v = free_phase * psi.weighted()
    if propagator == "chebyshev":
        sg = Semigroup(op=operator, beta=beta)
        _, hi = sg.bounds()
        if cfg.degree is not None:
            expansion = expansion_coefficients(2.0 * cfg.n, cfg.degree, (0.0, hi))
        else:
            expansion = converged_expansion(2.0 * cfg.n, (0.0, hi), tol=1e-12)
        mid = apply_to_semigroup(expansion, sg, v)
    elif propagator == "exact":
        images = np.exp(2j * cfg.n * np.exp(-beta * operator.eigenvalues))
        mid = operator.apply_images(images, v)
    else:
        raise ValueError(f"unknown propagator {propagator!r}")
    return complex(np.vdot(psi_prime.weighted(), free_phase * mid))


def exact_s_in_packets(
    model: SeparableModel, psi_prime: WavePacket, psi: WavePacket
) -> complex:
    """Packet-averaged exact S: sum_i w_i k_i^2 conj(psi') S(k_i) psi.

    Valid because S is diagonal in energy for this single-channel s-wave
    model; serves as the oracle curve for the n-sweeps.
    """
    grid = _require_shared_grid(psi_prime, psi)
    s_vals = np.array([exact_s_on_shell(model, float(k)) for k in grid.nodes])
    return complex(np.vdot(psi_prime.weighted(), s_vals * psi.weighted()))


def time_limit_s_overlap(
    model: SeparableModel,
    psi_prime: WavePacket,
    psi: WavePacket,
    t: float,
    *,
    op: Optional[SpectralOperator] = None,
) -> complex:
    """Real-time oracle <psi'| e^{iH0 t} e^{-2iHt} e^{iH0 t} |psi>.

    Converges to the same S-matrix element as the semigroup pipeline when
    t -> infinity; used only for cross-validation, never in production.  The
    grid must resolve phases t k^2/m over the packet support, so very large t
    on a coarse grid is meaningless; look for a plateau instead.
    """
    if not (t > 0 and math.isfinite(t)):
        raise DomainError(f"t must be positive and finite, got {t}")
    grid = _require_shared_grid(psi_prime, psi)
    operator = _hamiltonian(model, grid, op)
    free_phase = np.exp(1j * t * grid.nodes**2 / model.mass)
    v = free_phase * psi.weighted()
    mid = operator.apply_images(np.exp(-2j * t * operator.eigenvalues), v)
    return complex(np.vdot(psi_prime.weighted(), free_phase * mid))


def delta_e_overlap(psi_prime: WavePacket, psi: WavePacket) -> float:
    """Energy-shell overlap <psi'| delta(E - E') |psi>.

    In the energy representation f(E) = psi(k(E)) with density
    rho(E) = k^2 dk/dE = m k/2, the double delta integral collapses to
    int dE rho(E)^2 f'* f = sum_i w_i k_i^2 psi'* psi (m k_i / 2).
    Returns the real part; identical real-profile packets give a real value.
    """
    grid = _require_shared_grid(psi_prime, psi)
    if psi_prime.mass != psi.mass:
        raise PreconditionError("packets must share the same mass")
    shell = psi.mass * grid.nodes / 2.0
    value = np.vdot(psi_prime.weighted(), shell * psi.weighted())
    return float(value.real)


def sweep_n(
    model: SeparableModel,
    cfg: KBConfig,
    n_values: Sequence[int],
    psi_prime: WavePacket,
    psi: WavePacket,
    reference: str = "packets",
) -> List[SweepRow]:
    """kb_s_overlap over ascending n, against a fixed exact reference.

    ``reference`` picks the comparison value: "packets" is the exact S
    averaged over the packet pair (isolates the n-dependence), "sharp" is
    S at the ket packet's center momentum (adds the packet-width bias, which
    is what shrinks when sigma does).  One diagonalization serves the sweep.
    """
    if len(n_values) == 0:
        raise ConfigError("n_values must not be empty")
    if any(b <= a for a, b in zip(n_values[:-1], n_values[1:])):
        raise ConfigError("n_values must be strictly ascending")
    grid = _require_shared_grid(psi_prime, psi)
    operator = _hamiltonian(model, grid, None)
    if reference == "packets":
        exact = exact_s_in_packets(model, psi_prime, psi)
    elif reference == "sharp":
        exact = exact_s_on_shell(model, psi.center)
    else:
        raise ValueError(f"unknown reference {reference!r}")
    rows = []
    for n in n_values:
        kb = kb_s_overlap(
            model, dataclasses.replace(cfg, n=int(n)), psi_prime, psi, op=operator
        )
        rows.append(
            SweepRow(
                n=int(n),
                re_approx=kb.real,
                im_approx=kb.imag,
                re_exact=exact.real,
                im_exact=exact.imag,
                rel_err=abs(kb - exact) / abs(exact),
            )
        )
    return rows


def extract_sharp_t(model: SeparableModel, cfg: KBConfig, k: float) -> SMatrixEstimate:
    """Sharp-momentum amplitude from identical packets centered at k.

    t_approx = (<psi|psi> - overlap) / (2 pi i <psi|delta(E-E')|psi>); the
    identity term carries the opposite sign of the overlap because
    S - 1 = -2 pi i delta T in this convention.
    """
    if not (k > 0 and math.isfinite(k)):
        raise DomainError(f"momentum must be positive and finite, got {k}")
    sigma = cfg.sigma if cfg.sigma is not None else k / 10.0
    beta = _resolve_beta(model, cfg, k)
    spec = cfg.grid
    if spec is None:
        spec = packet_grid_spec(k, sigma, cfg.n, beta, mass=model.mass)
    grid = build_grid(spec)
    psi = make_packet(k, sigma, grid, mass=model.mass)
    kb = kb_s_overlap(model, cfg, psi, psi)
    ident = packet_overlap(psi, psi)
    shell = delta_e_overlap(psi, psi)
    if abs(shell) < 1e-14:
        raise PreconditionError(
            f"energy-shell overlap {shell:.3e} is degenerate; packets too narrow "
            "or disjoint for a stable quotient"
        )
    t_approx = (ident - kb) / (2j * math.pi * shell)
    s_exact = exact_s_in_packets(model, psi, psi)
    t_exact = exact_t_on_shell(model, k)
    # zero coupling has t_exact = 0 exactly; report the absolute residual then
    t_scale = abs(t_exact) if t_exact != 0 else 1.0
    return SMatrixEstimate(
        momentum=float(k),
        s_approx=kb,
        s_exact=s_exact,
        t_approx=t_approx,
        t_exact=t_exact,
        rel_err_s=abs(kb - s_exact) / abs(s_exact),
        rel_err_t=abs(t_approx - t_exact) / t_scale,
    )
