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

The interacting factor is paid for at half the phase.  A = e^{-beta H} is real
symmetric, so e^{inA} is complex symmetric and, with u = e^{-in exp(-beta H0)}
psi and u' = e^{-in exp(-beta H0)} conj(psi'),

    <psi'| ... |psi> = u'^T e^{2inA} u = sum_i [e^{inA} u']_i [e^{inA} u]_i.

One Chebyshev series p of e^{inx}, of half the degree of one for e^{2inx},
stands in for e^{inA}.  In eigen-coordinates c = U^T u, c' = U^T u', A is
the diagonal lambda_i = e^{-beta E_i}, so p(A) is the elementwise product
with p(lambda_i), and as U is orthogonal

    u'^T p(A)^2 u = sum_i c'_i c_i p(lambda_i)^2

(c alone when u' = u, as for identical real packets).  Clenshaw on a block of
ones gives the values p(lambda_i), each semigroup application being one
product with the images of e^{-beta E} under the recurrence's affine map; the
series of every n of a sweep share that one pass, one column each, and each
column joins it at its own degree, so a sweep takes the degree + 1 steps of
its largest n and pays each n its own degree + 1 column-applications.  The
exact propagator of the tests shares every other step and takes
e^{in lambda_i} in place of p(lambda_i).  A per-factor uniform error of 5e-13
bounds the overlap's by sup|p^2 - e^{2inx}| <= tol (2 + tol) < 1e-12.

Conventions: S(k) = 1 - i pi m k t(k), energy density rho(E) = m k / 2.
The sharp amplitude comes from the quotient

    t(k0) ~= (<psi|psi> - overlap) / (2 pi i <psi| delta(E - E') |psi>),

with <psi|delta(E-E')|psi> = sum_i w_i k_i^2 |psi_i|^2 (m k_i / 2), the unique
energy-shell weight for which the quotient reproduces t for narrow packets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Sequence

import numpy as np

from .chebyshev import _require_above_floor, _stacked, apply_to_semigroup, converged_expansion
from .errors import AccuracyError, ConfigError, DomainError, PreconditionError
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
    _rank_one_operator,
    _separable_terms,
    build_grid,
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


@dataclass(frozen=True)
class KBConfig:
    """Knobs of the invariance-principle approximant.

    ``beta=None`` switches to the scale-aware choice beta_x * m / k0^2, which
    keeps e^{-beta E(k0)} = e^{-beta_x} at every packet center.  The Chebyshev
    expansion of the half phase e^{inx} is always refined until its uniform
    error is below 5e-13; its square then misses the whole phase e^{2inx} by
    at most 5e-13 (2 + 5e-13) < 1e-12.
    ``sigma=None`` means k0/10.
    """

    n: int = 250
    beta: Optional[float] = 5e-4
    beta_x: float = 0.5
    sigma: Optional[float] = None
    grid: Optional[GridSpec] = None

    def __post_init__(self) -> None:
        _check_n(self.n)
        for key, value in (("beta", self.beta), ("beta_x", self.beta_x), ("sigma", self.sigma)):
            if value is not None and not (math.isfinite(value) and value > 0):
                raise ConfigError(f"{key} must be positive and finite, got {value}")


def _check_n(n: float) -> int:
    """n as an int; raises ConfigError unless n is finite, integral and >= 1."""
    if not (math.isfinite(n) and n >= 1 and n == math.floor(n)):
        raise ConfigError(f"n must be an integer >= 1, got {n}")
    return int(n)


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
    if k0 * k0 == 0.0:
        raise DomainError(f"the square of k0 = {k0} underflows to 0")
    beta = x * mass / (k0 * k0)
    if not (math.isfinite(beta) and beta > 0):
        raise DomainError(f"beta = {beta} from k0 = {k0} is not positive and finite")
    return beta


def packet_grid_spec(
    k0: float,
    sigma: float,
    n: int,
    beta: float,
    k_max: float = 6000.0,
    mass: float = DEFAULT_MASS,
) -> GridSpec:
    """Panel layout sized by Gauss-Legendre convergence on every panel.

    Edges: 0, k0 - 8 sigma, k0 + 8 sigma, then a geometric run with end
    ratio 4 up to k_max; a last stub with end ratio below 1.5 joins the
    panel before it (ratio up to 6), and empty end panels are dropped.  Each
    panel gets max(40, ceil(dphi/4) + 16) nodes, the larger of two terms
    (Trefethen, SIAM Rev. 50 (2008) 67; ATAP ch. 19):

    * phase: the integrands oscillate like e^{i phi(k)} with
      phi(k) = 2n e^{-beta k^2/mass}, which needs Chebyshev degree about
      dphi/2 over a panel; an m-node rule is exact to degree 2m - 1, so
      about dphi/4 nodes, plus a margin of 16.
    * singularities: the form-factor pole at i mpi and the bound-state pole
      at i kappa lie on the imaginary k axis.  On a panel [a, r a] every
      such pole lies outside the Bernstein ellipse with
      rho = (sqrt(r) + 1)/(sqrt(r) - 1): rho >= 3 at r = 4 and rho >= 2.4 at
      r = 6, so the error of 40 nodes, about rho^{-80}, is below 1e-30
      whatever mpi and kappa are.  The floor also resolves the packet's
      Gaussian, e^{-16} at the packet panel's ends.  The low panel
      [0, k0 - 8 sigma] has the poles near its end k = 0, where the packet
      is below e^{-16}; the test with 1.5x the nodes on every panel bounds
      what is left there.

    On the 20 default t-scan layouts this gives N = 198-279, and t moves by
    at most 8e-11 relative when every panel gets 1.5x the nodes.
    """
    if not (k0 > 0 and sigma > 0 and beta > 0 and math.isfinite(k0 + sigma + beta)):
        raise DomainError(
            f"k0, sigma and beta must be positive and finite, got {k0}, {sigma} and {beta}"
        )
    if k0 + 8.0 * sigma > k_max:
        raise ConfigError(
            f"k_max={k_max} cannot cover the packet; need at least {k0 + 8.0 * sigma}"
        )

    def phase(k: float) -> float:
        return 2.0 * n * math.exp(-beta * k * k / mass)

    lo = k0 - 8.0 * sigma
    hi = k0 + 8.0 * sigma
    edges = [0.0, lo] if lo > 1e-9 * k_max else [0.0]
    if hi < (1.0 - 1e-9) * k_max:
        edges.append(hi)
        while 6.0 * edges[-1] <= k_max:
            edges.append(4.0 * edges[-1])
    edges.append(k_max)
    panels = [
        (a, b, max(40, math.ceil(abs(phase(a) - phase(b)) / 4.0) + 16))
        for a, b in zip(edges[:-1], edges[1:])
    ]
    return GridSpec(panels=panels)


# largest relative miss of a packet's squared norm on its grid against the
# closed form: at most 7.4e-5 on the test suite's off-grid packets, 5.4e-3 at
# sigma = 10 MeV on the default kb-sweep grid, about 18 MeV between nodes at k0
_PACKET_NORM_TOL = 1e-3


def make_packet(
    k0: float, sigma: float, grid: RadialGrid, mass: float = DEFAULT_MASS
) -> WavePacket:
    """Unit-norm Gaussian profile exp(-(k-k0)^2/(4 sigma^2)) on the grid.

    A grid whose quadrature of the squared norm misses its closed form by
    more than 1e-3 relative does not resolve the packet: ``PreconditionError``.
    """
    if not (k0 > 0 and math.isfinite(k0)):
        raise DomainError(f"k0 must be positive and finite, got {k0}")
    # the profile and its closed-form norm square k0
    if not math.isfinite(k0 * k0):
        raise DomainError(f"k0 {k0} MeV: its square is not finite")
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
    # the squared norm and its closed form scale as k0^3, which overflows
    # from k0 about 1e103: both are taken in units u^3 of u = 4^q near k0, an
    # exact scaling whose root is 2^{3q}
    q = math.frexp(k0)[1] // 2
    u = math.ldexp(1.0, 2 * q)
    # an underflowing sigma^2 gives 0/0 at a node at k0, and nodes near the
    # float limit overflow their squares; the norm check refuses both
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        profile = np.exp(-((grid.nodes - k0) ** 2) / (4.0 * sigma * sigma))
        norm_sq = float(np.sum(grid.weights / u * (grid.nodes / u) ** 2 * profile**2))
    norm = math.sqrt(norm_sq) * math.ldexp(1.0, 3 * q)
    # int_0^inf k^2 profile^2 dk in closed form (r * r: a power would overflow)
    r = k0 / sigma
    k, s = k0 / u, sigma / u
    gauss = math.sqrt(0.5 * math.pi) * (1.0 + math.erf(r / math.sqrt(2.0)))
    exact = s * ((k * k + s * s) * gauss + s * k * math.exp(-0.5 * r * r))
    miss = abs(norm_sq - exact) / exact if exact > 0.0 else math.inf
    if not miss <= _PACKET_NORM_TOL:
        raise PreconditionError(
            f"packet at k0={k0} with sigma={sigma} has norm {norm} on the grid, and its "
            f"square misses the closed-form integral by {miss:.3g} relative: the grid "
            "does not resolve the profile, or its scale leaves the float range"
        )
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
    """``op`` checked against the grid, or when None the eigendecomposition of
    the model's H on the grid by the rank-one secular solver: the dense H is
    never formed and eigh never runs."""
    if op is None:
        return _rank_one_operator(*_separable_terms(model, grid), model.coupling)
    if op.size != grid.size:
        raise PreconditionError(
            f"operator size {op.size} does not match grid size {grid.size}"
        )
    return op


# uniform error of each half-phase factor; tol (2 + tol) < 1e-12 for the square
_HALF_PHASE_TOL = 5e-13
# largest eigenpair residual, weighted by a packet, as a fraction of the
# packet's energy spread; on the default t-scan it is at most 2e-15
_PACKET_RESOLUTION_TOL = 1e-3


def _phased_coordinates(
    op: SpectralOperator, free_phase: np.ndarray, psi_prime: WavePacket, psi: WavePacket
) -> np.ndarray:
    """U^T [u], or U^T [u, u'] when u' != u, for u = free_phase psi and
    u' = free_phase conj(psi') in the weighted grid basis: one real product.
    As U is orthogonal, u'^T f(H) u = c'^T (f(E) c) on these columns."""
    u = free_phase * psi.weighted()
    u_prime = free_phase * np.conj(psi_prime.weighted())
    block = [u] if np.array_equal(u_prime, u) else [u, u_prime]
    return op.coordinates(np.column_stack(block))


def _packet_resolution(
    op: SpectralOperator, coords: np.ndarray, psi_prime: WavePacket, psi: WavePacket
) -> float:
    """The eigenpair residuals of ``op`` averaged with the weights |c_a|^2
    of each column of ``coords`` (as from ``_phased_coordinates``), over the
    energy spread 2 k sigma / m of its packet; the larger of the columns.
    Above 1 the eigenpairs cannot tell the packet's energies apart, whatever
    their residual relative to ||H||.
    """
    weights = np.abs(coords) ** 2
    averages = (op.residuals @ weights) / np.sum(weights, axis=0)
    spreads = [2.0 * p.center * p.width / p.mass for p in (psi, psi_prime)]
    return float(np.max(averages / spreads[: averages.size]))


def _half_phase_overlaps(
    model: SeparableModel,
    cfg: KBConfig,
    ns: Sequence[int],
    psi_prime: WavePacket,
    psi: WavePacket,
    op: Optional[SpectralOperator] = None,
    exact: bool = False,
) -> List[complex]:
    """u'^T e^{2inA} u for each n of ``ns`` by the half-phase identity of the
    module docstring, A = e^{-beta H} for the model's H on the packets' grid
    (``op`` when given).  The propagators differ only in the values v of
    e^{inx} on the spectrum: the Chebyshev series of every n in one Clenshaw
    pass on a block of ones, or e^{in lambda} when ``exact``; the overlap is
    (v c')^T (v c).  A rounding-floor error that interlacing shows comes
    before the eigensolver, and every series and every n's coordinates are
    built before the Clenshaw pass, so no ``AccuracyError`` comes after an
    application; each n has its own coordinates and reduction, so its
    overlap does not depend on the other n."""
    grid = _require_shared_grid(psi_prime, psi)
    beta = _resolve_beta(model, cfg, psi.center)
    if not exact and grid.size >= 2:
        # interlacing for a rank-one change of diag(k^2/m) (Golub, SIAM Rev.
        # 15 (1973) 318): whatever the coupling, E_0 <= k_2^2/m, so the
        # spectrum of A reaches at least e^{-beta k_2^2/m}
        low = math.exp(-beta * grid.nodes[1] ** 2 / model.mass)
        _require_above_floor(_HALF_PHASE_TOL, max(ns), 0.0, low)
    sg = Semigroup(_hamiltonian(model, grid, op), beta)
    if not exact:
        hi = sg.bounds()[1]
        series = _stacked([converged_expansion(n, (0.0, hi), tol=_HALF_PHASE_TOL) for n in ns])
    free_images = np.exp(-beta * grid.nodes**2 / model.mass)
    coords = [
        _phased_coordinates(sg.op, np.exp(-1j * n * free_images), psi_prime, psi)
        for n in ns
    ]
    for block in coords:
        ratio = _packet_resolution(sg.op, block, psi_prime, psi)
        if not ratio <= _PACKET_RESOLUTION_TOL:
            raise AccuracyError(
                f"eigenpair residuals weighted by the packet at k={psi.center:g} MeV "
                f"reach {ratio:.3e} of its energy spread, above "
                f"{_PACKET_RESOLUTION_TOL:g}: the eigendecomposition cannot resolve it"
            )
    if exact:
        values = np.exp(1j * np.multiply.outer(ns, sg.images))
    else:
        # one contiguous row per n, laid out as a one-n pass lays out its values
        values = apply_to_semigroup(series, sg, np.ones((sg.op.size, len(ns)))).T.copy()
    overlaps = []
    for value, block in zip(values, coords):
        halves = value[:, None] * block
        overlaps.append(complex(halves[:, -1] @ halves[:, 0]))
    return overlaps


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
    production path (polynomial in the semigroup); "exact" takes the values
    of e^{inx} on the spectrum directly and exists to isolate the polynomial
    layer's error in tests; every other step is shared.  ``op``, when given,
    must be the model's H on the packets' grid.
    """
    if propagator not in ("chebyshev", "exact"):
        raise ValueError(f"unknown propagator {propagator!r}")
    return _half_phase_overlaps(model, cfg, [cfg.n], psi_prime, psi, op, propagator == "exact")[0]


def exact_s_in_packets(
    model: SeparableModel, psi_prime: WavePacket, psi: WavePacket
) -> complex:
    """Packet-averaged exact S: sum_i w_i k_i^2 conj(psi') S(k_i) psi.

    Valid because S is diagonal in energy for this single-channel s-wave
    model; serves as the oracle curve for the n-sweeps.
    """
    grid = _require_shared_grid(psi_prime, psi)
    s_vals = exact_s_on_shell(model, grid.nodes)
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
    coords = _phased_coordinates(operator, free_phase, psi_prime, psi)
    images = np.exp(-2j * t * operator.eigenvalues)
    return complex(coords[:, -1] @ (images * coords[:, 0]))


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
    is what shrinks when sigma does).  Every n must be an integer >= 1.
    Beta does not depend on n, so one eigendecomposition and one ``Semigroup``
    serve the sweep, and the half-phase series of every n run as the columns
    of one Clenshaw pass of the degree + 1 steps of the largest n's series,
    each column joining at its own degree: sum_n (degree_n + 1)
    column-applications.  Each row equals ``kb_s_overlap`` at its n bit for
    bit.
    """
    if len(n_values) == 0:
        raise ConfigError("n_values must not be empty")
    ns = [_check_n(n) for n in n_values]
    if any(b <= a for a, b in zip(ns[:-1], ns[1:])):
        raise ConfigError("n_values must be strictly ascending")
    if reference == "packets":
        exact = exact_s_in_packets(model, psi_prime, psi)
    elif reference == "sharp":
        exact = exact_s_on_shell(model, psi.center)
    else:
        raise ValueError(f"unknown reference {reference!r}")
    overlaps = _half_phase_overlaps(model, cfg, ns, psi_prime, psi)
    return [
        SweepRow(
            n=n,
            re_approx=kb.real,
            im_approx=kb.imag,
            re_exact=exact.real,
            im_exact=exact.imag,
            rel_err=abs(kb - exact) / abs(exact),
        )
        for n, kb in zip(ns, overlaps)
    ]


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
