"""Gaussian generating functional on Euclidean space-time: wave functionals,
reflection-positive inner products, generator matrix elements, clustering.

Test functions are Gaussians in Euclidean time and space with an optional
plane-wave momentum factor,

    f(tau, x) = a * exp(-(tau-tau0)^2/(2 st^2))
                  * exp(ip0.x) * exp(-(x-c)^2/(2 sx^2)),

declared with a hard support cut at tau0 +- cut*st so that positive-time
support is a checkable property.  The covariance is the free two-point
function with mass m; in the mixed (tau, p) representation its kernel is
e^{-omega|tau-tau'|}/(2 omega), omega = sqrt(p^2+m^2).  For these profiles
the time double integral has a closed form in scaled complementary error
functions and the angular momentum integral collapses to sinh(pw)/(pw) with a
complex w, so one adaptive radial quadrature evaluates every inner product.
The support cut is bookkeeping only: evaluating the uncut Gaussians instead
changes results by under 1e-9 relative (the cut sits >= 6 widths out) while
keeping every structural identity of a genuine covariance exact.

All physical-sector positivity, contraction, Hermiticity, dispersion and
cluster statements checked by the tests follow from this one kernel; the
Hamiltonian, momentum and squared-mass elements are central finite
differences of group translations with Richardson extrapolation, never
analytic derivatives, so that the differentiation layer is exercised too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, List, NamedTuple, Sequence, Tuple, Union

import numpy as np
from scipy.special import erfcx

from .errors import AccuracyError, ConfigError, DomainError, PreconditionError
from .spectral import _LOG_FLOAT_MAX, _panel_nodes

Vector3 = Tuple[float, float, float]

_ZERO3: Vector3 = (0.0, 0.0, 0.0)


def _as_vec(v) -> np.ndarray:
    arr = np.asarray(v, dtype=float)
    if arr.shape != (3,):
        raise DomainError(f"expected a 3-vector, got shape {arr.shape}")
    return arr


@dataclass(frozen=True)
class EuclideanTestFunction:
    """Gaussian test function descriptor; immutable, transformable.

    ``tau_center`` may be any real so that reflections are expressible; the
    positive-time requirement is enforced at the operations that need it
    (``is_positive_time`` is the check they use).
    """

    tau_center: float
    tau_width: float
    space_width: float
    momentum: Vector3 = _ZERO3
    center: Vector3 = _ZERO3
    amplitude: complex = 1.0
    cut_sigmas: float = 6.0

    def __post_init__(self) -> None:
        if not (self.tau_width > 0 and math.isfinite(self.tau_width)):
            raise DomainError(f"tau_width must be positive, got {self.tau_width}")
        if not (self.space_width > 0 and math.isfinite(self.space_width)):
            raise DomainError(f"space_width must be positive, got {self.space_width}")
        if not (self.cut_sigmas >= 1):
            raise DomainError(f"cut_sigmas must be >= 1, got {self.cut_sigmas}")
        object.__setattr__(self, "momentum", tuple(float(x) for x in self.momentum))
        object.__setattr__(self, "center", tuple(float(x) for x in self.center))
        object.__setattr__(self, "amplitude", complex(self.amplitude))

    @property
    def is_positive_time(self) -> bool:
        return self.tau_center - self.cut_sigmas * self.tau_width > 0.0

    @property
    def is_real_profile(self) -> bool:
        return self.momentum == _ZERO3 and self.amplitude.imag == 0.0

    def reflected(self) -> "EuclideanTestFunction":
        """Euclidean time reflection tau -> -tau."""
        return replace(self, tau_center=-self.tau_center)

    def shifted_in_time(self, dt: float) -> "EuclideanTestFunction":
        return replace(self, tau_center=self.tau_center + dt)

    def translated(self, shift) -> "EuclideanTestFunction":
        """f(x - shift): moves the center and carries the plane-wave phase."""
        shift = _as_vec(shift)
        c = _as_vec(self.center) + shift
        carrier = complex(np.exp(-1j * float(np.dot(self.momentum, shift))))
        return replace(self, center=tuple(c), amplitude=self.amplitude * carrier)

    def conjugated(self) -> "EuclideanTestFunction":
        """Pointwise complex conjugate: flips momentum, conjugates amplitude."""
        p = tuple(-x for x in self.momentum)
        return replace(self, momentum=p, amplitude=self.amplitude.conjugate())

    def scaled(self, factor: complex) -> "EuclideanTestFunction":
        return replace(self, amplitude=self.amplitude * factor)


@dataclass(frozen=True)
class WaveFunctional:
    """B[phi] = sum_j b_j e^{i phi(f_j)}."""

    coefficients: Tuple[complex, ...]
    functions: Tuple[EuclideanTestFunction, ...]

    def __post_init__(self) -> None:
        coeffs = tuple(complex(c) for c in self.coefficients)
        fns = tuple(self.functions)
        if len(coeffs) != len(fns):
            raise PreconditionError(
                f"{len(coeffs)} coefficients paired with {len(fns)} functions"
            )
        if not coeffs:
            raise PreconditionError("functional must have at least one term")
        object.__setattr__(self, "coefficients", coeffs)
        object.__setattr__(self, "functions", fns)

    def time_shifted(self, dt: float) -> "WaveFunctional":
        return WaveFunctional(
            self.coefficients, tuple(f.shifted_in_time(dt) for f in self.functions)
        )

    def translated(self, shift) -> "WaveFunctional":
        return WaveFunctional(
            self.coefficients, tuple(f.translated(shift) for f in self.functions)
        )


class FDResult(NamedTuple):
    """A finite-difference derivative with its Richardson error estimate."""

    value: Union[complex, np.ndarray]
    error: float


@dataclass(frozen=True)
class ClusterReport:
    distances: np.ndarray
    deviations: np.ndarray
    fitted_rate: float


# The radial grid starts from _BASE_POINTS per peak panel; every panel is
# doubled until two successive resolutions agree to _TOL relative, for at
# most _MAX_REFINEMENTS doublings.
_BASE_POINTS = 160
_TOL = 1e-10
_MAX_REFINEMENTS = 7


class CovarianceKernel:
    """Free two-point covariance of mass ``mass`` with adaptive quadrature."""

    def __init__(self, mass: float) -> None:
        if not (mass > 0 and math.isfinite(mass)):
            raise DomainError(f"mass must be positive and finite, got {mass}")
        self.mass = float(mass)
        self._self_cov_cache: dict = {}

    # -- time factor -------------------------------------------------------
    def _time_factor(
        self, omega: np.ndarray, bra: EuclideanTestFunction, ket: EuclideanTestFunction
    ) -> np.ndarray:
        """closed form of the double time integral against e^{-omega|t-t'|}.

        T = pi st_f st_g e^{-d^2/(2 s^2)} [erfcx(z-) + erfcx(z+)],
        z_-+ = (omega s^2 -+ d)/(sqrt(2) s), s^2 = st_f^2+st_g^2, d = tf-tg.
        erfcx overflows below about z = -26, so that region is rewritten via
        erfcx(z) = 2 e^{z^2} - erfcx(-z) with the combined exponent
        z^2 - d^2/(2 s^2) = omega^2 s^2/2 -+ omega d formed directly; in the
        rewritten branch that exponent is always negative, so the factorsum
        never over- or underflows anywhere.
        """
        sf, sg = bra.tau_width, ket.tau_width
        s2 = sf * sf + sg * sg
        s = math.sqrt(s2)
        d = bra.tau_center - ket.tau_center
        gauss = math.exp(-d * d / (2.0 * s2))
        half = 0.5 * s2 * omega * omega
        total = np.zeros_like(omega)
        for sign in (-1.0, 1.0):
            z = (omega * s2 + sign * d) / (math.sqrt(2.0) * s)
            deep = z < -26.0
            total += np.where(deep, 0.0, gauss * erfcx(np.where(deep, 0.0, z)))
            if np.any(deep):
                zd = z[deep]
                asym = 2.0 * np.exp(half[deep] + sign * omega[deep] * d)
                total[deep] += asym - gauss * erfcx(-zd)
        return math.pi * sf * sg * total

    # -- radial integrand ---------------------------------------------------
    def _sesqui_panels(self, bra, ket):
        """Peak-centered panels with oscillation-aware point counts, and the
        pair constants S, w_tilde and const of the radial integrand."""
        S = bra.space_width**2 + ket.space_width**2
        vr = np.asarray(bra.momentum) * bra.space_width**2 + np.asarray(
            ket.momentum
        ) * ket.space_width**2
        vi = np.asarray(bra.center) - np.asarray(ket.center)
        sigma_p = 1.0 / math.sqrt(S)
        peak = float(np.linalg.norm(vr)) / S
        osc = float(np.linalg.norm(vi))
        lo = max(0.0, peak - 12.0 * sigma_p)
        hi = peak + 12.0 * sigma_p
        top = peak + 30.0 * sigma_p
        panels = []
        if lo > 0.0:
            panels.append((0.0, lo, _BASE_POINTS // 2 + int(osc * lo / 2.0)))
        panels.append((lo, hi, _BASE_POINTS + int(osc * (hi - lo) / 2.0)))
        panels.append((hi, top, _BASE_POINTS // 2 + int(osc * (top - hi) / 2.0)))
        v = vr + 1j * vi
        w_tilde = np.sqrt(complex(np.dot(v, v)))
        const = -0.5 * (
            bra.space_width**2 * float(np.dot(bra.momentum, bra.momentum))
            + ket.space_width**2 * float(np.dot(ket.momentum, ket.momentum))
        )
        return panels, S, w_tilde, const

    def _sesqui_at_resolution(self, bra, ket, panels, S, w_tilde, const, factor):
        """(integral, integral of the magnitude) with ``factor`` times the
        panel point counts."""
        p, wp = _panel_nodes([(a, b, int(n * factor)) for a, b, n in panels])
        omega = np.sqrt(p * p + self.mass * self.mass)
        pw = p * w_tilde
        gauss = const - 0.5 * S * p * p
        # e^gauss sinh(pw)/pw, by its series where pw is too small to divide by
        small = np.abs(pw) < 1e-6
        series = np.exp(gauss) * (1.0 + pw * pw / 6.0 + pw**4 / 120.0)
        denominator = np.where(small, 1.0, 2.0 * pw)
        quotient = (np.exp(gauss + pw) - np.exp(gauss - pw)) / denominator
        env = np.where(small, series, quotient)
        vals = wp * p * p / (2.0 * omega) * self._time_factor(omega, bra, ket) * env
        return 4.0 * math.pi * np.sum(vals), 4.0 * math.pi * float(np.sum(np.abs(vals)))

    def _sesqui(self, bra: EuclideanTestFunction, ket: EuclideanTestFunction) -> complex:
        """<bra, C ket> with the bra's Fourier data conjugated."""
        kappa = (
            np.conj(bra.amplitude)
            * ket.amplitude
            * (bra.space_width * ket.space_width) ** 3
            * np.exp(
                1j
                * (
                    np.dot(ket.momentum, ket.center)
                    - np.dot(bra.momentum, bra.center)
                )
            )
        )
        if kappa == 0:
            return 0.0 + 0.0j
        panels, *pair = self._sesqui_panels(bra, ket)
        previous, _ = self._sesqui_at_resolution(bra, ket, panels, *pair, 1.0)
        current, gap = previous, float("inf")
        for level in range(1, _MAX_REFINEMENTS + 1):
            factor = 2.0**level
            if factor * max(n for _, _, n in panels) > 30000:
                break
            current, magnitude = self._sesqui_at_resolution(
                bra, ket, panels, *pair, factor
            )
            gap = abs(current - previous)
            # the magnitude term is the roundoff floor of a cancelling sum
            if gap <= _TOL * abs(current) + 1e-13 * magnitude:
                return complex(kappa * current)
            previous = current
        raise AccuracyError(
            f"covariance quadrature stalled at relative change "
            f"{gap / max(abs(current), 1e-300):.3e} (target {_TOL:.1e})"
        )

    def _bilinear(self, x: EuclideanTestFunction, y: EuclideanTestFunction) -> complex:
        return self._sesqui(x.conjugated(), y)

    def _self_cov(self, f: EuclideanTestFunction) -> complex:
        cached = self._self_cov_cache.get(f)
        if cached is None:
            cached = self._bilinear(f, f)
            self._self_cov_cache[f] = cached
        return cached


def covariance(
    kernel: CovarianceKernel, f: EuclideanTestFunction, g: EuclideanTestFunction
) -> float:
    """<f, C g> for real-profile test functions (symmetric, positive kernel).

    Complex profiles (nonzero momentum or complex amplitude) have no single
    real bilinear value; use one_particle_inner for the sesquilinear product.
    """
    for fn in (f, g):
        if not fn.is_real_profile:
            raise PreconditionError(
                "covariance needs real-profile test functions; "
                "one_particle_inner handles complex profiles"
            )
    return float(kernel._bilinear(f, g).real)


GfArgument = Union[
    EuclideanTestFunction, Sequence[Tuple[float, EuclideanTestFunction]]
]


def _as_combination(h: GfArgument) -> List[Tuple[float, EuclideanTestFunction]]:
    if isinstance(h, EuclideanTestFunction):
        return [(1.0, h)]
    terms = list(h)
    if not terms:
        raise PreconditionError("empty combination has no generating value")
    return [(float(c), fn) for c, fn in terms]


def gf_value(kernel: CovarianceKernel, h: GfArgument) -> float:
    """Z[h] = exp(-cov(h,h)/2) for a real combination of real-profile parts."""
    terms = _as_combination(h)
    for _, fn in terms:
        if not fn.is_real_profile:
            raise PreconditionError(
                "gf_value takes real combinations of real-profile functions"
            )
    quad = 0.0
    for ci, fi in terms:
        for cj, fj in terms:
            quad += ci * cj * kernel._bilinear(fi, fj).real
    return math.exp(-0.5 * quad)


def _require_positive_time(fns: Sequence[EuclideanTestFunction]) -> None:
    for fn in fns:
        if not fn.is_positive_time:
            raise PreconditionError(
                f"test function with tau_center={fn.tau_center} and support "
                f"cut {fn.cut_sigmas}*{fn.tau_width} is not positive-time"
            )


def _pair_terms(kernel, B, C, reflect: bool, hermitian: bool = False) -> np.ndarray:
    """Terms conj(b_j) c_k Z[g_k - R conj(f_j)] of both inner products.

    R is the time reflection Theta when ``reflect`` (every function must
    then be positive-time) and the identity otherwise.  ``hermitian`` (for
    B = C) computes only the terms with k >= j and fills the rest by
    conjugate mirroring, with a real diagonal, so the result is exactly
    Hermitian.
    """
    if reflect:
        _require_positive_time(B.functions + C.functions)
    terms = np.zeros((len(B.functions), len(C.functions)), dtype=complex)
    for j, (bj, fj) in enumerate(zip(B.coefficients, B.functions)):
        bra = fj.reflected() if reflect else fj
        for k in range(j if hermitian else 0, len(C.functions)):
            gk = C.functions[k]
            exponent = kernel._sesqui(bra, gk) - 0.5 * (
                kernel._self_cov(gk) + np.conj(kernel._self_cov(fj))
            )
            if exponent.real > _LOG_FLOAT_MAX:
                raise AccuracyError(
                    f"pair ({j}, {k}) overflows: its exponent {exponent:.6g} "
                    f"has real part above log(float max) = {_LOG_FLOAT_MAX:.2f}"
                )
            terms[j, k] = np.conj(bj) * C.coefficients[k] * np.exp(exponent)
    if not hermitian:
        return terms
    strict = np.triu(terms, 1)
    return strict + strict.conj().T + np.diag(terms.diagonal().real)


def euclidean_inner(
    kernel: CovarianceKernel, B: WaveFunctional, C: WaveFunctional
) -> complex:
    """(B, C) = sum sum conj(b_j) c_k Z[g_k - conj(f_j)]."""
    return complex(sum(_pair_terms(kernel, B, C, reflect=False).flat, 0j))


def physical_inner(
    kernel: CovarianceKernel, B: WaveFunctional, C: WaveFunctional
) -> complex:
    """<B|C> = sum sum conj(b_j) c_k Z[g_k - Theta conj(f_j)].

    Every test function of both functionals must have positive-time support;
    this is what makes the quadratic form positive semidefinite.
    """
    return complex(sum(_pair_terms(kernel, B, C, reflect=True).flat, 0j))


def time_translate(B: WaveFunctional, beta: float) -> WaveFunctional:
    """e^{-beta H} |B>: shifts every time center forward by beta >= 0."""
    if beta < 0:
        raise DomainError(f"beta must be >= 0, got {beta}")
    return B.time_shifted(beta)


def one_particle_inner(
    kernel: CovarianceKernel, f: EuclideanTestFunction, g: EuclideanTestFunction
) -> complex:
    """<f|g> on the one-particle (linear) sector: cov(Theta conj(f), g).

    The bra is conjugated, as an inner product requires; this is the
    sesquilinear two-point reduction of the physical product and the cleanest
    probe of the energy-momentum spectrum.
    """
    _require_positive_time((f, g))
    return kernel._sesqui(f.reflected(), g)


# -- finite differences ----------------------------------------------------


def _richardson(F: Callable[[float], complex], h: float, f0=None) -> FDResult:
    """Central difference of F at 0 with steps h and h/2, Richardson-combined:
    the first derivative, or the second when the center value f0 is given."""
    if f0 is None:
        coarse = (F(h) - F(-h)) / (2.0 * h)
        fine = (F(h / 2) - F(-h / 2)) / h
    else:
        coarse = (F(h) - 2.0 * f0 + F(-h)) / (h * h)
        fine = (F(h / 2) - 2.0 * f0 + F(-h / 2)) / (h * h / 4.0)
    return FDResult((4.0 * fine - coarse) / 3.0, abs(fine - coarse) / 3.0)


def _omega_estimate(kernel: CovarianceKernel, fns) -> float:
    top = max(float(np.linalg.norm(fn.momentum)) for fn in fns)
    return math.sqrt(top * top + kernel.mass * kernel.mass)


def _time_step(kernel: CovarianceKernel, fns, factor: float) -> float:
    _require_positive_time(fns)
    margin = min(fn.tau_center - fn.cut_sigmas * fn.tau_width for fn in fns)
    return min(factor / _omega_estimate(kernel, fns), margin / 4.0)


def _test_functions(x) -> Tuple[EuclideanTestFunction, ...]:
    return x.functions if isinstance(x, WaveFunctional) else (x,)


def _generator(generator: str, kernel, inner, time_shift, bra, ket) -> FDResult:
    """<bra|G|ket> for G = "H", "P" or "M2" as Richardson-extrapolated central
    differences of ``inner`` under group translations; ``time_shift(x, s)``
    moves x forward in Euclidean time by s."""
    fns = _test_functions(bra) + _test_functions(ket)

    def in_time(s: float) -> complex:
        return inner(kernel, bra, time_shift(ket, s))

    if generator == "H":
        part = _richardson(in_time, _time_step(kernel, fns, 0.02))
        return FDResult(-part.value, part.error)
    if generator == "P":
        h = 0.02 / _omega_estimate(kernel, fns)
        parts = [
            _richardson(lambda s: inner(kernel, bra.translated(s * axis), ket), h)
            for axis in np.eye(3)
        ]
        values = np.array([-1j * part.value for part in parts])
        return FDResult(values, float(np.max([part.error for part in parts])))
    h = _time_step(kernel, fns, 0.07)
    f0 = inner(kernel, bra, ket)
    parts = [_richardson(in_time, h, f0)] + [
        _richardson(lambda s: inner(kernel, bra, ket.translated(s * axis)), h, f0)
        for axis in np.eye(3)
    ]
    value = sum((part.value for part in parts[1:]), parts[0].value)
    return FDResult(value, max(part.error for part in parts))


def hamiltonian_element(
    kernel: CovarianceKernel, B: WaveFunctional, C: WaveFunctional
) -> FDResult:
    """<B|H|C> = -d/dbeta <B|C_beta> at beta=0, Richardson-extrapolated."""
    return _generator("H", kernel, physical_inner, WaveFunctional.time_shifted, B, C)


def momentum_element(
    kernel: CovarianceKernel, B: WaveFunctional, C: WaveFunctional
) -> FDResult:
    """<B|P|C> = -i d/da <B_a|C> at a=0, componentwise.

    The bra is the translated side; with ket translation the same formula
    would produce the opposite sign for plane-wave momenta.
    """
    return _generator("P", kernel, physical_inner, WaveFunctional.time_shifted, B, C)


def mass_squared_element(
    kernel: CovarianceKernel, B: WaveFunctional, C: WaveFunctional
) -> FDResult:
    """<B|M^2|C> = (d^2/dbeta^2 + Laplacian_a) <B|C_{beta,a}> at zero."""
    return _generator("M2", kernel, physical_inner, WaveFunctional.time_shifted, B, C)


_shifted_in_time = EuclideanTestFunction.shifted_in_time


def one_particle_hamiltonian(
    kernel: CovarianceKernel, f: EuclideanTestFunction, g: EuclideanTestFunction
) -> FDResult:
    return _generator("H", kernel, one_particle_inner, _shifted_in_time, f, g)


def one_particle_momentum(
    kernel: CovarianceKernel, f: EuclideanTestFunction, g: EuclideanTestFunction
) -> FDResult:
    return _generator("P", kernel, one_particle_inner, _shifted_in_time, f, g)


def one_particle_mass_squared(
    kernel: CovarianceKernel, f: EuclideanTestFunction, g: EuclideanTestFunction
) -> FDResult:
    return _generator("M2", kernel, one_particle_inner, _shifted_in_time, f, g)


# -- cluster decomposition ---------------------------------------------------


def cluster_check(
    kernel: CovarianceKernel,
    f: EuclideanTestFunction,
    g: EuclideanTestFunction,
    distances: Sequence[float],
) -> ClusterReport:
    """Deviation |Z[f + g_a] - Z[f] Z[g]| along spatial separations.

    Fits ln(deviation) = c0 - rate*a - nu*ln(a) by least squares; for this
    kernel the deviation is essentially Z^2 |cov(f, g_a)| and the rate is the
    field mass (the mass gap controls spacelike clustering).
    """
    dists = np.asarray(list(distances), dtype=float)
    if dists.size < 3:
        raise ConfigError("need at least 3 distances to fit a decay rate")
    if np.any(np.diff(dists) <= 0) or dists[0] <= 0:
        raise ConfigError("distances must be positive and strictly ascending")
    zf = gf_value(kernel, f)
    zg = gf_value(kernel, g)
    deviations = np.empty(dists.size)
    for i, a in enumerate(dists):
        joint = gf_value(kernel, [(1.0, f), (1.0, g.translated((a, 0.0, 0.0)))])
        deviations[i] = abs(joint - zf * zg)
    if np.any(deviations <= 0):
        raise AccuracyError("cluster deviation underflowed; separations too large")
    design = np.column_stack([np.ones(dists.size), -dists, -np.log(dists)])
    coeffs, *_ = np.linalg.lstsq(design, np.log(deviations), rcond=None)
    return ClusterReport(
        distances=dists, deviations=deviations, fitted_rate=float(coeffs[1])
    )


# -- canonical states and scans ----------------------------------------------


def standard_test_function(momentum_x: float = 0.0) -> EuclideanTestFunction:
    """The canonical one-particle probe used by dispersion checks.

    Its time width 0.0035 must keep omega*width well under the 7.5 widths
    between its center and the reflection point over the momenta probed:
    past that, the Laplace-transform saddle of the time profile crosses the
    reflection point and the semigroup derivative saturates instead of
    reading omega(p).  This holds for |p| up to about 1 GeV at mass 139 MeV.
    """
    return EuclideanTestFunction(
        tau_center=7.5 * 0.0035,
        tau_width=0.0035,
        space_width=1.0,
        momentum=(momentum_x, 0.0, 0.0),
    )


class DispersionRow(NamedTuple):
    momentum: float
    energy: float
    energy_expected: float
    energy_rel_err: float
    mass_sq: float
    mass_sq_rel_err: float


def dispersion_scan(
    kernel: CovarianceKernel, momenta: Sequence[float]
) -> List[DispersionRow]:
    """One-particle <H> and <M^2> against the relativistic expectation.

    Everything here is Euclidean: energies come from a derivative of the
    contractive semigroup, not from any analytic continuation.
    """
    rows = []
    m2 = kernel.mass * kernel.mass
    for p in momenta:
        probe = standard_test_function(float(p))
        norm = one_particle_inner(kernel, probe, probe).real
        energy = one_particle_hamiltonian(kernel, probe, probe).value.real / norm
        mass_sq = one_particle_mass_squared(kernel, probe, probe).value.real / norm
        expected = math.sqrt(p * p + m2)
        rows.append(
            DispersionRow(
                momentum=float(p),
                energy=energy,
                energy_expected=expected,
                energy_rel_err=abs(energy - expected) / expected,
                mass_sq=mass_sq,
                mass_sq_rel_err=abs(mass_sq - m2) / m2,
            )
        )
    return rows


def random_test_functions(
    kernel: CovarianceKernel,
    rng: np.random.Generator,
    count: int,
    *,
    normalize: str = "physical",
) -> List[EuclideanTestFunction]:
    """Randomized positive-time test functions for property-based checks.

    Amplitudes are normalized to unit norm in the requested inner product
    ("physical" reflects the bra, "euclidean" does not) and then scattered,
    so Gram matrices built from these have order-one structure instead of
    collapsing to a rank-one matrix of vacuum overlaps.
    """
    if normalize not in ("physical", "euclidean"):
        raise ValueError(f"unknown normalization {normalize!r}")
    fns = []
    for _ in range(count):
        tau_width = rng.uniform(0.0012, 0.0025)
        raw = EuclideanTestFunction(
            tau_center=tau_width * rng.uniform(7.5, 11.0),
            tau_width=tau_width,
            space_width=rng.uniform(0.02, 0.06),
            momentum=tuple(40.0 * rng.standard_normal(3)),
            center=tuple(0.01 * rng.uniform(-1.0, 1.0, 3)),
        )
        bra = raw.reflected() if normalize == "physical" else raw
        norm = math.sqrt(kernel._sesqui(bra, raw).real)
        phase = complex(np.exp(2j * math.pi * rng.uniform()))
        fns.append(raw.scaled(rng.uniform(0.5, 1.0) * phase / norm))
    return fns


def cluster_probe_pair(
    kernel: CovarianceKernel,
) -> Tuple[EuclideanTestFunction, EuclideanTestFunction]:
    """Two normalized real-profile lumps for spatial clustering checks.

    Widths are small against 1/mass so the separation window [2/m, 8/m]
    probes the genuinely exponential regime of the covariance.
    """
    def lump(sx: float, st: float) -> EuclideanTestFunction:
        base = EuclideanTestFunction(
            tau_center=7.5 * st, tau_width=st, space_width=sx
        )
        return base.scaled(0.6 / math.sqrt(covariance(kernel, base, base)))

    return lump(0.002, 0.0015), lump(1.3 * 0.002, 1.2 * 0.0015)


def physical_gram(
    kernel: CovarianceKernel, fns: Sequence[EuclideanTestFunction]
) -> np.ndarray:
    """Gram matrix <e^{i phi(f_i)} | e^{i phi(f_j)}> of the physical product."""
    ones = WaveFunctional((1.0,) * len(fns), fns)
    return _pair_terms(kernel, ones, ones, reflect=True, hermitian=True)


def euclidean_gram(
    kernel: CovarianceKernel, fns: Sequence[EuclideanTestFunction]
) -> np.ndarray:
    """Gram matrix of the Euclidean product (no reflection, no time condition)."""
    ones = WaveFunctional((1.0,) * len(fns), fns)
    return _pair_terms(kernel, ones, ones, reflect=False, hermitian=True)
