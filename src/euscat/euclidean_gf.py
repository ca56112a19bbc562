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
changes results by under 1e-9 relative (the cut sits 6 widths out) while
keeping every structural identity of a genuine covariance exact.

All physical-sector positivity, contraction, Hermiticity, dispersion and
cluster statements checked by the tests follow from this one kernel; the
Hamiltonian, momentum and squared-mass elements are central finite
differences of group translations with Richardson extrapolation, never
analytic derivatives, so that the differentiation layer is exercised too.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from typing import List, NamedTuple, Sequence, Tuple, Union

import numpy as np
from scipy.special import erfcx

from .errors import AccuracyError, ConfigError, DomainError, PreconditionError
from .spectral import _LOG_FLOAT_MAX, _panel_nodes

Vector3 = Tuple[float, float, float]

_ZERO3: Vector3 = (0.0, 0.0, 0.0)

# the hard support cut of a test function's time profile, in time widths
_CUT_SIGMAS = 6.0


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

    def __post_init__(self) -> None:
        if not math.isfinite(self.tau_center):
            raise DomainError(f"tau_center must be finite, got {self.tau_center}")
        if not (self.tau_width > 0 and math.isfinite(self.tau_width)):
            raise DomainError(f"tau_width must be positive, got {self.tau_width}")
        if not (self.space_width > 0 and math.isfinite(self.space_width)):
            raise DomainError(f"space_width must be positive, got {self.space_width}")
        momentum = tuple(map(float, self.momentum))
        center = tuple(map(float, self.center))
        amplitude = complex(self.amplitude)
        object.__setattr__(self, "momentum", momentum)
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "amplitude", amplitude)
        for name, parts in (
            ("momentum", momentum),
            ("center", center),
            ("amplitude", (amplitude,)),
        ):
            if not all(map(cmath.isfinite, parts)):
                raise DomainError(f"{name} must be finite, got {getattr(self, name)}")
        if len(momentum) != 3 or len(center) != 3:
            raise DomainError(
                f"momentum and center must be 3-vectors, got {momentum}, {center}"
            )

    @property
    def is_positive_time(self) -> bool:
        return self.tau_center - _CUT_SIGMAS * self.tau_width > 0.0

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

    def shifted_in_time(self, dt: float) -> "WaveFunctional":
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
# most _MAX_REFINEMENTS doublings.  No panel takes more than _MAX_PANEL_NODES
# nodes: roots_legendre grows faster than linearly in the order.
_BASE_POINTS = 80
_TOL = 1e-10
_MAX_REFINEMENTS = 7
_MAX_PANEL_NODES = 30000


class _Pairs(NamedTuple):
    """Constants of a batch of (bra, ket) pairs, one row per pair.

    ``edges`` holds 0, lo, hi and top of the three radial panels around the
    peak, ``counts`` the node count of each panel at the base resolution (0
    when the peak is too close to 0 for a panel below it).  ``kappa`` is the
    prefactor of the radial integral, including the angular 4 pi and the
    time factor's pi st_f st_g; S, w_tilde and const are the coefficients of
    its integrand, s2 = st_f^2 + st_g^2 and gap = |t_f - t_g| the arguments
    of the time factor.
    """

    kappa: np.ndarray
    edges: np.ndarray
    counts: np.ndarray
    S: np.ndarray
    w_tilde: np.ndarray
    const: np.ndarray
    s2: np.ndarray
    gap: np.ndarray

    def take(self, rows: np.ndarray) -> "_Pairs":
        return _Pairs(*(field[rows] for field in self))


def _pairs(bras, kets) -> _Pairs:
    """Peak-centered panels with oscillation-aware node counts, and the pair
    constants of the radial integrand, for each (bra, ket) pair."""

    def fields(fns):
        return (
            np.array([fn.tau_center for fn in fns], dtype=float),
            np.array([fn.tau_width for fn in fns], dtype=float),
            np.array([fn.space_width for fn in fns], dtype=float),
            np.array([fn.momentum for fn in fns], dtype=float).reshape(-1, 3),
            np.array([fn.center for fn in fns], dtype=float).reshape(-1, 3),
            np.array([fn.amplitude for fn in fns], dtype=complex),
        )

    tb, stb, sxb, pb, cb, ab = fields(bras)
    tk, stk, sxk, pk, ck, ak = fields(kets)
    S = sxb**2 + sxk**2
    vr = pb * sxb[:, None] ** 2 + pk * sxk[:, None] ** 2
    vi = cb - ck
    sigma_p = 1.0 / np.sqrt(S)
    peak = np.sqrt(np.sum(vr * vr, axis=1)) / S
    osc = np.sqrt(np.sum(vi * vi, axis=1))
    lo = np.maximum(0.0, peak - 12.0 * sigma_p)
    edges = np.stack(
        [np.zeros_like(lo), lo, peak + 12.0 * sigma_p, peak + 30.0 * sigma_p], axis=1
    )
    base = np.array([_BASE_POINTS // 2, _BASE_POINTS, _BASE_POINTS // 2])
    counts = base + np.floor(osc[:, None] * np.diff(edges, axis=1) / 2.0)
    counts[:, 0] = np.where(lo > 0.0, counts[:, 0], 0.0)
    v = vr + 1j * vi
    w_tilde = np.sqrt(np.sum(v * v, axis=1))
    const = -0.5 * (sxb**2 * np.sum(pb * pb, axis=1) + sxk**2 * np.sum(pk * pk, axis=1))
    phase = np.sum(pk * ck, axis=1) - np.sum(pb * cb, axis=1)
    kappa = np.conj(ab) * ak * (sxb * sxk) ** 3 * np.exp(1j * phase)
    kappa *= 4.0 * math.pi**2 * stb * stk
    s2 = stb**2 + stk**2
    return _Pairs(kappa, edges, counts, S, w_tilde, const, s2, np.abs(tb - tk))


class CovarianceKernel:
    """Free two-point covariance of mass ``mass`` with adaptive quadrature."""

    def __init__(self, mass: float) -> None:
        if not (mass > 0 and math.isfinite(mass)):
            raise DomainError(f"mass must be positive and finite, got {mass}")
        self.mass = float(mass)

    # -- time factor -------------------------------------------------------
    @staticmethod
    def _time_factor(omega: np.ndarray, s2: np.ndarray, gap: np.ndarray) -> np.ndarray:
        """T = 2 int e^{-omega|u|} N(u; gap, s2) du per node: the double time
        integral against e^{-omega|t-t'|}, over pi st_f st_g.

        With z-+ = (omega s2 -+ gap)/sqrt(2 s2), so that z+ >= 0,
        T = e^{-gap^2/(2 s2)} [erfcx(z+) +- erfcx(|z-|)] + 2 [z- < 0] e^{E},
        E = omega (omega s2/2 - gap), the minus and the last term exactly when
        z- < 0: erfcx(z-) = 2 e^{z-^2} - erfcx(|z-|) there, and E < 0.  The
        clamp of E at 0 elsewhere only keeps an unused exponential finite.
        """
        root = np.sqrt(2.0 * s2)
        z_minus = (omega * s2 - gap) / root
        below = z_minus < 0.0
        tails = erfcx((omega * s2 + gap) / root)
        tails += np.where(below, -1.0, 1.0) * erfcx(np.abs(z_minus))
        folded = np.exp(np.minimum(omega * (0.5 * omega * s2 - gap), 0.0))
        return np.exp(-gap * gap / (2.0 * s2)) * tails + 2.0 * below * folded

    # -- radial integrand ---------------------------------------------------
    def _sesqui_at_resolution(
        self, pairs: _Pairs, factor: float
    ) -> Tuple[np.ndarray, np.ndarray]:
        """(integral, integral of the magnitude) of every pair, with
        ``factor`` times the base node counts; the nodes of all pairs are
        evaluated as one array."""
        counts = pairs.counts * factor
        widest = float(np.max(counts))
        if widest > _MAX_PANEL_NODES:
            raise AccuracyError(
                f"covariance quadrature needs {widest:.0f} nodes on one panel, "
                f"above the cap of {_MAX_PANEL_NODES}"
            )
        counts = counts.astype(int)
        present = counts > 0
        lo, hi = pairs.edges[:, :-1][present], pairs.edges[:, 1:][present]
        p, wp = _panel_nodes(
            list(zip(lo.tolist(), hi.tolist(), counts[present].tolist()))
        )
        sizes = np.sum(counts, axis=1)

        def per_node(constant: np.ndarray) -> np.ndarray:
            return np.repeat(constant, sizes)

        omega = np.sqrt(p * p + self.mass * self.mass)
        time = self._time_factor(omega, per_node(pairs.s2), per_node(pairs.gap))
        radial = wp * p * p / (2.0 * omega) * time
        pw = p * per_node(pairs.w_tilde)
        gauss = per_node(pairs.const) - 0.5 * per_node(pairs.S) * p * p
        # e^gauss sinh(pw)/pw = e^{gauss+pw} (1 - e^{-2pw})/(2pw), Re pw >= 0;
        # adding the mask of pw = 0 (w_tilde = 0) to both sides gives its limit 1
        zero = pw == 0.0
        env = np.exp(gauss + pw) * (zero - np.expm1(-2.0 * pw)) / (2.0 * pw + zero)
        vals = radial * env
        starts = np.cumsum(sizes) - sizes
        return np.add.reduceat(vals, starts), np.add.reduceat(np.abs(vals), starts)

    def _sesqui(
        self,
        bras: Sequence[EuclideanTestFunction],
        kets: Sequence[EuclideanTestFunction],
    ) -> np.ndarray:
        """<bra, C ket> for each pair of ``bras`` and ``kets``, with the bra's
        Fourier data conjugated.

        Each pass evaluates every open pair at once; a pair closes when two
        successive resolutions agree to _TOL, and only the others go on to
        the next doubling.
        """
        pairs = _pairs(bras, kets)
        values = np.zeros(pairs.kappa.size, dtype=complex)
        rows = np.flatnonzero(pairs.kappa != 0)
        if rows.size == 0:
            return values
        previous, _ = self._sesqui_at_resolution(pairs.take(rows), 1.0)
        for level in range(1, _MAX_REFINEMENTS + 1):
            current, magnitude = self._sesqui_at_resolution(
                pairs.take(rows), 2.0**level
            )
            gap = np.abs(current - previous)
            # the magnitude term is the roundoff floor of a cancelling sum
            done = gap <= _TOL * np.abs(current) + 1e-13 * magnitude
            values[rows[done]] = pairs.kappa[rows[done]] * current[done]
            rows, previous = rows[~done], current[~done]
            if rows.size == 0:
                return values
        change = gap[~done] / np.maximum(np.abs(previous), 1e-300)
        raise AccuracyError(
            f"covariance quadrature stalled at relative change "
            f"{np.max(change):.3e} (target {_TOL:.1e})"
        )


def covariance(
    kernel: CovarianceKernel, f: EuclideanTestFunction, g: EuclideanTestFunction
) -> float:
    """<f, C g> for real-profile test functions (symmetric, positive kernel).

    A real profile is its own conjugate, so the sesquilinear core gives it;
    complex profiles have no real bilinear value: use one_particle_inner.
    """
    for fn in (f, g):
        if not fn.is_real_profile:
            raise PreconditionError(
                "covariance needs real-profile test functions; "
                "one_particle_inner handles complex profiles"
            )
    return float(kernel._sesqui([f], [g])[0].real)


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


def _gf_values(kernel: CovarianceKernel, combinations) -> List[float]:
    """Z[h] = exp(-cov(h,h)/2) for each real combination h of real-profile
    parts, with the term pairs of all combinations in one batch."""
    for terms in combinations:
        for _, fn in terms:
            if not fn.is_real_profile:
                raise PreconditionError(
                    "gf_value takes real combinations of real-profile functions"
                )
    pairs = [(fi, fj) for terms in combinations for _, fi in terms for _, fj in terms]
    values = iter(kernel._sesqui(*zip(*pairs)).real)
    results = []
    for terms in combinations:
        quad = 0.0
        for ci, _ in terms:
            for cj, _ in terms:
                quad += ci * cj * next(values)
        results.append(math.exp(-0.5 * quad))
    return results


def gf_value(kernel: CovarianceKernel, h: GfArgument) -> float:
    """Z[h] = exp(-cov(h,h)/2) for a real combination of real-profile parts."""
    return _gf_values(kernel, [_as_combination(h)])[0]


def _require_positive_time(fns: Sequence[EuclideanTestFunction]) -> None:
    for fn in fns:
        if not fn.is_positive_time:
            raise PreconditionError(
                f"test function with tau_center={fn.tau_center} and support "
                f"cut {_CUT_SIGMAS}*{fn.tau_width} is not positive-time"
            )


def _pair_terms(
    kernel, products, reflect: bool, hermitian: bool = False
) -> List[np.ndarray]:
    """Terms conj(b_j) c_k Z[g_k - R conj(f_j)] of the inner product of each
    (B, C) of ``products``; the pairs of all products and the
    self-covariances cov(f, f) of their functions go through one batch.

    R is the time reflection Theta when ``reflect`` (every function must
    then be positive-time) and the identity otherwise.  ``hermitian`` (for
    B = C) computes only the terms with k >= j and fills the rest by
    conjugate mirroring, with a real diagonal, so the result is exactly
    Hermitian.
    """
    functions = [(B.functions, C.functions) for B, C in products]
    if reflect:
        _require_positive_time([fn for fs, gs in functions for fn in fs + gs])
    index, bras, kets = [], [], []
    for fs, gs in functions:
        every = np.ones((len(fs), len(gs)), dtype=bool)
        js, ks = np.nonzero(np.triu(every) if hermitian else every)
        index.append((js, ks))
        sides = [f.reflected() for f in fs] if reflect else fs
        bras += [sides[j] for j in js]
        kets += [gs[k] for k in ks]
    selves = list(dict.fromkeys(fn for fs, gs in functions for fn in fs + gs))
    values = kernel._sesqui(bras + [f.conjugated() for f in selves], kets + selves)
    self_cov = dict(zip(selves, values[len(bras) :]))
    results, start = [], 0
    for (B, C), (fs, gs), (js, ks) in zip(products, functions, index):
        exponent = values[start : start + js.size] - 0.5 * (
            np.array([self_cov[gs[k]] for k in ks])
            + np.conj(np.array([self_cov[fs[j]] for j in js]))
        )
        start += js.size
        over = np.flatnonzero(exponent.real > _LOG_FLOAT_MAX)
        if over.size:
            i = over[0]
            raise AccuracyError(
                f"pair ({js[i]}, {ks[i]}) overflows: its exponent {exponent[i]:.6g} "
                f"has real part above log(float max) = {_LOG_FLOAT_MAX:.2f}"
            )
        terms = np.zeros((len(fs), len(gs)), dtype=complex)
        b, c = np.array(B.coefficients), np.array(C.coefficients)
        terms[js, ks] = np.conj(b[js]) * c[ks] * np.exp(exponent)
        if hermitian:
            strict = np.triu(terms, 1)
            terms = strict + strict.conj().T + np.diag(terms.diagonal().real)
        results.append(terms)
    return results


def _physical_inners(kernel, products) -> List[complex]:
    """<B|C> of each (B, C) of ``products``, as one batch."""
    return [
        complex(sum(terms.flat, 0j))
        for terms in _pair_terms(kernel, products, reflect=True)
    ]


def euclidean_inner(
    kernel: CovarianceKernel, B: WaveFunctional, C: WaveFunctional
) -> complex:
    """(B, C) = sum sum conj(b_j) c_k Z[g_k - conj(f_j)]."""
    (terms,) = _pair_terms(kernel, [(B, C)], reflect=False)
    return complex(sum(terms.flat, 0j))


def physical_inner(
    kernel: CovarianceKernel, B: WaveFunctional, C: WaveFunctional
) -> complex:
    """<B|C> = sum sum conj(b_j) c_k Z[g_k - Theta conj(f_j)].

    Every test function of both functionals must have positive-time support;
    this is what makes the quadratic form positive semidefinite.
    """
    return _physical_inners(kernel, [(B, C)])[0]


def time_translate(B: WaveFunctional, beta: float) -> WaveFunctional:
    """e^{-beta H} |B>: shifts every time center forward by beta >= 0."""
    if not (0 <= beta < math.inf):
        raise DomainError(f"beta must be finite and >= 0, got {beta}")
    return B.shifted_in_time(beta)


def _one_particle_inners(kernel, pairs) -> List[complex]:
    """<f|g> of each (f, g) of ``pairs``, as one batch."""
    _require_positive_time([fn for pair in pairs for fn in pair])
    values = kernel._sesqui([f.reflected() for f, _ in pairs], [g for _, g in pairs])
    return [complex(value) for value in values]


def one_particle_inner(
    kernel: CovarianceKernel, f: EuclideanTestFunction, g: EuclideanTestFunction
) -> complex:
    """<f|g> on the one-particle (linear) sector: cov(Theta conj(f), g).

    The bra is conjugated, as an inner product requires; this is the
    sesquilinear two-point reduction of the physical product and the cleanest
    probe of the energy-momentum spectrum.
    """
    return _one_particle_inners(kernel, [(f, g)])[0]


# -- finite differences ----------------------------------------------------


def _steps(h: float) -> Tuple[float, float, float, float]:
    """The steps of one Richardson stencil."""
    return h, -h, h / 2, -h / 2


def _richardson(values: Sequence[complex], h: float, f0=None) -> FDResult:
    """Central difference at 0 of F, given at the steps ``_steps(h)``, with
    steps h and h/2, Richardson-combined: the first derivative, or the
    second when the center value f0 is given."""
    plus, minus, half_plus, half_minus = values
    if f0 is None:
        coarse = (plus - minus) / (2.0 * h)
        fine = (half_plus - half_minus) / h
    else:
        coarse = (plus - 2.0 * f0 + minus) / (h * h)
        fine = (half_plus - 2.0 * f0 + half_minus) / (h * h / 4.0)
    return FDResult((4.0 * fine - coarse) / 3.0, abs(fine - coarse) / 3.0)


def _omega_estimate(kernel: CovarianceKernel, fns) -> float:
    top = max(float(np.linalg.norm(fn.momentum)) for fn in fns)
    return math.sqrt(top * top + kernel.mass * kernel.mass)


def _time_step(kernel: CovarianceKernel, fns, factor: float) -> float:
    _require_positive_time(fns)
    margin = min(fn.tau_center - _CUT_SIGMAS * fn.tau_width for fn in fns)
    return min(factor / _omega_estimate(kernel, fns), margin / 4.0)


def _generator(generator: str, kernel, bra, ket) -> FDResult:
    """<bra|G|ket> for G = "H", "P" or "M2" as Richardson-extrapolated central
    differences of an inner product under group translations: the physical
    product for wave functionals, the one-particle product for test
    functions.  The points of all stencils of one element go through one
    batch."""
    if isinstance(bra, WaveFunctional):
        inner, fns = _physical_inners, bra.functions + ket.functions
    else:
        inner, fns = _one_particle_inners, (bra, ket)
    if generator == "H":
        h = _time_step(kernel, fns, 0.02)
        values = inner(kernel, [(bra, ket.shifted_in_time(s)) for s in _steps(h)])
        part = _richardson(values, h)
        return FDResult(-part.value, part.error)
    if generator == "P":
        h = 0.02 / _omega_estimate(kernel, fns)
        values = inner(
            kernel,
            [(bra.translated(s * axis), ket) for axis in np.eye(3) for s in _steps(h)],
        )
        parts = [_richardson(values[i : i + 4], h) for i in range(0, 12, 4)]
        momenta = np.array([-1j * part.value for part in parts])
        return FDResult(momenta, float(np.max([part.error for part in parts])))
    h = _time_step(kernel, fns, 0.07)
    f0, *values = inner(
        kernel,
        [(bra, ket)]
        + [(bra, ket.shifted_in_time(s)) for s in _steps(h)]
        + [(bra, ket.translated(s * axis)) for axis in np.eye(3) for s in _steps(h)],
    )
    parts = [_richardson(values[i : i + 4], h, f0) for i in range(0, 16, 4)]
    value = sum((part.value for part in parts[1:]), parts[0].value)
    return FDResult(value, max(part.error for part in parts))


def hamiltonian_element(
    kernel: CovarianceKernel, B: WaveFunctional, C: WaveFunctional
) -> FDResult:
    """<B|H|C> = -d/dbeta <B|C_beta> at beta=0, Richardson-extrapolated."""
    return _generator("H", kernel, B, C)


def momentum_element(
    kernel: CovarianceKernel, B: WaveFunctional, C: WaveFunctional
) -> FDResult:
    """<B|P|C> = -i d/da <B_a|C> at a=0, componentwise.

    The bra is the translated side; with ket translation the same formula
    would produce the opposite sign for plane-wave momenta.
    """
    return _generator("P", kernel, B, C)


def mass_squared_element(
    kernel: CovarianceKernel, B: WaveFunctional, C: WaveFunctional
) -> FDResult:
    """<B|M^2|C> = (d^2/dbeta^2 + Laplacian_a) <B|C_{beta,a}> at zero."""
    return _generator("M2", kernel, B, C)


def one_particle_hamiltonian(
    kernel: CovarianceKernel, f: EuclideanTestFunction, g: EuclideanTestFunction
) -> FDResult:
    return _generator("H", kernel, f, g)


def one_particle_momentum(
    kernel: CovarianceKernel, f: EuclideanTestFunction, g: EuclideanTestFunction
) -> FDResult:
    return _generator("P", kernel, f, g)


def one_particle_mass_squared(
    kernel: CovarianceKernel, f: EuclideanTestFunction, g: EuclideanTestFunction
) -> FDResult:
    return _generator("M2", kernel, f, g)


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
    if not np.all(np.isfinite(dists)):
        raise ConfigError(f"distances must be finite, got {dists.tolist()}")
    if np.any(np.diff(dists) <= 0) or dists[0] <= 0:
        raise ConfigError("distances must be positive and strictly ascending")
    joints = [[(1.0, f), (1.0, g.translated((a, 0.0, 0.0)))] for a in dists]
    zf, zg, *joint = _gf_values(kernel, [[(1.0, f)], [(1.0, g)]] + joints)
    deviations = np.abs(np.array(joint) - zf * zg)
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
) -> List[EuclideanTestFunction]:
    """Randomized positive-time test functions for property-based checks.

    Amplitudes are normalized to unit one-particle norm and then scattered,
    so Gram matrices built from these have order-one structure instead of
    collapsing to a rank-one matrix of vacuum overlaps.
    """
    raws, scales = [], []
    for _ in range(count):
        tau_width = rng.uniform(0.0012, 0.0025)
        raws.append(
            EuclideanTestFunction(
                tau_center=tau_width * rng.uniform(7.5, 11.0),
                tau_width=tau_width,
                space_width=rng.uniform(0.02, 0.06),
                momentum=tuple(40.0 * rng.standard_normal(3)),
                center=tuple(0.01 * rng.uniform(-1.0, 1.0, 3)),
            )
        )
        phase = complex(np.exp(2j * math.pi * rng.uniform()))
        scales.append(rng.uniform(0.5, 1.0) * phase)
    # no draw depends on a norm, so the norms come after the draws, in one batch
    norms = kernel._sesqui([raw.reflected() for raw in raws], raws).real
    return [
        raw.scaled(scale / math.sqrt(norm))
        for raw, scale, norm in zip(raws, scales, norms)
    ]


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
    return _pair_terms(kernel, [(ones, ones)], reflect=True, hermitian=True)[0]


def euclidean_gram(
    kernel: CovarianceKernel, fns: Sequence[EuclideanTestFunction]
) -> np.ndarray:
    """Gram matrix of the Euclidean product (no reflection, no time condition)."""
    ones = WaveFunctional((1.0,) * len(fns), fns)
    return _pair_terms(kernel, [(ones, ones)], reflect=False, hermitian=True)[0]
