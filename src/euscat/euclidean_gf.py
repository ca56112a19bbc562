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
import functools
import itertools
import math
import sys
from dataclasses import dataclass
from typing import List, NamedTuple, Sequence, Tuple, Union

import numpy as np

from .errors import AccuracyError, ConfigError, DomainError, PreconditionError
from .spectral import _LOG_FLOAT_MAX, _panel_nodes

Vector3 = Tuple[float, float, float]

_ZERO3: Vector3 = (0.0, 0.0, 0.0)

# the hard support cut of a test function's time profile, in time widths
_CUT_SIGMAS = 6.0


def _require_finite(name: str, value) -> None:
    """``DomainError`` unless ``value``, a number or a tuple, is all finite."""
    if not all(map(cmath.isfinite, value if isinstance(value, tuple) else (value,))):
        raise DomainError(f"{name} must be finite, got {value}")


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
        self.__dict__.update(
            tau_center=float(self.tau_center), tau_width=float(self.tau_width),
            space_width=float(self.space_width), momentum=tuple(map(float, self.momentum)),
            center=tuple(map(float, self.center)), amplitude=complex(self.amplitude),
        )
        for name in ("tau_center", "momentum", "center", "amplitude"):
            _require_finite(name, getattr(self, name))
        if len(self.momentum) != 3 or len(self.center) != 3:
            raise DomainError(
                f"momentum and center must be 3-vectors, got {self.momentum}, {self.center}"
            )
        # _pairs forms (sx_f sx_g)^3, (sx_f sx_g)^2 and st_f^2 + st_g^2, each
        # between its values for f and for g paired with itself
        st, sx = self.tau_width, self.space_width
        for name, width, constant in (
            ("tau_width", st, st * st + st * st),
            ("space_width", sx, (sx * sx) * (sx * sx) * (sx * sx)),
        ):
            if not (width > 0 and sys.float_info.min <= constant < math.inf):
                raise DomainError(
                    f"{name} must be positive with a finite normal pair constant, got {width}"
                )

    @property
    def is_positive_time(self) -> bool:
        return self.tau_center - _CUT_SIGMAS * self.tau_width > 0.0

    @property
    def is_real_profile(self) -> bool:
        return self.momentum == _ZERO3 and self.amplitude.imag == 0.0

    def _derived(self, **changes) -> "EuclideanTestFunction":
        """A copy with ``changes`` set as given, without ``__post_init__``:
        the other fields were validated when this instance was made, and each
        caller passes values of the stored types.  A change that is not
        finite raises ``DomainError``."""
        for name, value in changes.items():
            _require_finite(name, value)
        new = object.__new__(EuclideanTestFunction)
        new.__dict__.update(self.__dict__, **changes)
        return new

    def reflected(self) -> "EuclideanTestFunction":
        """Euclidean time reflection tau -> -tau."""
        return self._derived(tau_center=-self.tau_center)

    def shifted_in_time(self, dt: float) -> "EuclideanTestFunction":
        return self._derived(tau_center=self.tau_center + float(dt))

    def translated(self, shift) -> "EuclideanTestFunction":
        """f(x - shift): moves the center and carries the plane-wave phase."""
        shift = tuple(map(float, shift))
        if len(shift) != 3:
            raise DomainError(f"expected a 3-vector, got {shift}")
        center = tuple(c + s for c, s in zip(self.center, shift))
        phase = sum(p * s for p, s in zip(self.momentum, shift))
        # a phase past the float range leaves no carrier: nan, refused below
        carrier = cmath.exp(complex(0.0, -phase)) if math.isfinite(phase) else math.nan
        return self._derived(center=center, amplitude=self.amplitude * carrier)

    def conjugated(self) -> "EuclideanTestFunction":
        """Pointwise complex conjugate: flips momentum, conjugates amplitude."""
        p = tuple(-x for x in self.momentum)
        return self._derived(momentum=p, amplitude=self.amplitude.conjugate())

    def scaled(self, factor: complex) -> "EuclideanTestFunction":
        return self._derived(amplitude=self.amplitude * complex(factor))


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
        self.__dict__.update(coefficients=coeffs, functions=fns)

    def shifted_in_time(self, dt: float) -> "WaveFunctional":
        return WaveFunctional(
            self.coefficients, tuple(f.shifted_in_time(dt) for f in self.functions)
        )

    def translated(self, shift) -> "WaveFunctional":
        return WaveFunctional(
            self.coefficients, tuple(f.translated(shift) for f in self.functions)
        )


class FDResult(NamedTuple):
    """A finite-difference derivative and an error estimate.

    ``value`` is the Richardson combination (4 fine - coarse)/3 of the
    central differences with steps h and h/2.  ``error`` is
    |fine - coarse|/3, the error estimate of the h/2 stencil ``fine``, not
    of ``value``, which is two orders in h more accurate; so it is loose.
    On the five dispersion probes of the default ``gf-report`` it reads 1e-4
    to 3.5e-3 of m^2, where their M^2 misses m^2 by 1.7e-8 to 5.1e-8.
    """

    value: Union[complex, np.ndarray]
    error: float


@dataclass(frozen=True)
class ClusterReport:
    distances: np.ndarray
    deviations: np.ndarray
    fitted_rate: float


# The radial grid starts from _BASE_POINTS per peak panel; every panel is
# doubled until two successive resolutions agree to _TOL relative, for at
# most _MAX_REFINEMENTS doublings.  With the integrand's exponent formed
# without cancellation, 40 base points already agree with 80 on nearly every
# pair, and the dispersion probes' M^2 moves by under 1e-10 from 40 to 640
# base points.  No panel takes more than _MAX_PANEL_NODES nodes: a
# Gauss-Legendre rule costs the square of its order.
_BASE_POINTS = 40
_TOL = 1e-10
_MAX_REFINEMENTS = 7
_MAX_PANEL_NODES = 30000
# converged integrals a kernel keeps; a kernel whose memo would pass this
# empties it first.  A gf benchmark pass converges about 2500 distinct ones.
_MEMO_CAP = 4096


class _Table(NamedTuple):
    """Test functions as columns, one row per function: time centers and
    widths, space widths, momenta and centers (n x 3) and amplitudes."""

    tau: np.ndarray
    tau_width: np.ndarray
    space_width: np.ndarray
    momentum: np.ndarray
    center: np.ndarray
    amplitude: np.ndarray

    def take(self, rows: np.ndarray) -> "_Table":
        return _Table(*(column[rows] for column in self))

    def reflected(self) -> "_Table":
        return self._replace(tau=-self.tau)

    def conjugated(self) -> "_Table":
        return self._replace(momentum=-self.momentum, amplitude=self.amplitude.conj())


def _table(fns: Sequence[EuclideanTestFunction]) -> _Table:
    rows = [(f.tau_center, f.tau_width, f.space_width, *f.momentum, *f.center) for f in fns]
    fields = np.array(rows, dtype=float).reshape(-1, 9)
    amplitudes = np.array([f.amplitude for f in fns], dtype=complex)
    return _Table(*fields[:, :3].T, fields[:, 3:6], fields[:, 6:], amplitudes)


def _stacked(*tables: _Table) -> _Table:
    return _Table(*map(np.concatenate, zip(*tables)))


class _Pairs(NamedTuple):
    """Constants of a batch of (bra, ket) pairs, one row per pair.

    ``edges`` holds 0, lo, hi and top of the three radial panels around the
    peak, ``counts`` the node count of each panel at the base resolution (0
    when the peak is too close to 0 for a panel below it).  ``kappa`` is the
    prefactor of the radial integral, including the angular 4 pi and the
    time factor's pi st_f st_g; S, w_tilde and const are the coefficients of
    its integrand's exponent const - (S/2)(p - w_r/S)^2 + i p w_i, and
    s2 = st_f^2 + st_g^2 and gap = |t_f - t_g| the arguments of the time
    factor.  Every field but ``kappa`` is free of the amplitudes, and
    together they fix the radial integral.
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

    def keys(self) -> List[bytes]:
        """The memo key of each pair: the bytes of its row of every field
        but ``kappa``."""
        w = self.w_tilde
        rows = np.column_stack(
            [self.edges, self.counts, self.S, w.real, w.imag, self.const, self.s2, self.gap]
        )
        blob, width = rows.tobytes(), rows.shape[1] * rows.itemsize
        return [blob[start : start + width] for start in range(0, len(blob), width)]


def _pairs(bras: _Table, kets: _Table) -> _Pairs:
    """Peak-centered panels with oscillation-aware node counts, and the pair
    constants of the radial integrand, for each (bra, ket) row pair."""
    tb, stb, sxb, pb, cb, ab = bras
    tk, stk, sxk, pk, ck, ak = kets
    a, b = sxb**2, sxk**2
    S = a + b
    vr = pb * a[:, None] + pk * b[:, None]
    vi = cb - ck
    vi_sq = (vi * vi).sum(axis=1)
    sigma_p = 1.0 / np.sqrt(S)
    peak = np.sqrt((vr * vr).sum(axis=1)) / S
    edges = np.zeros((S.size, 4))
    edges[:, 1] = np.maximum(0.0, peak - 12.0 * sigma_p)
    edges[:, 2] = peak + 12.0 * sigma_p
    edges[:, 3] = peak + 30.0 * sigma_p
    base = np.array([_BASE_POINTS // 2, _BASE_POINTS, _BASE_POINTS // 2])
    counts = base + np.floor(np.sqrt(vi_sq)[:, None] * (edges[:, 1:] - edges[:, :-1]) / 2.0)
    counts[edges[:, 1] == 0.0, 0] = 0.0
    v = vr + 1j * vi
    w_tilde = np.sqrt((v * v).sum(axis=1))
    # the constant of the completed square, -(a |p_b|^2 + b |p_k|^2)/2 +
    # w_r^2/(2S) with a = sx_b^2 and b = sx_k^2, with its large terms
    # cancelled in closed form; it is <= 0, as w_i^2 <= |v_i|^2
    dp = pb - pk
    const = (w_tilde.imag**2 - a * b * (dp * dp).sum(axis=1) - vi_sq) / (2.0 * S)
    phase = (pk * ck).sum(axis=1) - (pb * cb).sum(axis=1)
    kappa = np.conj(ab) * ak * (sxb * sxk) ** 3 * np.exp(1j * phase)
    kappa *= 4.0 * math.pi**2 * stb * stk
    s2 = stb**2 + stk**2
    return _Pairs(kappa, edges, counts, S, w_tilde, const, s2, np.abs(tb - tk))


# erfcx(x) = e^{x^2} erfc(x) on x >= 0 by Weideman's rational series (SIAM J.
# Numer. Anal. 31 (1994) 1497): with L = sqrt(N/sqrt 2) and
# Z = (L - x)/(L + x), erfcx(x) = 2 p(Z)/(L + x)^2 + 1/(sqrt(pi) (L + x)) for a
# polynomial p of degree N - 1.  N = 40 keeps the error within 3 eps of
# 40-digit values from 0 to 1e4; N = 36 reaches 4.1 eps near x = 1e-4.
_ERFCX_TERMS = 40
_ERFCX_SCALE = math.sqrt(_ERFCX_TERMS / math.sqrt(2.0))
_FRAC_1_SQRT_PI = 1.0 / math.sqrt(math.pi)


@functools.lru_cache(maxsize=None)
def _erfcx_coefficients() -> Tuple[np.ndarray, ...]:
    """The coefficients of p, the highest degree first: one FFT of
    e^{-t^2}(L^2 + t^2) at t = L tan(k pi/2M), |k| < M = 2N.  Built on first
    use, so that only the covariance loads ``numpy.fft``.  Each is a 0-d
    array, which an in-place add takes about 20% faster than a float."""
    terms, scale = _ERFCX_TERMS, _ERFCX_SCALE
    t = scale * np.tan(np.arange(1 - 2 * terms, 2 * terms) * (math.pi / (4 * terms)))
    samples = np.concatenate([[0.0], np.exp(-t * t) * (scale * scale + t * t)])
    a = np.fft.fft(np.fft.fftshift(samples)).real / (4 * terms)
    return tuple(np.array(c) for c in a[terms:0:-1])


def _erfcx(x: np.ndarray) -> np.ndarray:
    """erfcx(x) = e^{x^2} erfc(x) for x >= 0, inf included, to within 3 eps
    relative; Horner's rule in Z = (L - x)/(L + x), formed as 1 - 2x/(L + x)
    so that no rounding of L enters near Z = 1."""
    top, *rest = _erfcx_coefficients()
    u = 1.0 / (_ERFCX_SCALE + x)
    # x = inf leaves u = 0 and so the value 0 whatever Z is; the clamp only
    # keeps Z finite there, as inf * 0 would not be
    z = 1.0 - 2.0 * (np.minimum(x, sys.float_info.max) * u)
    p = top * z
    for c in rest[:-1]:
        p += c
        p *= z
    p += rest[-1]
    return (2.0 * p * u + _FRAC_1_SQRT_PI) * u


class CovarianceKernel:
    """Free two-point covariance of mass ``mass`` with adaptive quadrature.

    A kernel keeps the radial integral of every pair it has converged,
    keyed by the pair's amplitude-free constants (``_Pairs.keys``), so a
    pair it meets again costs no quadrature.  The memo holds at most
    _MEMO_CAP integrals, and it is emptied whenever the mass or a quadrature
    setting differs from the ones its integrals were computed under.
    """

    def __init__(self, mass: float) -> None:
        # omega = sqrt(p^2 + m^2) and the time steps divide by m^2
        if not (mass > 0 and sys.float_info.min <= mass * mass < math.inf):
            raise DomainError(f"mass must be positive with a finite normal square, got {mass}")
        self.mass = float(mass)
        self._settings: tuple = ()
        self._integrals: dict = {}

    def _memo(self) -> dict:
        """The integrals converged under the current settings."""
        settings = (self.mass, _BASE_POINTS, _TOL, _MAX_REFINEMENTS, _MAX_PANEL_NODES)
        if settings != self._settings:
            self._settings, self._integrals = settings, {}
        return self._integrals

    # -- time factor -------------------------------------------------------
    @staticmethod
    def _time_factor(
        omega: np.ndarray, s2: np.ndarray, gap: np.ndarray, sizes: np.ndarray
    ) -> np.ndarray:
        """T = 2 int e^{-omega|u|} N(u; gap, s2) du per node: the double time
        integral against e^{-omega|t-t'|}, over pi st_f st_g.  ``s2`` and
        ``gap`` are given per pair, and pair i owns the next ``sizes[i]``
        entries of ``omega``.

        With z-+ = omega sqrt(s2/2) -+ gap/sqrt(2 s2), so that z+ >= 0,
        T = D [erfcx(z+) +- erfcx(|z-|)] + 2 [z- < 0] e^{E}, D = e^{-gap^2/(2 s2)},
        E = omega (omega s2/2 - gap), the minus and the last term exactly when
        z- < 0: erfcx(z-) = 2 e^{z-^2} - erfcx(|z-|) there, and E < 0.  The
        clamp of E at 0 elsewhere only keeps an unused exponential finite.

        The erfcx pair is evaluated only on the nodes where it can change T.
        Where D = 0, T is the last term.  Where z- < 0 and D <= 2^-56 e^E,
        |D [...]| <= 2 D is below half an ulp of 2 e^E, so T rounds to 2 e^E
        as it would with the pair.  Where gap = 0, z- = z+ and one value
        serves both.
        """
        root = np.sqrt(2.0 * s2)
        # from gap = 40 root on, the damping is e^{-1600}, 0 in floats, so the
        # gap is clamped there.  On those pairs the clamped z- < 0 differs
        # from the true one only where E < -1600.
        near = np.minimum(gap, 40.0 * root)
        shift = near / root
        with np.errstate(over="ignore"):
            exponent = near * near / (2.0 * s2)
        # near * near overflows from about 1.3e154 (a width near 1e153); the
        # exponent is shift^2 there, and only there, so no finite one moves
        damping = np.exp(-np.where(np.isinf(exponent), shift * shift, exponent))
        damping, half, shift, s2, gap = (
            np.repeat(column, sizes) for column in (damping, 0.5 * root, shift, s2, gap)
        )
        centre = omega * half
        z_minus = centre - shift
        below = z_minus < 0.0
        # omega s2 passes the float range only where z- > 0 and the last term
        # is unused, and E only far below -745, where e^E is 0 anyway
        with np.errstate(over="ignore"):
            folded = np.exp(omega * np.minimum(0.5 * (omega * s2) - gap, 0.0))
        time = 2.0 * below * folded
        # 2^-57 time is 2^-56 e^E where z- < 0 and 0 elsewhere
        kept = np.flatnonzero(damping > 2.0**-57 * time)
        if kept.size == 0:
            # as in most batches of a gf pass, whose reflected pairs lie many
            # time widths apart
            return time
        gapped = shift[kept] > 0.0
        values = _erfcx(
            np.concatenate([centre[kept] + shift[kept], np.abs(z_minus[kept[gapped]])])
        )
        tails = values[: kept.size]
        other = tails.copy()
        other[gapped] = values[kept.size :]
        tails += np.where(below[kept], -1.0, 1.0) * other
        time[kept] = damping[kept] * tails + time[kept]
        return time

    # -- radial integrand ---------------------------------------------------
    def _sesqui_at_resolution(
        self, pairs: _Pairs, factors: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """(integral, integral of the magnitude) of every pair, with
        ``factors[i]`` times the base node counts for pair i; the nodes of
        all pairs are evaluated as one array."""
        counts = pairs.counts * factors[:, None]
        widest = float(np.max(counts))
        if widest > _MAX_PANEL_NODES:
            raise AccuracyError(
                f"covariance quadrature needs {widest:.0f} nodes on one panel, "
                f"above the cap of {_MAX_PANEL_NODES}"
            )
        counts = counts.astype(int)
        present = counts > 0
        lo, hi = pairs.edges[:, :-1][present], pairs.edges[:, 1:][present]
        p, wp = _panel_nodes(lo, hi, counts[present])
        sizes = np.sum(counts, axis=1)

        def per_node(constant: np.ndarray) -> np.ndarray:
            return np.repeat(constant, sizes)

        omega = np.sqrt(p * p + self.mass * self.mass)
        time = self._time_factor(omega, pairs.s2, pairs.gap, sizes)
        radial = wp * p / (4.0 * omega) * time
        # 2p w e^gauss sinh(pw)/(pw) = g (-e cos(phi) + i (2 + e) sin(phi)) for
        # gauss + pw = const - (S/2)(p - w_r/S)^2 + i phi, with g = e^{Re},
        # e = e^{-2p w_r} - 1 and phi = p w_i: no term cancels, as w_r >= 0
        w = pairs.w_tilde
        g = np.exp(
            per_node(pairs.const)
            - per_node(0.5 * pairs.S) * (p - per_node(w.real / pairs.S)) ** 2
        )
        g *= radial
        e = np.expm1(p * per_node(-2.0 * w.real))
        phi = p * per_node(w.imag)
        re = -g * e * np.cos(phi)
        im = g * (2.0 + e) * np.sin(phi)
        # re and im vanish where w = 0; the limit 1 of sinh(pw)/(pw) there
        zero = w == 0.0
        if zero.any():
            re += 2.0 * p * g * per_node(zero)
        starts = np.cumsum(sizes) - sizes
        scale = np.where(zero, 1.0, w)
        integral = (np.add.reduceat(re, starts) + 1j * np.add.reduceat(im, starts)) / scale
        return integral, np.add.reduceat(np.hypot(re, im), starts) / np.abs(scale)

    def _converged(self, pairs: _Pairs) -> np.ndarray:
        """The radial integral of every pair, to _TOL: the first pass
        evaluates every pair at the base and the doubled resolution at once;
        a pair closes when two successive resolutions agree, and only the
        others go on to the next doubling."""
        size = pairs.kappa.size
        rows = np.arange(size)
        integrals = np.empty(size, dtype=complex)
        both, magnitude = self._sesqui_at_resolution(
            pairs.take(np.tile(rows, 2)), np.repeat([1.0, 2.0], size)
        )
        previous, current, magnitude = both[:size], both[size:], magnitude[size:]
        level = 1
        while True:
            gap = np.abs(current - previous)
            # the magnitude term is the roundoff floor of a cancelling sum
            done = gap <= _TOL * np.abs(current) + 1e-13 * magnitude
            integrals[rows[done]] = current[done]
            rows, previous = rows[~done], current[~done]
            if rows.size == 0:
                return integrals
            if level == _MAX_REFINEMENTS:
                break
            level += 1
            current, magnitude = self._sesqui_at_resolution(
                pairs.take(rows), np.full(rows.size, 2.0**level)
            )
        change = gap[~done] / np.maximum(np.abs(previous), 1e-300)
        raise AccuracyError(
            f"covariance quadrature stalled at relative change "
            f"{np.max(change):.3e} (target {_TOL:.1e})"
        )

    def _sesqui(self, bras: _Table, kets: _Table) -> np.ndarray:
        """<bra, C ket> for each row pair of ``bras`` and ``kets``, with the
        bra's Fourier data conjugated: kappa times the radial integral.

        Each distinct integral that the memo does not hold goes to
        quadrature once, all of them in one ``_converged`` batch; the memo
        then keeps them.
        """
        pairs = _pairs(bras, kets)
        values = np.zeros(pairs.kappa.size, dtype=complex)
        rows = np.flatnonzero(pairs.kappa != 0)
        pairs = pairs.take(rows)
        keys = pairs.keys()
        memo = self._memo()
        integrals = {key: memo[key] for key in keys if key in memo}
        todo = {key: row for row, key in enumerate(keys) if key not in integrals}
        if todo:
            converged = self._converged(pairs.take(np.fromiter(todo.values(), int, len(todo))))
            new = dict(zip(todo, converged.tolist()))
            if len(memo) + len(new) > _MEMO_CAP:
                memo.clear()
            memo.update(itertools.islice(new.items(), _MEMO_CAP))
            integrals.update(new)
        values[rows] = pairs.kappa * np.array([integrals[key] for key in keys], dtype=complex)
        return values


def covariance(
    kernel: CovarianceKernel, f: EuclideanTestFunction, g: EuclideanTestFunction
) -> float:
    """<f, C g> for real-profile test functions (symmetric, positive kernel).

    A real profile is its own conjugate, so the sesquilinear core gives it;
    complex profiles have no real bilinear value: use one_particle_inner.
    """
    if not (f.is_real_profile and g.is_real_profile):
        raise PreconditionError(
            "covariance needs real-profile test functions; "
            "one_particle_inner handles complex profiles"
        )
    return float(kernel._sesqui(_table([f]), _table([g]))[0].real)


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
    if not all(fn.is_real_profile for terms in combinations for _, fn in terms):
        raise PreconditionError("gf_value takes real combinations of real-profile functions")
    pairs = [(fi, fj) for terms in combinations for _, fi in terms for _, fj in terms]
    bras, kets = zip(*pairs)
    values = iter(kernel._sesqui(_table(bras), _table(kets)).real)
    results = []
    for terms in combinations:
        quad = 0.0
        for (ci, _), (cj, _) in itertools.product(terms, terms):
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


def _pair_terms(kernel, products, reflect: bool) -> List[np.ndarray]:
    """Terms conj(b_j) c_k Z[g_k - R conj(f_j)] of the inner product of each
    (B, C) of ``products``; the pairs of all products and the
    self-covariances cov(f, f) of their functions go through one batch, on
    one table of every function of every product.

    R is the time reflection Theta when ``reflect`` (every function must
    then be positive-time) and the identity otherwise.  A product of a
    functional with itself (``C is B``) puts its functions into the table
    once and computes only the terms with k >= j; the others are their
    conjugate mirror, with a real diagonal, so its terms are exactly
    Hermitian.
    """
    functions, index = [], []
    for B, C in products:
        n, m = len(B.functions), len(C.functions)
        js, ks = np.divmod(np.arange(n * m), m)
        if C is B:
            upper = ks >= js
            js, ks = js[upper], ks[upper]
        start = len(functions)
        # the rows of f_j and g_k in the table; C's follow B's unless C is B
        ket_start = start if C is B else start + n
        functions += B.functions if C is B else B.functions + C.functions
        index.append((js, ks, start + js, ket_start + ks))
    if reflect:
        _require_positive_time(functions)
    table = _table(functions)
    # the bras are R f_j, rows 0..size of the sides, and for the
    # self-covariances conj(f), rows size..2 size
    size = len(functions)
    sides = _stacked(table.reflected() if reflect else table, table.conjugated())
    every_row = np.arange(size)
    values = kernel._sesqui(
        sides.take(np.concatenate([bra for _, _, bra, _ in index] + [size + every_row])),
        table.take(np.concatenate([ket for _, _, _, ket in index] + [every_row])),
    )
    self_cov = values[values.size - size :]
    results, offset = [], 0
    for (B, C), (js, ks, bra, ket) in zip(products, index):
        exponent = values[offset : offset + js.size] - 0.5 * (
            self_cov[ket] + np.conj(self_cov[bra])
        )
        offset += js.size
        over = np.flatnonzero(exponent.real > _LOG_FLOAT_MAX)
        if over.size:
            i = over[0]
            raise AccuracyError(
                f"pair ({js[i]}, {ks[i]}) overflows: its exponent {exponent[i]:.6g} "
                f"has real part above log(float max) = {_LOG_FLOAT_MAX:.2f}"
            )
        terms = np.zeros((len(B.functions), len(C.functions)), dtype=complex)
        b, c = np.array(B.coefficients), np.array(C.coefficients)
        terms[js, ks] = np.conj(b[js]) * c[ks] * np.exp(exponent)
        if C is B:
            strict = np.triu(terms, 1)
            terms = strict + strict.conj().T + np.diag(terms.diagonal().real)
        results.append(terms)
    return results


def _inners(kernel, products, reflect: bool = True) -> List[complex]:
    """The inner product of each (B, C) of ``products``, as one batch: the
    physical one when ``reflect``, else the Euclidean one.  A product of a
    functional with itself keeps only the real part of its sum, as its terms
    are Hermitian."""
    terms = _pair_terms(kernel, products, reflect)
    totals = [complex(sum(t.flat, 0j)) for t in terms]
    return [complex(v.real) if C is B else v for (B, C), v in zip(products, totals)]


def euclidean_inner(
    kernel: CovarianceKernel, B: WaveFunctional, C: WaveFunctional
) -> complex:
    """(B, C) = sum sum conj(b_j) c_k Z[g_k - conj(f_j)]."""
    return _inners(kernel, [(B, C)], reflect=False)[0]


def physical_inner(
    kernel: CovarianceKernel, B: WaveFunctional, C: WaveFunctional
) -> complex:
    """<B|C> = sum sum conj(b_j) c_k Z[g_k - Theta conj(f_j)].

    Every test function of both functionals must have positive-time support;
    this is what makes the quadratic form positive semidefinite.
    """
    return _inners(kernel, [(B, C)])[0]


def time_translate(B: WaveFunctional, beta: float) -> WaveFunctional:
    """e^{-beta H} |B>: shifts every time center forward by beta >= 0."""
    if not (0 <= beta < math.inf):
        raise DomainError(f"beta must be finite and >= 0, got {beta}")
    return B.shifted_in_time(beta)


def _one_particle_inners(kernel, pairs) -> List[complex]:
    """<f|g> of each (f, g) of ``pairs``, as one batch."""
    _require_positive_time([fn for pair in pairs for fn in pair])
    bras, kets = zip(*pairs)
    return list(map(complex, kernel._sesqui(_table(bras).reflected(), _table(kets))))


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
        inner, fns = _inners, bra.functions + ket.functions
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


# deviations at or below this times Z[f] Z[g] are rounding noise: on the
# default probe pair, at 18 separations from 2/m to 30/m, Z[f + g_a] -
# Z[f] Z[g] misses Z[f] Z[g] |expm1(-cov(f, g_a))| by at most
# 0.58 eps Z[f] Z[g], so an accepted deviation is good to 5.7e-4 relative
_CLUSTER_FLOOR = 2.0**10 * np.finfo(float).eps


def cluster_check(
    kernel: CovarianceKernel,
    f: EuclideanTestFunction,
    g: EuclideanTestFunction,
    distances: Sequence[float],
) -> ClusterReport:
    """Deviation |Z[f + g_a] - Z[f] Z[g]| along spatial separations.

    Fits ln(deviation) = c0 - rate*a - nu*ln(a) by least squares; for this
    kernel the deviation is essentially Z^2 |cov(f, g_a)| and the rate is the
    field mass (the mass gap controls spacelike clustering).  A deviation at
    or below 2^10 eps Z[f] Z[g], where rounding dominates it, raises
    ``AccuracyError``.
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
    floor = _CLUSTER_FLOOR * zf * zg
    if not np.all(deviations > floor):
        raise AccuracyError(
            f"cluster deviation {np.min(deviations):.3e} is at or below the rounding "
            f"floor 2^10 eps Z[f] Z[g] = {floor:.3e}; separations too large"
        )
    design = np.column_stack([np.ones(dists.size), -dists, -np.log(dists)])
    coeffs, *_ = np.linalg.lstsq(design, np.log(deviations), rcond=None)
    return ClusterReport(
        distances=dists, deviations=deviations, fitted_rate=float(coeffs[1])
    )


# -- canonical states and scans ----------------------------------------------


# the dispersion probe's time width, and its center in those widths
_PROBE_WIDTH = 0.0035
_PROBE_CENTER_WIDTHS = 7.5
# largest omega(p) * _PROBE_WIDTH that dispersion_scan accepts: the probe's
# Laplace saddle then stays 3 widths inside the reflection point
_PROBE_MAX_OMEGA_WIDTH = _PROBE_CENTER_WIDTHS - 3.0


def standard_test_function(momentum_x: float = 0.0) -> EuclideanTestFunction:
    """The canonical one-particle probe used by dispersion checks.

    Its time width 0.0035 must keep omega*width well under the 7.5 widths
    between its center and the reflection point over the momenta probed:
    past that, the Laplace-transform saddle of the time profile crosses the
    reflection point and the semigroup derivative saturates instead of
    reading omega(p).  ``dispersion_scan`` accepts omega*width up to 4.5,
    the saddle 3 widths inside: |p| up to 1278 MeV at mass 139 MeV, where
    M^2 is off by 1.3e-3 (by 1.5e-2 at 1400 MeV).
    """
    return EuclideanTestFunction(
        tau_center=_PROBE_CENTER_WIDTHS * _PROBE_WIDTH,
        tau_width=_PROBE_WIDTH,
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
    contractive semigroup, not from any analytic continuation.  A momentum
    the probe cannot resolve, omega(p) * 0.0035 above 4.5 (see
    ``standard_test_function``), raises ``DomainError`` before any quadrature.
    """
    for p in momenta:
        omega = math.hypot(p, kernel.mass)
        if not omega * _PROBE_WIDTH <= _PROBE_MAX_OMEGA_WIDTH:
            raise DomainError(
                f"momentum {p} MeV is beyond the dispersion probe: omega(p) = "
                f"{omega:.6g} MeV, but the probe resolves omega(p) <= "
                f"{_PROBE_MAX_OMEGA_WIDTH / _PROBE_WIDTH:.6g} MeV"
            )
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


# largest Gram diagonal exponent of a random test function: below
# log(float max) = 709.78 with room for an 8 x 8 Gram and a two-term inner
# product; unshrunk draws reach 645 on the benchmark's gf seeds 0-149
_GRAM_EXPONENT_BOUND = 600.0


def random_test_functions(
    kernel: CovarianceKernel,
    rng: np.random.Generator,
    count: int,
) -> List[EuclideanTestFunction]:
    """Randomized positive-time test functions for property-based checks.

    Each amplitude a is a scatter factor in [0.5, 1) with a random phase,
    over the one-particle norm, so before the scatter every function has unit
    one-particle norm.  That does not bound the Gram scale: the Gram
    diagonal exponent |a|^2 <f|f> - Re(a^2 cov(f, f)) still ranges over
    hundreds, and the largest Gram eigenvalue over many decades.  Only its
    top is held: a function whose exponent would pass _GRAM_EXPONENT_BOUND
    has a shrunk until the exponent is that bound, as it scales as |a|^2.
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
    # no draw depends on a norm, so the norms and the self-covariances come
    # after the draws, in one batch
    table = _table(raws)
    values = kernel._sesqui(
        _stacked(table.reflected(), table.conjugated()), _stacked(table, table)
    )
    functions = []
    for raw, scale, norm, cov in zip(raws, scales, values[:count].real, values[count:]):
        amplitude = scale / math.sqrt(norm)
        exponent = abs(amplitude) ** 2 * norm - (amplitude * amplitude * cov).real
        if exponent > _GRAM_EXPONENT_BOUND:
            amplitude *= math.sqrt(_GRAM_EXPONENT_BOUND / exponent)
        functions.append(raw.scaled(amplitude))
    return functions


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
    return _pair_terms(kernel, [(ones, ones)], reflect=True)[0]


def euclidean_gram(
    kernel: CovarianceKernel, fns: Sequence[EuclideanTestFunction]
) -> np.ndarray:
    """Gram matrix of the Euclidean product (no reflection, no time condition)."""
    ones = WaveFunctional((1.0,) * len(fns), fns)
    return _pair_terms(kernel, [(ones, ones)], reflect=False)[0]
