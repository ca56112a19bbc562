"""Tests for the separable-model closed-form scattering solutions.

The resolvent element is checked three ways: the closed form, the library's
own principal-value quadrature route, and an independent Gauss-Legendre route
written here that regularizes the pole by subtraction instead of a Cauchy
weight.  Frozen anchors below were produced with 40-digit mpmath quadrature
of the defining integral (pole-subtracted for positive energy).
"""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from euscat.errors import AccuracyError, DomainError
from euscat.model import (
    DEFAULT_BINDING,
    DEFAULT_MASS,
    DEFAULT_MPI,
    SeparableModel,
    _f_closed,
    bound_state_energy,
    coupling_for_binding,
    critical_coupling,
    default_model,
    exact_s_on_shell,
    exact_t_on_shell,
    form_factor,
    on_shell_amplitude,
    resolvent_form_factor_element,
)

# 40-digit quadrature anchors for 4*pi*I(E +- i0), default mass/mpi.
RESOLVENT_ANCHORS = {
    -50.0: -5.2700510704314312173e-4,
    -2.2246: -1.9541634006749182235e-3,
    0.0: -3.4504416196723358031e-3,
}
# E = 500^2/938.9, side "above": real part from the pole-subtracted variant,
# imaginary part is the residue -4*pi^2*(m k/2) g(k)^2.
RESOLVENT_K500 = 2.1201759681939416782e-4 - 1.2775521810782858139e-4j


def _pv_resolvent_gl(model, energy):
    """Third route: Gauss-Legendre with analytic pole subtraction.

    Uses PV int_0^K dk/(kon^2 - k^2) = ln((K+kon)/(K-kon)) / (2 kon) to strip
    the singular part, leaving a smooth integrand with a removable point.
    """
    m, mpi = model.mass, model.mpi
    zp = m * energy
    kon = math.sqrt(zp)
    g0 = 1.0 / (mpi**2 + zp)
    c = m * zp * g0 * g0
    cut = 4.0 * kon + 20.0 * mpi

    def smooth(k):
        g = 1.0 / (mpi**2 + k * k)
        num = m * k * k * g * g - c
        return num / (zp - k * k)

    x, w = np.polynomial.legendre.leggauss(200)

    def panel(f, a, b):
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        return half * np.sum(w * f(mid + half * x))

    total = 0.0
    edges = [0.0, 0.5 * kon, 1.5 * kon, cut]
    for a, b in zip(edges[:-1], edges[1:]):
        total += panel(smooth, a, b)
    total += c * math.log((cut + kon) / (cut - kon)) / (2.0 * kon)

    def tail(t):
        k = cut / (1.0 - t)
        g = 1.0 / (mpi**2 + k * k)
        return m * k * k * g * g / (zp - k * k) * cut / (1.0 - t) ** 2

    total += panel(tail, 0.0, 1.0 - 1e-12)
    residue = math.pi * (m * kon / 2.0) * g0 * g0
    return 4.0 * math.pi * complex(total, -residue)


class TestResolventElement:
    def test_matches_frozen_anchors_at_nonpositive_energy(self):
        mod = default_model()
        for energy, expected in RESOLVENT_ANCHORS.items():
            got = resolvent_form_factor_element(mod, energy)
            assert got.imag == 0.0
            assert got.real == pytest.approx(expected, rel=1e-13)

    def test_matches_frozen_anchor_above_threshold(self):
        mod = default_model()
        got = resolvent_form_factor_element(mod, 500.0**2 / DEFAULT_MASS, "above")
        assert got == pytest.approx(RESOLVENT_K500, rel=1e-13)

    def test_closed_form_against_library_quadrature(self):
        mod = default_model()
        energies = np.concatenate(
            [
                np.linspace(-50.0, -0.5, 40),
                [-20.58, -20.578, -2.2246],
                np.linspace(0.5, 2000.0**2 / DEFAULT_MASS, 40),
            ]
        )
        for energy in energies:
            cf = resolvent_form_factor_element(mod, float(energy), "above")
            qd = resolvent_form_factor_element(
                mod, float(energy), "above", method="quadrature"
            )
            assert abs(cf - qd) <= 1e-10 * abs(cf)

    def test_closed_form_against_gauss_legendre_subtraction(self):
        mod = default_model()
        for k in (180.0, 500.0, 1200.0):
            energy = k * k / mod.mass
            cf = resolvent_form_factor_element(mod, energy, "above")
            gl = _pv_resolvent_gl(mod, energy)
            assert abs(cf - gl) <= 1e-8 * abs(cf)

    def test_sides_are_complex_conjugates(self):
        mod = default_model()
        for energy in (3.0, 266.269, 4260.3):
            above = resolvent_form_factor_element(mod, energy, "above")
            below = resolvent_form_factor_element(mod, energy, "below")
            assert above == pytest.approx(below.conjugate(), rel=1e-14)
            assert above.imag < 0.0

    def test_real_below_threshold_regardless_of_side(self):
        mod = default_model()
        for side in ("above", "below"):
            val = resolvent_form_factor_element(mod, -7.5, side)
            assert val.imag == 0.0

    def test_smooth_across_series_switchover(self):
        # Energies around m*E = -mpi^2 (1 +- 1/4), where partial fractions of
        # the integral nearly cancel, must still agree with the quadrature.
        mod = default_model()
        b2 = mod.mpi**2
        for sign in (1.0, -1.0):
            for eps in (0.9999, 1.0001):
                energy = (sign * 0.25 * eps * b2 - b2) / mod.mass
                cf = resolvent_form_factor_element(mod, energy)
                qd = resolvent_form_factor_element(mod, energy, method="quadrature")
                assert abs(cf - qd) <= 1e-11 * abs(cf)

    def test_rejects_bad_arguments(self):
        mod = default_model()
        with pytest.raises(ValueError):
            resolvent_form_factor_element(mod, 1.0, "sideways")
        with pytest.raises(ValueError):
            resolvent_form_factor_element(mod, 1.0, method="guess")
        with pytest.raises(DomainError):
            resolvent_form_factor_element(mod, float("nan"))
        with pytest.raises(DomainError):
            resolvent_form_factor_element(mod, 1.0 + 1.0j)


def _f_reference(zp: int, beta: int, side: str) -> complex:
    """-pi times the exact rational 1/(4b (b+kappa)^2) at an integer square z'."""
    root = math.isqrt(abs(zp))
    if zp <= 0:
        return -math.pi * float(Fraction(1, 4 * beta * (beta + root) ** 2))
    # kappa = -+ik: 1/(b -+ ik)^2 = (b^2 - k^2 +- 2ibk) / (b^2 + k^2)^2
    scale = Fraction(1, 4 * beta * (beta * beta + zp) ** 2)
    im = (2 if side == "above" else -2) * beta * root * scale
    return -math.pi * complex(float((beta * beta - zp) * scale), float(im))


class TestArrayForm:
    def test_f_closed_matches_exact_rational_values(self):
        # z' = -kappa^2 covers kappa near b = mpi, where partial fractions of
        # F cancel; z' = k^2 covers both sides of the cut.
        b = int(DEFAULT_MPI)
        squares = [-q * q for q in range(400)] + [k * k for k in range(1, 6001)]
        for side in ("above", "below"):
            values = _f_closed(np.array(squares, dtype=float), DEFAULT_MPI, side)
            reference = np.array([_f_reference(z, b, side) for z in squares])
            assert np.all(np.abs(values - reference) <= 1e-14 * np.abs(reference))

    def test_on_shell_arrays_match_scalar_calls(self):
        mod = default_model()
        ks = np.geomspace(1.0, 6000.0, 97)
        t = exact_t_on_shell(mod, ks)
        s = exact_s_on_shell(mod, ks)
        assert t.shape == s.shape == ks.shape
        for i, k in enumerate(ks):
            assert t[i] == exact_t_on_shell(mod, float(k))
            assert s[i] == exact_s_on_shell(mod, float(k))
        assert isinstance(exact_s_on_shell(mod, 500.0), complex)

    def test_array_with_a_bad_momentum_is_rejected(self):
        with pytest.raises(DomainError, match="got -3.0"):
            exact_t_on_shell(default_model(), np.array([100.0, -3.0, 200.0]))


class TestOnShell:
    def test_frozen_t_values(self):
        # t = -coupling g^2 / (1 + coupling I), I = anchor/(4 pi).
        mod = default_model()
        for k, anchor in ((500.0, RESOLVENT_K500),):
            g = 1.0 / (mod.mpi**2 + k * k)
            expected = -mod.coupling * g * g / (1.0 + mod.coupling * anchor / (4 * math.pi))
            assert exact_t_on_shell(mod, k) == pytest.approx(expected, rel=1e-12)

    def test_unitarity_scan(self):
        mod = default_model()
        for k in np.linspace(50.0, 2000.0, 60):
            t = exact_t_on_shell(mod, float(k))
            optical = t.imag + math.pi * mod.mass * k / 2.0 * abs(t) ** 2
            assert abs(optical) <= 1e-12 * abs(t)
            assert abs(abs(exact_s_on_shell(mod, float(k))) - 1.0) <= 1e-12

    def test_weak_coupling_reduces_to_first_order(self):
        # For coupling -> 0, t -> -coupling g^2 with relative error
        # |coupling * I|, so the deviation must shrink linearly.
        k = 500.0
        base = coupling_for_binding()
        devs = []
        for scale in (1e-3, 1e-4):
            mod = SeparableModel(DEFAULT_MASS, base * scale)
            g = 1.0 / (mod.mpi**2 + k * k)
            born = -mod.coupling * g * g
            t = exact_t_on_shell(mod, k)
            devs.append(abs(t - born) / abs(t))
        assert devs[0] < 2e-4
        assert devs[1] == pytest.approx(devs[0] * 0.1, rel=0.05)

    def test_amplitude_bundle_is_consistent(self):
        mod = default_model()
        amp = on_shell_amplitude(mod, 350.0)
        assert amp.momentum == 350.0
        assert amp.t_on_shell == exact_t_on_shell(mod, 350.0)
        expected_s = 1.0 - 1j * math.pi * mod.mass * 350.0 * amp.t_on_shell
        assert amp.s_matrix == pytest.approx(expected_s, rel=1e-15)
        assert amp.s_matrix == pytest.approx(
            complex(math.cos(2 * amp.phase_shift), math.sin(2 * amp.phase_shift)),
            rel=1e-12,
        )

    def test_phase_shift_decreasing_without_branch_jumps(self):
        # Attractive nearly-bound system: delta falls from near pi/2 toward 0.
        # Steps stay far below pi, so no atan2 branch is being crossed.
        mod = default_model()
        ks = np.linspace(100.0, 1500.0, 120)
        phases = np.array([on_shell_amplitude(mod, float(k)).phase_shift for k in ks])
        steps = np.diff(phases)
        assert np.all(steps < 0.0)
        assert np.max(np.abs(steps)) < 0.5

    def test_rejects_nonpositive_momentum(self):
        mod = default_model()
        for bad in (0.0, -3.0, float("inf")):
            with pytest.raises(DomainError):
                exact_t_on_shell(mod, bad)


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestOverflowLimits:
    """Finite inputs whose m*E or k^2 overflows reach the limits F -> 0,
    t -> 0 and S -> 1 with no warning, never NaN."""

    @pytest.mark.parametrize("side", ["above", "below"])
    @pytest.mark.parametrize("energy", [1e307, -1e307, 1.7e308, -1.7e308])
    def test_resolvent_element_vanishes(self, energy, side):
        value = resolvent_form_factor_element(default_model(), energy, side)
        assert abs(value) <= 1e-300

    @pytest.mark.parametrize("k", [1e160, 1e200, 1e306, 1.7e308])
    def test_scalar_amplitudes(self, k):
        mod = default_model()
        assert abs(exact_t_on_shell(mod, k)) <= 1e-300
        assert abs(exact_s_on_shell(mod, k) - 1.0) <= 1e-15
        amplitude = on_shell_amplitude(mod, k)
        assert abs(amplitude.s_matrix - 1.0) <= 1e-15
        assert abs(amplitude.phase_shift) <= 1e-15

    def test_array_amplitudes(self):
        mod = default_model()
        ks = np.array([1e160, 1e200, 1e306, 1.7e308])
        assert np.all(np.abs(exact_t_on_shell(mod, ks)) <= 1e-300)
        assert np.all(np.abs(exact_s_on_shell(mod, ks) - 1.0) <= 1e-15)


class TestBoundState:
    def test_default_model_reproduces_target_binding(self):
        assert bound_state_energy(default_model()) == pytest.approx(
            DEFAULT_BINDING, abs=1e-8
        )

    def test_coupling_for_binding_roundtrip(self):
        for binding in (-0.5, -2.2246, -30.0):
            lam = coupling_for_binding(DEFAULT_MASS, binding, DEFAULT_MPI)
            mod = SeparableModel(DEFAULT_MASS, lam)
            assert bound_state_energy(mod) == pytest.approx(binding, rel=1e-9)

    def test_critical_coupling_analytic_value(self):
        # I(0) = -pi m / (4 mpi^3) gives the threshold 4 mpi^3 / (pi m).
        expected = 4.0 * DEFAULT_MPI**3 / (math.pi * DEFAULT_MASS)
        assert critical_coupling() == pytest.approx(expected, rel=1e-12)

    def test_no_bound_state_below_threshold(self):
        lam_c = critical_coupling()
        assert bound_state_energy(SeparableModel(DEFAULT_MASS, 0.999 * lam_c)) is None
        assert bound_state_energy(SeparableModel(DEFAULT_MASS, 0.0)) is None
        shallow = bound_state_energy(SeparableModel(DEFAULT_MASS, 1.001 * lam_c))
        assert shallow is not None
        assert -0.1 < shallow < 0.0

    def test_deeper_binding_needs_stronger_coupling(self):
        lams = [coupling_for_binding(DEFAULT_MASS, b) for b in (-1.0, -5.0, -25.0)]
        assert lams[0] < lams[1] < lams[2]

    def test_rejects_nonnegative_binding(self):
        with pytest.raises(DomainError):
            coupling_for_binding(DEFAULT_MASS, 0.0)

    def test_huge_coupling_gives_a_finite_energy(self):
        deep = bound_state_energy(SeparableModel(DEFAULT_MASS, 1e30))
        assert deep == pytest.approx(-5.650346499e27, rel=1e-10)
        try:
            deepest = bound_state_energy(SeparableModel(DEFAULT_MASS, 1e308))
        except AccuracyError:
            return
        assert math.isfinite(deepest) and deepest < 0.0

    @pytest.mark.parametrize("eps", [1e-2, 1e-4, 1e-6, 1e-8])
    def test_near_critical_bound_state_is_exact(self, eps):
        # (mpi + sqrt(-m E))^2 = coupling*pi*m/(4 mpi) is the bound-state
        # condition; it must hold to rounding even as E -> 0-.
        lam = critical_coupling() * (1.0 + eps)
        energy = bound_state_energy(SeparableModel(DEFAULT_MASS, lam))
        assert energy is not None and energy < 0.0
        lhs = (DEFAULT_MPI + math.sqrt(-DEFAULT_MASS * energy)) ** 2
        rhs = lam * math.pi * DEFAULT_MASS / (4.0 * DEFAULT_MPI)
        assert abs(lhs - rhs) <= 1e-14 * rhs

    @pytest.mark.parametrize("binding", [-1e-6, -1e-3, -0.5, -2.2246, -30.0, -1e3])
    def test_coupling_for_binding_roundtrip_tight(self, binding):
        lam = coupling_for_binding(DEFAULT_MASS, binding, DEFAULT_MPI)
        energy = bound_state_energy(SeparableModel(DEFAULT_MASS, lam))
        assert energy == pytest.approx(binding, rel=1e-11)

    def test_coupling_for_extreme_bindings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert math.isfinite(coupling_for_binding(DEFAULT_MASS, -1e300))
            # The coupling, about 1.8e309, exceeds the float range.
            with pytest.raises(AccuracyError, match="overflows"):
                coupling_for_binding(DEFAULT_MASS, -1e307)

    @pytest.mark.parametrize(
        "coupling, mpi",
        [
            (0.0, DEFAULT_MPI),
            (-5000.0, DEFAULT_MPI),
            (critical_coupling(), DEFAULT_MPI),
            (1e6, DEFAULT_MPI),
            (1e308, DEFAULT_MPI),
            (1e308, 1e-3),
        ],
    )
    def test_bound_state_edge_contract(self, coupling, mpi):
        # Any finite coupling gives None, a finite negative energy, or a
        # typed error; never NaN, +-inf or a "bound state" at E = 0.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                energy = bound_state_energy(SeparableModel(DEFAULT_MASS, coupling, mpi))
            except AccuracyError:
                return
        assert energy is None or (math.isfinite(energy) and energy < 0.0)


class TestModelBasics:
    def test_form_factor_shapes_and_values(self):
        mod = default_model()
        assert form_factor(mod, 0.0) == pytest.approx(1.0 / mod.mpi**2)
        arr = form_factor(mod, np.array([100.0, 200.0]))
        assert arr.shape == (2,)
        assert arr[0] == pytest.approx(1.0 / (mod.mpi**2 + 1e4))

    def test_default_model_parameters(self):
        mod = default_model()
        assert mod.mass == DEFAULT_MASS
        assert mod.mpi == DEFAULT_MPI
        assert mod.coupling == pytest.approx(6430.562874127651, rel=1e-12)

    def test_rejects_unphysical_parameters(self):
        with pytest.raises(DomainError):
            SeparableModel(mass=-1.0, coupling=10.0)
        with pytest.raises(DomainError):
            SeparableModel(mass=DEFAULT_MASS, coupling=float("nan"))
        with pytest.raises(DomainError):
            SeparableModel(mass=DEFAULT_MASS, coupling=10.0, mpi=0.0)
