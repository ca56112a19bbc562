"""Tests for the Euclidean generating-functional layer.

Reference values below were computed with an independent quadrature: the
angular integral evaluated by direct Gauss-Legendre in the polar cosine
instead of the closed form, and the radial integral by adaptive quadrature.
Self-agreement across doubled orders was 8e-13 relative.
"""

import math

import numpy as np
import pytest
from scipy import integrate

from euscat.errors import AccuracyError, ConfigError, DomainError, PreconditionError
from euscat.euclidean_gf import (
    CovarianceKernel,
    EuclideanTestFunction,
    FDResult,
    WaveFunctional,
    cluster_check,
    cluster_probe_pair,
    covariance,
    dispersion_scan,
    euclidean_gram,
    euclidean_inner,
    gf_value,
    hamiltonian_element,
    mass_squared_element,
    momentum_element,
    one_particle_hamiltonian,
    one_particle_inner,
    one_particle_mass_squared,
    one_particle_momentum,
    physical_gram,
    physical_inner,
    random_test_functions,
    standard_test_function,
    time_translate,
)

MASS = 139.0
KERNEL = CovarianceKernel(MASS)

SEP_INNER = 6.260199303030963e-10
ONE_PARTICLE_COLINEAR = 6.647561408128081e-16 + 9.008249769254744e-16j
SPACE_SEP = 2.959544153277875e-19

SEP_F = EuclideanTestFunction(0.026, 0.0035, 1.0, amplitude=0.7)
SEP_G = EuclideanTestFunction(0.030, 0.0035, 1.0, amplitude=1.1)


def real_lump(tau=0.012, st=0.0015, sx=0.002, amp=1.0):
    return EuclideanTestFunction(tau, st, sx, amplitude=amp)


class TestDescriptors:
    def test_validation(self):
        with pytest.raises(DomainError):
            EuclideanTestFunction(0.1, -0.01, 1.0)
        with pytest.raises(DomainError):
            EuclideanTestFunction(0.1, 0.01, 0.0)
        with pytest.raises(DomainError):
            EuclideanTestFunction(0.1, 0.01, 1.0, cut_sigmas=0.5)
        with pytest.raises(PreconditionError):
            WaveFunctional((1.0, 2.0), (real_lump(),))
        with pytest.raises(PreconditionError):
            WaveFunctional((), ())
        with pytest.raises(DomainError):
            CovarianceKernel(-1.0)
        with pytest.raises(ConfigError):
            CovarianceKernel(MASS, base_points=4)
        with pytest.raises(ConfigError):
            CovarianceKernel(MASS, tol=0.5)
        with pytest.raises(ConfigError):
            CovarianceKernel(MASS, max_refinements=0)

    def test_positive_time_boundary(self):
        assert EuclideanTestFunction(0.0121, 0.002, 1.0).is_positive_time
        assert not EuclideanTestFunction(0.012, 0.002, 1.0).is_positive_time
        assert not EuclideanTestFunction(-0.05, 0.002, 1.0).is_positive_time

    def test_reflection_and_conjugation(self):
        f = EuclideanTestFunction(
            0.02, 0.002, 0.05, momentum=(30.0, -10.0, 5.0), amplitude=1 - 2j
        )
        assert f.reflected().tau_center == -0.02
        assert f.reflected().momentum == f.momentum
        fc = f.conjugated()
        assert fc.momentum == (-30.0, 10.0, -5.0)
        assert fc.amplitude == 1 + 2j
        assert fc.conjugated() == f

    def test_translation_carries_plane_wave_phase(self):
        f = EuclideanTestFunction(0.02, 0.002, 0.05, momentum=(40.0, 0.0, 0.0))
        a = (0.003, 0.001, -0.002)
        ft = f.translated(a)
        assert ft.center == a
        expected = np.exp(-1j * 40.0 * 0.003)
        assert abs(ft.amplitude - expected) < 1e-15
        back = ft.translated(tuple(-x for x in a))
        assert abs(back.amplitude - 1.0) < 1e-14
        assert np.allclose(back.center, (0.0, 0.0, 0.0))

    def test_time_translate_semigroup_exact(self):
        B = WaveFunctional((1.0, 0.5j), (real_lump(0.25), real_lump(0.375)))
        twice = time_translate(time_translate(B, 0.0625), 0.125)
        once = time_translate(B, 0.1875)
        assert twice == once
        with pytest.raises(DomainError):
            time_translate(B, -0.01)


class TestCovariance:
    def test_frozen_space_separated(self):
        f = real_lump()
        g = f.translated((0.03, 0.0, 0.0))
        assert covariance(KERNEL, f, g) == pytest.approx(SPACE_SEP, rel=1e-9)

    def test_symmetric_and_positive(self):
        f = real_lump()
        g = real_lump(tau=0.015, st=0.0018, sx=0.003).translated((0.01, 0.005, 0.0))
        cfg = covariance(KERNEL, f, g)
        cgf = covariance(KERNEL, g, f)
        assert cfg == pytest.approx(cgf, rel=1e-12)
        assert covariance(KERNEL, f, f) > 0
        assert covariance(KERNEL, g, g) > 0
        assert cfg * cfg < covariance(KERNEL, f, f) * covariance(KERNEL, g, g)

    def test_time_decay_rate_is_mass(self):
        base = EuclideanTestFunction(0.026, 0.0035, 1.0)
        taus = np.linspace(0.02, 0.06, 9)
        vals = np.array(
            [covariance(KERNEL, base, base.shifted_in_time(dt)) for dt in taus]
        )
        rate = -np.polyfit(taus, np.log(vals), 1)[0]
        assert rate == pytest.approx(MASS, rel=0.01)

    def test_euclidean_invariance(self):
        f = real_lump()
        g = real_lump(tau=0.014, st=0.0017, sx=0.0025).translated(
            (0.02, -0.01, 0.005)
        )
        ref = covariance(KERNEL, f, g)
        shift = (0.4, -0.2, 0.1)
        moved = covariance(KERNEL, f.translated(shift), g.translated(shift))
        assert moved == pytest.approx(ref, rel=1e-10)
        theta = 0.7
        rot = np.array(
            [
                [math.cos(theta), -math.sin(theta), 0.0],
                [math.sin(theta), math.cos(theta), 0.0],
                [0.0, 0.0, 1.0],
            ]
        )

        def rotate(fn):
            return EuclideanTestFunction(
                fn.tau_center,
                fn.tau_width,
                fn.space_width,
                momentum=tuple(rot @ fn.momentum),
                center=tuple(rot @ fn.center),
                amplitude=fn.amplitude,
            )

        rotated = covariance(KERNEL, rotate(f), rotate(g))
        assert rotated == pytest.approx(ref, rel=1e-10)

    def test_complex_profile_rejected(self):
        boosted = standard_test_function(200.0)
        with pytest.raises(PreconditionError, match="one_particle_inner"):
            covariance(KERNEL, boosted, boosted)

    def test_unreachable_tolerance_raises(self):
        strict = CovarianceKernel(MASS, base_points=16, tol=1e-16, max_refinements=1)
        with pytest.raises(AccuracyError):
            covariance(strict, real_lump(), real_lump(sx=0.0025))


class TestGeneratingFunctional:
    def test_vacuum_is_one(self):
        assert gf_value(KERNEL, real_lump(amp=0.0)) == 1.0

    def test_range(self):
        f, g = cluster_probe_pair(KERNEL)
        for h in (f, [(1.0, f), (1.0, g)], [(0.3, f), (-0.8, g)]):
            z = gf_value(KERNEL, h)
            assert 0 < z <= 1

    def test_invariance_of_combinations(self):
        f, g = cluster_probe_pair(KERNEL)
        g = g.translated((0.02, 0.0, 0.0))
        ref = gf_value(KERNEL, [(1.0, f), (-0.5, g)])
        shift = (0.3, 0.1, -0.2)
        moved = gf_value(
            KERNEL, [(1.0, f.translated(shift)), (-0.5, g.translated(shift))]
        )
        assert moved == pytest.approx(ref, rel=1e-10)

    def test_complex_profile_rejected(self):
        with pytest.raises(PreconditionError):
            gf_value(KERNEL, standard_test_function(100.0))
        with pytest.raises(PreconditionError):
            gf_value(KERNEL, [])

    def test_factorization_at_large_separation(self):
        f, g = cluster_probe_pair(KERNEL)
        far = g.translated((0.4, 0.0, 0.0))
        joint = gf_value(KERNEL, [(1.0, f), (1.0, far)])
        assert joint == pytest.approx(gf_value(KERNEL, f) * gf_value(KERNEL, g), rel=1e-12)

    def test_cluster_rate_is_mass(self):
        f, g = cluster_probe_pair(KERNEL)
        dists = np.linspace(2.0 / MASS, 8.0 / MASS, 9)
        report = cluster_check(KERNEL, f, g, dists)
        assert report.fitted_rate == pytest.approx(MASS, rel=0.10)
        assert np.all(np.diff(report.deviations) < 0)

    def test_cluster_validation(self):
        f, g = cluster_probe_pair(KERNEL)
        with pytest.raises(ConfigError):
            cluster_check(KERNEL, f, g, [0.01, 0.02])
        with pytest.raises(ConfigError):
            cluster_check(KERNEL, f, g, [0.02, 0.01, 0.03])


class TestInnerProducts:
    def test_physical_gram_hermitian_psd(self):
        rng = np.random.default_rng(2024)
        fns = random_test_functions(KERNEL, rng, 8)
        gram = physical_gram(KERNEL, fns)
        assert np.array_equal(gram, gram.conj().T)
        eigs = np.linalg.eigvalsh(0.5 * (gram + gram.conj().T))
        assert eigs.min() >= -1e-10 * eigs.max()

    def test_euclidean_gram_positive(self):
        rng = np.random.default_rng(7)
        fns = random_test_functions(KERNEL, rng, 6, normalize="euclidean")
        gram = euclidean_gram(KERNEL, fns)
        assert np.array_equal(gram, gram.conj().T)
        eigs = np.linalg.eigvalsh(0.5 * (gram + gram.conj().T))
        assert eigs.min() > 0

    def test_overflowing_gram_entry_raises(self):
        # this draw has a diagonal exponent near 743, past log(float max)
        fns = random_test_functions(KERNEL, np.random.default_rng(1067), 8)
        with pytest.raises(AccuracyError, match="exponent"):
            physical_gram(KERNEL, fns)

    def test_euclidean_inner_matches_value_algebra(self):
        f = real_lump(amp=0.9)
        g = real_lump(tau=0.014, st=0.0018, sx=0.0025, amp=0.7)
        B = WaveFunctional((1.0,), (f,))
        C = WaveFunctional((1.0,), (g,))
        direct = euclidean_inner(KERNEL, B, C)
        expected = math.exp(
            -0.5 * covariance(KERNEL, f, f)
            - 0.5 * covariance(KERNEL, g, g)
            + covariance(KERNEL, f, g)
        )
        assert direct == pytest.approx(expected, rel=1e-12)

    def test_physical_needs_positive_time(self):
        good = WaveFunctional((1.0,), (real_lump(),))
        bad = WaveFunctional((1.0,), (EuclideanTestFunction(0.005, 0.001, 1.0),))
        with pytest.raises(PreconditionError):
            physical_inner(KERNEL, good, bad)
        with pytest.raises(PreconditionError):
            physical_inner(KERNEL, bad, good)

    def test_contraction(self):
        rng = np.random.default_rng(11)
        fns = random_test_functions(KERNEL, rng, 3)
        B = WaveFunctional((0.8, -0.5j, 0.3), tuple(fns))
        norm = physical_inner(KERNEL, B, B).real
        for beta in (0.001, 0.01, 0.1):
            shifted = time_translate(B, beta)
            assert physical_inner(KERNEL, shifted, shifted).real <= norm * (1 + 1e-12)

    def test_translation_hermiticity(self):
        rng = np.random.default_rng(5)
        fns = random_test_functions(KERNEL, rng, 2)
        B = WaveFunctional((1.0,), (fns[0],))
        C = WaveFunctional((0.7 + 0.2j,), (fns[1],))
        beta = 0.004
        left = physical_inner(KERNEL, B, time_translate(C, beta))
        right = physical_inner(KERNEL, time_translate(B, beta), C)
        assert left == pytest.approx(right, rel=1e-10)


class TestOneParticle:
    def test_frozen_separated(self):
        value = one_particle_inner(KERNEL, SEP_F, SEP_G)
        assert value.real == pytest.approx(SEP_INNER, rel=1e-11)
        assert abs(value.imag) < 1e-13 * abs(value.real)

    def test_separated_oracle_live(self):
        s2 = 2 * 0.0035**2
        total = SEP_F.tau_center + SEP_G.tau_center

        def integrand(p):
            om = math.sqrt(p * p + MASS * MASS)
            return (
                4
                * math.pi
                * p
                * p
                / (2 * om)
                * 2
                * math.pi
                * 0.0035**2
                * math.exp(0.5 * s2 * om * om - om * total - p * p)
            )

        ref, _ = integrate.quad(
            integrand, 0.0, 30.0, epsabs=0.0, epsrel=1e-13, limit=300
        )
        ref *= 0.7 * 1.1
        value = one_particle_inner(KERNEL, SEP_F, SEP_G).real
        assert value == pytest.approx(ref, rel=1e-11)

    def test_frozen_colinear_complex(self):
        f = EuclideanTestFunction(
            0.020, 0.0018, 0.05, momentum=(60.0, 0, 0), center=(0.004, 0, 0),
            amplitude=0.8 - 0.3j,
        )
        g = EuclideanTestFunction(
            0.024, 0.0022, 0.04, momentum=(-35.0, 0, 0), center=(-0.006, 0, 0),
            amplitude=1.2 + 0.5j,
        )
        value = one_particle_inner(KERNEL, f, g)
        assert value == pytest.approx(ONE_PARTICLE_COLINEAR, rel=5e-12)

    def test_norm_positive(self):
        probe = standard_test_function(300.0)
        norm = one_particle_inner(KERNEL, probe, probe)
        assert norm.real > 0
        assert abs(norm.imag) < 1e-12 * norm.real

    def test_semigroup_weight(self):
        # shifting the ket multiplies the integrand by e^{-beta omega};
        # with p0=0 this lands within [e^{-beta*omega_max}, e^{-beta*m}]
        f = SEP_F
        g = SEP_G
        base = one_particle_inner(KERNEL, f, g).real
        beta = 0.002
        shifted = one_particle_inner(KERNEL, f, g.shifted_in_time(beta)).real
        ratio = shifted / base
        assert ratio < math.exp(-beta * MASS)
        assert ratio > math.exp(-beta * math.sqrt(MASS**2 + 30.0**2))

    def test_mixed_derivative_identity(self):
        f = standard_test_function(120.0, amplitude=1.0)
        g = standard_test_function(90.0, amplitude=1.0)
        norm = math.sqrt(
            one_particle_inner(KERNEL, f, f).real
            * one_particle_inner(KERNEL, g, g).real
        )
        f = f.scaled(0.6 / math.sqrt(one_particle_inner(KERNEL, f, f).real))
        g = g.scaled(0.6 / math.sqrt(one_particle_inner(KERNEL, g, g).real))

        def F(s, t):
            B = WaveFunctional((1.0,), (f.scaled(s),))
            C = WaveFunctional((1.0,), (g.scaled(t),))
            return physical_inner(KERNEL, B, C)

        h = 0.02
        mixed = (F(h, h) - F(h, -h) - F(-h, h) + F(-h, -h)) / (4 * h * h)
        direct = one_particle_inner(KERNEL, f, g)
        assert mixed == pytest.approx(direct, rel=1e-3)

    def test_momentum_and_phase(self):
        probe = standard_test_function(500.0)
        norm = one_particle_inner(KERNEL, probe, probe).real
        mom = one_particle_momentum(KERNEL, probe, probe)
        value = (mom.value / norm).real
        assert value[0] == pytest.approx(500.0, rel=1e-3)
        assert abs(value[1]) < 1e-6 * 500.0
        assert abs(value[2]) < 1e-6 * 500.0
        a = 1e-4
        shifted = one_particle_inner(KERNEL, probe.translated((a, 0, 0)), probe)
        base = one_particle_inner(KERNEL, probe, probe)
        assert np.angle(shifted / base) == pytest.approx(500.0 * a, rel=1e-3)

    def test_dispersion(self):
        rows = dispersion_scan(KERNEL, [0.0, 100.0, 300.0, 500.0, 800.0])
        for row in rows:
            assert row.energy_rel_err < 1e-3, f"p={row.momentum}"
            assert row.mass_sq_rel_err < 5e-3, f"p={row.momentum}"
        masses = np.array([r.mass_sq for r in rows])
        assert np.max(np.abs(masses - MASS**2)) < 5e-3 * MASS**2

    def test_energy_momentum_mass_consistency(self):
        probe = standard_test_function(400.0)
        norm = one_particle_inner(KERNEL, probe, probe).real
        e = one_particle_hamiltonian(KERNEL, probe, probe).value.real / norm
        p = one_particle_momentum(KERNEL, probe, probe).value.real / norm
        m2 = one_particle_mass_squared(KERNEL, probe, probe).value.real / norm
        assert e * e - float(np.dot(p, p)) == pytest.approx(m2, rel=0.01)

    def test_positive_time_required(self):
        late = EuclideanTestFunction(0.005, 0.001, 1.0)
        early = EuclideanTestFunction(0.005, 0.0012, 1.0)
        with pytest.raises(PreconditionError):
            one_particle_inner(KERNEL, late, early)


class TestElements:
    def test_hamiltonian_hermitian(self):
        rng = np.random.default_rng(31)
        fns = random_test_functions(KERNEL, rng, 2)
        B = WaveFunctional((1.0,), (fns[0],))
        C = WaveFunctional((0.6 - 0.4j,), (fns[1],))
        left = hamiltonian_element(KERNEL, B, C)
        right = hamiltonian_element(KERNEL, C, B)
        scale = max(abs(left.value), abs(right.value))
        assert abs(left.value - right.value.conjugate()) < 1e-6 * scale

    def test_vacuum_mass_squared_vanishes(self):
        vac = WaveFunctional((1.0,), (real_lump(amp=0.0),))
        result = mass_squared_element(KERNEL, vac, vac)
        assert abs(result.value) < 1e-6

    def test_weak_amplitude_matches_one_particle(self):
        probe = standard_test_function(300.0)
        probe = probe.scaled(
            0.05 / math.sqrt(one_particle_inner(KERNEL, probe, probe).real)
        )
        vacuum_term = probe.scaled(0.0)
        B = WaveFunctional((1.0, -1.0), (probe, vacuum_term))
        norm = physical_inner(KERNEL, B, B).real
        energy = hamiltonian_element(KERNEL, B, B).value.real / norm
        expected = math.sqrt(300.0**2 + MASS**2)
        assert energy == pytest.approx(expected, rel=0.01)
        m2 = mass_squared_element(KERNEL, B, B).value.real / norm
        assert m2 == pytest.approx(MASS**2, rel=0.02)
        mom = momentum_element(KERNEL, B, B).value.real / norm
        assert mom[0] == pytest.approx(300.0, rel=0.01)

    def test_fd_reports_small_error(self):
        probe = standard_test_function(200.0)
        result = one_particle_hamiltonian(KERNEL, probe, probe)
        assert isinstance(result, FDResult)
        assert result.error < 1e-4 * abs(result.value)
        norm = one_particle_inner(KERNEL, probe, probe).real
        expected = math.sqrt(200.0**2 + MASS**2)
        assert result.value.real / norm == pytest.approx(expected, rel=1e-3)

    def test_margin_precondition(self):
        thin = EuclideanTestFunction(0.005, 0.001, 1.0)  # margin < 0
        B = WaveFunctional((1.0,), (thin,))
        with pytest.raises(PreconditionError):
            hamiltonian_element(KERNEL, B, B)
