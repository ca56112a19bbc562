"""Tests for the Euclidean generating-functional layer.

Reference values below were computed with an independent quadrature: the
angular integral evaluated by direct Gauss-Legendre in the polar cosine
instead of the closed form, and the radial integral by adaptive quadrature.
Self-agreement across doubled orders was 8e-13 relative.
"""

import math
import time

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import integrate

from euscat.errors import AccuracyError, ConfigError, DomainError, PreconditionError
from euscat import euclidean_gf
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


def log_time_factor_by_quad(omega, s2, gap):
    """ln T, T = 2 int e^{-omega|u|} N(u; gap, s2) du, by adaptive quadrature
    instead of the closed form: the integrand over its peak value, split at
    its kink u = 0 and at its peak u* = max(gap - omega s2, 0)."""
    s = math.sqrt(s2)
    peak = max(gap - omega * s2, 0.0)

    def log_f(u):
        return -omega * abs(u) - (u - gap) ** 2 / (2.0 * s2)

    top = log_f(peak)
    edges = [-40.0 * s, 0.0, peak, peak + 40.0 * s]
    total = sum(
        integrate.quad(
            lambda u: math.exp(log_f(u) - top), a, b, epsabs=0.0, epsrel=1e-13
        )[0]
        for a, b in zip(edges, edges[1:])
        if b > a
    )
    return math.log(2.0 * total / math.sqrt(2.0 * math.pi * s2)) + top


class TestDescriptors:
    def test_validation(self):
        with pytest.raises(DomainError):
            EuclideanTestFunction(0.1, -0.01, 1.0)
        with pytest.raises(DomainError):
            EuclideanTestFunction(0.1, 0.01, 0.0)
        with pytest.raises(PreconditionError):
            WaveFunctional((1.0, 2.0), (real_lump(),))
        with pytest.raises(PreconditionError):
            WaveFunctional((), ())
        with pytest.raises(DomainError):
            CovarianceKernel(-1.0)

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

    @pytest.mark.parametrize(
        "field, value",
        [
            ("tau_center", math.nan),
            ("tau_center", -math.inf),
            ("momentum", (math.nan, 0.0, 0.0)),
            ("center", (0.0, math.inf, 0.0)),
            ("amplitude", complex(math.nan, 0.0)),
            ("amplitude", complex(1.0, math.inf)),
        ],
    )
    def test_non_finite_field_is_a_domain_error(self, field, value):
        fields = {"tau_center": 0.02, "tau_width": 0.002, "space_width": 0.05}
        with pytest.raises(DomainError, match=field):
            EuclideanTestFunction(**{**fields, field: value})

    @pytest.mark.parametrize("field", ["momentum", "center"])
    def test_vector_fields_must_have_three_components(self, field):
        with pytest.raises(DomainError, match="3-vectors"):
            EuclideanTestFunction(0.02, 0.002, 0.05, **{field: (1.0, 2.0)})

    def test_nan_amplitude_never_reaches_an_inner_product(self):
        # it used to come back from one_particle_inner as nan+nanj
        with pytest.raises(DomainError, match="amplitude"):
            one_particle_inner(KERNEL, SEP_F.scaled(math.nan), SEP_G)

    def test_nan_momentum_is_a_domain_error(self):
        # both used to end in a raw ValueError from int(nan) in the panel layout
        with pytest.raises(DomainError, match="momentum"):
            standard_test_function(math.nan)
        with pytest.raises(DomainError, match="momentum"):
            dispersion_scan(KERNEL, [math.nan])

    @pytest.mark.parametrize("beta", [math.nan, math.inf])
    def test_time_translate_refuses_non_finite_beta(self, beta):
        # inf used to end in "stalled at relative change nan"; nan passed beta < 0
        B = WaveFunctional((1.0,), (real_lump(),))
        with pytest.raises(DomainError, match="beta"):
            time_translate(B, beta)


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

    def test_unreachable_tolerance_raises(self, monkeypatch):
        monkeypatch.setattr(euclidean_gf, "_BASE_POINTS", 16)
        monkeypatch.setattr(euclidean_gf, "_TOL", 1e-16)
        monkeypatch.setattr(euclidean_gf, "_MAX_REFINEMENTS", 1)
        with pytest.raises(AccuracyError):
            covariance(KERNEL, real_lump(), real_lump(sx=0.0025))


class TestTimeFactor:
    @given(
        omega=st.floats(min_value=139.0, max_value=3e4),
        bra_width=st.floats(min_value=1e-3, max_value=4e-3),
        ket_width=st.floats(min_value=1e-3, max_value=4e-3),
        gap=st.floats(min_value=0.0, max_value=0.25),
    )
    def test_matches_quadrature_in_log(self, omega, bra_width, ket_width, gap):
        s2 = bra_width**2 + ket_width**2
        reference = log_time_factor_by_quad(omega, s2, gap)
        if reference < -700.0:
            return  # T is near or below the smallest normal float
        (value,) = CovarianceKernel._time_factor(
            np.array([omega]), np.array([s2]), np.array([gap])
        )
        assert abs(math.log(value) - reference) <= 1e-12


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

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_cluster_distances_must_be_finite(self, bad):
        # they used to pass the ordering checks and surface as a
        # PreconditionError about real combinations
        f, g = cluster_probe_pair(KERNEL)
        with pytest.raises(ConfigError, match="finite"):
            cluster_check(KERNEL, f, g, [0.01, 0.02, bad])
        with pytest.raises(ConfigError, match="finite"):
            cluster_check(KERNEL, f, g, [bad, 0.02, 0.03])

    def test_panel_above_the_node_cap_raises_before_any_pass(self):
        # the base panels of this pair hold over 36000 and 54000 nodes; a
        # check made only before doublings spent minutes in roots_legendre
        f, g = cluster_probe_pair(KERNEL)
        start = time.perf_counter()
        with pytest.raises(AccuracyError, match=r"needs \d+ nodes on one panel"):
            gf_value(KERNEL, [(1.0, f), (1.0, g.translated((20.0, 0.0, 0.0)))])
        assert time.perf_counter() - start < 2.0


class TestBatchCore:
    """CovarianceKernel._sesqui evaluates many pairs per pass."""

    @staticmethod
    def mixed_pairs():
        fns = random_test_functions(KERNEL, np.random.default_rng(3), 3)
        boosted = standard_test_function(800.0)
        far = real_lump().translated((0.03, 0.0, 0.0))
        bras = [SEP_F.reflected(), boosted.reflected(), fns[0].reflected(),
                fns[1].conjugated(), real_lump(amp=0.0), real_lump()]
        kets = [SEP_G, boosted, fns[2], fns[1], real_lump(), far]
        return bras, kets

    @staticmethod
    def record_passes(monkeypatch):
        """Patch the pass to record (pair count, node count, factor) per call."""
        passes = []
        original = CovarianceKernel._sesqui_at_resolution

        def recording(self, pairs, factor):
            nodes = int(np.sum((pairs.counts * factor).astype(int)))
            passes.append((pairs.kappa.size, nodes, factor))
            return original(self, pairs, factor)

        monkeypatch.setattr(CovarianceKernel, "_sesqui_at_resolution", recording)
        return passes

    def test_pair_in_a_mixed_batch_equals_the_pair_alone(self):
        bras, kets = self.mixed_pairs()
        batch = KERNEL._sesqui(bras, kets)
        assert batch[4] == 0
        for i, (bra, ket) in enumerate(zip(bras, kets)):
            (alone,) = KERNEL._sesqui([bra], [ket])
            assert abs(batch[i] - alone) <= 1e-15 * abs(alone)

    def test_only_failing_pairs_go_on_to_the_next_pass(self, monkeypatch):
        monkeypatch.setattr(euclidean_gf, "_BASE_POINTS", 16)
        bras, kets = self.mixed_pairs()
        passes = self.record_passes(monkeypatch)
        needed = []
        for bra, ket in zip(bras, kets):
            passes.clear()
            KERNEL._sesqui([bra], [ket])
            needed.append(len(passes))
        passes.clear()
        KERNEL._sesqui(bras, kets)
        # the zero-amplitude pair needs no pass; every other one stays in
        # the batch exactly until it has converged on its own schedule
        assert needed[4] == 0 and max(needed) > min(n for n in needed if n)
        expected = [sum(n > level for n in needed) for level in range(max(needed))]
        assert [size for size, _, _ in passes] == expected

    def test_gram_node_count_is_pinned(self, monkeypatch):
        # 80 base points per peak panel: two passes, the second at 160; 160
        # base points evaluate 31908 nodes on this Gram
        fns = random_test_functions(KERNEL, np.random.default_rng(2024), 8)
        passes = self.record_passes(monkeypatch)
        physical_gram(KERNEL, fns)
        assert [factor for _, _, factor in passes] == [1.0, 2.0]
        assert sum(nodes for _, nodes, _ in passes) == 16068


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
        fns = [
            f.scaled(1.0 / math.sqrt(KERNEL._sesqui([f], [f])[0].real))
            for f in random_test_functions(KERNEL, rng, 6)
        ]
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

    def test_refinement_past_first_doubling(self, monkeypatch):
        # 16 base points need at least two doublings before two passes agree
        probes = [standard_test_function(momentum) for momentum in (300.0, 800.0)]
        references = [one_particle_inner(KERNEL, probe, probe) for probe in probes]
        passes = []
        original = CovarianceKernel._sesqui_at_resolution

        def counting(self, *args):
            passes.append(args[-1])
            return original(self, *args)

        monkeypatch.setattr(euclidean_gf, "_BASE_POINTS", 16)
        monkeypatch.setattr(CovarianceKernel, "_sesqui_at_resolution", counting)
        for probe, reference in zip(probes, references):
            passes.clear()
            value = one_particle_inner(KERNEL, probe, probe)
            assert len(passes) >= 3
            assert abs(value - reference) <= 1e-9 * abs(reference)

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

    @pytest.mark.parametrize("beta", [0.1, 0.15, 0.2])
    def test_semigroup_weight_far_past_the_underflow_of_the_gaussian(self, beta):
        # f's momentum spread, 1/sqrt(2) MeV, is narrow enough that the log of
        # the ratio is the time factor's at omega = hypot(3000, 139) to 1e-4;
        # the reflected centers are 2 * 7.5 * 0.0035 = 0.0525 apart
        f = standard_test_function(3000.0)
        norm = one_particle_inner(KERNEL, f, f)
        ratio = one_particle_inner(KERNEL, f, f.shifted_in_time(beta)) / norm
        omega, s2, gap = math.hypot(3000.0, MASS), 2 * 0.0035**2, 0.0525
        expected = log_time_factor_by_quad(omega, s2, gap + beta)
        expected -= log_time_factor_by_quad(omega, s2, gap)
        assert ratio.real > 0
        assert math.log(ratio.real) == pytest.approx(expected, rel=1e-4)

    def test_mixed_derivative_identity(self):
        f = standard_test_function(120.0)
        g = standard_test_function(90.0)
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
