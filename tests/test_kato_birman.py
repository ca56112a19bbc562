"""Tests for the invariance-principle scattering pipeline.

Oracle hierarchy: exact_s_in_packets is closed-form quadrature of the exact
on-shell S over the packets; time_limit_s_overlap realizes the large-t wave
operator limit with real-time propagators and must plateau at the same number
the semigroup pipeline produces.
"""

import math
import time
import tracemalloc

import numpy as np
import pytest

from euscat import kato_birman, spectral
from euscat.chebyshev import apply_to_semigroup, converged_expansion
from euscat.config import RunConfig
from euscat.errors import AccuracyError, ConfigError, DomainError, PreconditionError
from euscat.kato_birman import (
    KBConfig,
    _half_phase_overlaps,
    _hamiltonian,
    _packet_resolution,
    _phased_coordinates,
    beta_for,
    delta_e_overlap,
    exact_s_in_packets,
    extract_sharp_t,
    kb_s_overlap,
    make_packet,
    packet_grid_spec,
    packet_overlap,
    sweep_n,
    time_limit_s_overlap,
)
from euscat.model import (
    SeparableModel,
    coupling_for_binding,
    critical_coupling,
    default_model,
    exact_s_on_shell,
    exact_t_on_shell,
)
from euscat.spectral import GridSpec, build_grid, diagonalize, discretize_h, semigroup_bounds

MODEL = default_model()
FREE = SeparableModel(MODEL.mass, 0.0)

GRID_1GEV = build_grid(packet_grid_spec(1000.0, 100.0, 300, 5e-4))
PACKET_1GEV = make_packet(1000.0, 100.0, GRID_1GEV)
# the operator the pipeline builds for itself, so op=OP_1GEV runs the same numbers
OP_1GEV = _hamiltonian(MODEL, GRID_1GEV, None)


class TestWavePacket:
    def test_unit_norm(self):
        norm = np.sum(
            GRID_1GEV.weights * GRID_1GEV.nodes**2 * np.abs(PACKET_1GEV.values) ** 2
        )
        assert norm == pytest.approx(1.0, abs=1e-12)

    def test_mean_momentum_carries_measure_correction(self):
        # <k> = k0 + 2 sigma^2/k0 + O(sigma^4) from the k^2 measure
        mean = float(
            np.sum(GRID_1GEV.weights * GRID_1GEV.nodes**3 * PACKET_1GEV.values**2)
        )
        assert mean > 1000.0
        assert abs(mean - 1000.0) < 3.0 * 100.0**2 / 1000.0

    def test_energy_spread(self):
        k = GRID_1GEV.nodes
        w2 = GRID_1GEV.weights * k**2 * PACKET_1GEV.values**2
        energy = k**2 / MODEL.mass
        e_mean = float(np.sum(w2 * energy))
        e_spread = math.sqrt(float(np.sum(w2 * (energy - e_mean) ** 2)))
        assert e_spread == pytest.approx(2.0 * 1000.0 * 100.0 / MODEL.mass, rel=0.05)

    def test_tail_negligible_at_grid_edge(self):
        assert abs(PACKET_1GEV.values[-1]) < 1e-100

    def test_identical_packet_overlap_is_one(self):
        assert packet_overlap(PACKET_1GEV, PACKET_1GEV) == pytest.approx(1.0, abs=1e-12)

    def test_disjoint_packets_orthogonal(self):
        far = make_packet(3000.0, 100.0, GRID_1GEV)
        assert abs(packet_overlap(far, PACKET_1GEV)) < 1e-12

    def test_coverage_error_names_requirement(self):
        grid = build_grid(GridSpec(panels=[(0.0, 278.0, 16), (278.0, 1200.0, 48)]))
        with pytest.raises(ConfigError) as err:
            make_packet(1000.0, 100.0, grid)
        assert "1800" in str(err.value)

    def test_width_precondition(self):
        with pytest.raises(PreconditionError):
            make_packet(100.0, 30.0, GRID_1GEV)

    def test_domain_validation(self):
        with pytest.raises(DomainError):
            make_packet(-5.0, 1.0, GRID_1GEV)
        with pytest.raises(DomainError):
            make_packet(1000.0, 0.0, GRID_1GEV)

    def test_packet_without_norm_on_the_grid_is_refused(self):
        # sigma^2 underflows, and the node at k0 gives 0/0; or the profile
        # falls between the nodes of a coarse grid; both gave NaN values
        assert 1000.0 in GRID_1GEV.nodes
        with pytest.raises(PreconditionError, match="norm nan"):
            make_packet(1000.0, 1e-200, GRID_1GEV)
        coarse = build_grid(GridSpec(panels=[(0.0, 3000.0, 60)]))
        with pytest.raises(PreconditionError, match="norm 0"):
            make_packet(1000.0, 1e-6, coarse)

    def test_center_whose_square_overflows_is_refused(self):
        # it raised numpy's overflow RuntimeWarning from the profile
        grid = build_grid(GridSpec(panels=[(0.0, 1e300, 60)]))
        with pytest.raises(DomainError, match="square is not finite"):
            make_packet(1e200, 1e199, grid)

    @pytest.mark.parametrize("k0,top", [(1e102, 2), (1e103, 2), (1e110, 2), (1e150, 2), (1e154, 4)])
    def test_packet_whose_squared_norm_overflows_has_unit_norm(self, k0, top):
        # the squared norm scales as k0^3: from 1e103 on it overflowed and the
        # packet was refused ("norm inf"); at 1e154 k0^2 is finite but the
        # squares of the upper nodes were not ("norm nan")
        grid = build_grid(GridSpec(panels=[(0.0, top * k0, 600)]))
        packet = make_packet(k0, k0 / 10.0, grid)
        assert np.sum(packet.weighted() ** 2) == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("sigma", [1e-6, 10.0])
    def test_packet_the_grid_cannot_resolve_is_refused(self, sigma):
        # about 18 MeV between the nodes at k0: at sigma = 1e-6 the packet is
        # the one node at 1000 and S came out 1.6e-3 off with no error; the
        # squared norms miss their closed form by 7.3e6 and 5.4e-3 relative
        assert 1000.0 in GRID_1GEV.nodes
        with pytest.raises(PreconditionError, match="does not resolve"):
            make_packet(1000.0, sigma, GRID_1GEV)
        # 3.5e-6 at 15 MeV
        assert make_packet(1000.0, 15.0, GRID_1GEV).width == 15.0


class _DenseSemigroup:
    """Reference: e^{-beta H} as the dense U diag(e^{-beta E}) U^T acting on
    grid coordinates."""

    def __init__(self, op, beta):
        self.op, self.beta = op, beta
        self.matrix = (op.vectors * np.exp(-beta * op.eigenvalues)) @ op.vectors.T

    def apply(self, v, out=None):
        return np.matmul(self.matrix, v, out=out)

    def bounds(self):
        return semigroup_bounds(self.op, self.beta)


def _refuse(*args):
    raise AssertionError("the eigensolver ran")


class TestKBOverlap:
    def test_free_model_reduces_to_plain_overlap(self):
        # all three factors cancel when H = H0
        cfg = KBConfig(n=100, beta=5e-4)
        value = kb_s_overlap(FREE, cfg, PACKET_1GEV, PACKET_1GEV)
        assert abs(value - packet_overlap(PACKET_1GEV, PACKET_1GEV)) < 1e-11

    def test_converges_to_exact_packet_average_not_conjugate(self):
        grid = build_grid(packet_grid_spec(500.0, 50.0, 250, beta_for(500.0)))
        psi = make_packet(500.0, 50.0, grid)
        kb = kb_s_overlap(MODEL, KBConfig(n=250, beta=None), psi, psi)
        exact = exact_s_in_packets(MODEL, psi, psi)
        assert abs(kb - exact) <= 1e-5 * abs(exact)
        # the conjugate differs in the second digit; orientation is fixed
        assert abs(kb - np.conj(exact)) > 0.2
        assert kb.imag > 0

    def test_polynomial_layer_isolation(self):
        cfg = KBConfig(n=250, beta=5e-4)
        cheb = kb_s_overlap(MODEL, cfg, PACKET_1GEV, PACKET_1GEV, op=OP_1GEV)
        spectral = kb_s_overlap(
            MODEL, cfg, PACKET_1GEV, PACKET_1GEV, op=OP_1GEV, propagator="exact"
        )
        assert abs(cheb - spectral) < 1e-10

    def test_half_angle_path_matches_oracle_off_the_diagonal(self):
        cfg = KBConfig(n=250, beta=5e-4)
        bra = make_packet(1040.0, 90.0, GRID_1GEV)
        cheb = kb_s_overlap(MODEL, cfg, bra, PACKET_1GEV, op=OP_1GEV)
        oracle = kb_s_overlap(
            MODEL, cfg, bra, PACKET_1GEV, op=OP_1GEV, propagator="exact"
        )
        assert abs(cheb - oracle) < 1e-11

    @pytest.mark.parametrize("primed", [False, True])
    def test_pass_count_is_half_degree(self, monkeypatch, primed):
        calls = []
        original = spectral.Semigroup.apply

        def counting(self, v, out=None):
            calls.append(1 if np.ndim(v) == 1 else v.shape[1])
            return original(self, v, out=out)

        monkeypatch.setattr(spectral.Semigroup, "apply", counting)
        n = 250
        bra = make_packet(1040.0, 90.0, GRID_1GEV) if primed else PACKET_1GEV
        kb_s_overlap(MODEL, KBConfig(n=n, beta=5e-4), bra, PACKET_1GEV, op=OP_1GEV)
        _, hi = spectral.Semigroup(OP_1GEV, 5e-4).bounds()
        assert len(calls) == converged_expansion(n, (0.0, hi), 5e-13).degree + 1
        assert len(calls) <= 0.6 * converged_expansion(2 * n, (0.0, hi), 1e-12).degree
        assert set(calls) == {1}

    def test_rounding_floor_boundary(self):
        # eps n hi <= 5e-13 per half-phase factor, as eps 2n hi <= 1e-12 was
        # for the whole phase
        with pytest.raises(AccuracyError, match="rounding floor"):
            kb_s_overlap(
                MODEL, KBConfig(n=2300, beta=5e-4), PACKET_1GEV, PACKET_1GEV, op=OP_1GEV
            )
        _, hi = spectral.Semigroup(OP_1GEV, 5e-4).bounds()
        converged_expansion(2200, (0.0, hi), 5e-13)

    @pytest.mark.parametrize("k", [300.0, 600.0, 1000.0, 1900.0])
    def test_polynomial_layer_at_the_largest_n(self, k):
        # n = 2200 is the largest n above the rounding floor; production grid
        # of the t-scan (sigma = k/24, scale-aware beta), N = 1142-1190
        cfg = KBConfig(n=2200, beta=None, sigma=k / 24.0)
        grid = build_grid(packet_grid_spec(k, k / 24.0, cfg.n, beta_for(k)))
        psi = make_packet(k, k / 24.0, grid)
        op = _hamiltonian(MODEL, grid, None)
        cheb = kb_s_overlap(MODEL, cfg, psi, psi, op=op)
        exact = kb_s_overlap(MODEL, cfg, psi, psi, op=op, propagator="exact")
        assert abs(cheb - exact) <= 1e-12

    def test_eigenbasis_pass_matches_the_dense_semigroup(self):
        # the same series through apply_to_semigroup with the dense
        # U diag(e^{-beta E}) U^T acting on grid coordinates, at five of the
        # default t-scan momenta
        for k in np.geomspace(100.0, 2000.0, 20)[[0, 5, 10, 15, 19]]:
            cfg = KBConfig(n=300, beta=None, sigma=k / 24.0)
            beta = beta_for(k)
            grid = build_grid(packet_grid_spec(k, k / 24.0, cfg.n, beta))
            psi = make_packet(k, k / 24.0, grid)
            op = _hamiltonian(MODEL, grid, None)
            dense = _DenseSemigroup(op, beta)
            expansion = converged_expansion(cfg.n, (0.0, dense.bounds()[1]), tol=5e-13)
            u = np.exp(-1j * cfg.n * np.exp(-beta * grid.nodes**2 / MODEL.mass)) * psi.weighted()
            half = apply_to_semigroup(expansion, dense, u)
            kb = kb_s_overlap(MODEL, cfg, psi, psi, op=op)
            assert abs(kb - half @ half) <= 1e-12

    def test_half_phase_pass_forms_no_square_array(self):
        op = _hamiltonian(MODEL, GRID_1GEV, None)
        bra = make_packet(1040.0, 90.0, GRID_1GEV)
        tracemalloc.start()
        try:
            _half_phase_overlaps(MODEL, KBConfig(beta=5e-4), [250], bra, PACKET_1GEV, op)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * GRID_1GEV.size**2

    def test_rejects_mismatched_grids(self):
        other = build_grid(GridSpec(panels=[(0.0, 278.0, 16), (278.0, 6000.0, 48)]))
        psi_other = make_packet(1000.0, 100.0, other)
        with pytest.raises(PreconditionError):
            kb_s_overlap(MODEL, KBConfig(), psi_other, PACKET_1GEV)

    def test_rejects_mismatched_operator(self):
        other = build_grid(GridSpec(panels=[(0.0, 278.0, 16), (278.0, 6000.0, 48)]))
        bad_op = _hamiltonian(MODEL, other, None)
        with pytest.raises(PreconditionError):
            kb_s_overlap(MODEL, KBConfig(), PACKET_1GEV, PACKET_1GEV, op=bad_op)

    def test_exact_propagator_shares_the_overflow_check(self):
        deep = SeparableModel(MODEL.mass, coupling_for_binding(binding=-20000.0))
        cfg = KBConfig(n=10, beta=0.05)
        with pytest.raises(AccuracyError, match="beta=0.05"):
            kb_s_overlap(deep, cfg, PACKET_1GEV, PACKET_1GEV, propagator="exact")

    def test_rejects_unknown_propagator(self):
        with pytest.raises(ValueError):
            kb_s_overlap(
                MODEL, KBConfig(), PACKET_1GEV, PACKET_1GEV, propagator="magic"
            )

    def test_unknown_propagator_or_reference_is_refused_before_the_eigensolver(
        self, monkeypatch
    ):
        monkeypatch.setattr(kato_birman, "_rank_one_operator", _refuse)
        with pytest.raises(ValueError, match="propagator"):
            kb_s_overlap(MODEL, KBConfig(), PACKET_1GEV, PACKET_1GEV, propagator="magic")
        with pytest.raises(ValueError, match="reference"):
            sweep_n(MODEL, KBConfig(), [10], PACKET_1GEV, PACKET_1GEV, reference="magic")


class TestSweep:
    def test_convergence_profile_at_1gev(self):
        rows = sweep_n(
            MODEL,
            KBConfig(n=1, beta=5e-4),
            [1, 20, 40, 200, 240, 280, 300],
            PACKET_1GEV,
            PACKET_1GEV,
        )
        errs = {r.n: r.rel_err for r in rows}
        assert errs[1] > 1e-3
        assert errs[20] > errs[40]
        for n in (200, 240, 280, 300):
            assert errs[n] < 1e-4
        assert errs[1] > 100.0 * errs[300]

    def test_componentwise_convergence_window(self):
        rows = sweep_n(
            MODEL, KBConfig(beta=5e-4), [200, 250, 300], PACKET_1GEV, PACKET_1GEV
        )
        for r in rows:
            assert abs(r.re_approx - r.re_exact) <= 0.01 * abs(r.re_exact)
            assert abs(r.im_approx - r.im_exact) <= 0.01 * abs(r.im_exact)

    def test_exact_column_constant(self):
        rows = sweep_n(MODEL, KBConfig(beta=5e-4), [10, 50], PACKET_1GEV, PACKET_1GEV)
        assert rows[0].re_exact == rows[1].re_exact
        assert rows[0].im_exact == rows[1].im_exact

    def test_sharp_reference_plateau_shrinks_with_width(self):
        # against the sharp S(k0) the plateau is the packet-averaging bias,
        # which scales as sigma^2 (against the packet-averaged S it is a
        # width-independent grid floor instead)
        sharp = exact_s_on_shell(MODEL, 1000.0)
        plateaus = []
        for sigma in (100.0, 50.0):
            grid = build_grid(packet_grid_spec(1000.0, sigma, 250, 5e-4))
            psi = make_packet(1000.0, sigma, grid)
            kb = kb_s_overlap(MODEL, KBConfig(n=250, beta=5e-4), psi, psi)
            plateaus.append(abs(kb - sharp) / abs(sharp))
        assert plateaus[1] < plateaus[0] / 2.5

    def test_one_semigroup_matrix_per_sweep(self, monkeypatch):
        built = []
        original = spectral.Semigroup.__post_init__

        def counting(self):
            built.append(self.beta)
            original(self)

        monkeypatch.setattr(spectral.Semigroup, "__post_init__", counting)
        rows = sweep_n(MODEL, KBConfig(), [10, 20, 40], PACKET_1GEV, PACKET_1GEV)
        assert len(rows) == 3
        assert built == [5e-4]

    def test_production_path_never_calls_eigh(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the production path called np.linalg.eigh")

        built = []
        original = spectral.Semigroup.__post_init__

        def counting(self):
            built.append(self.op)
            original(self)

        monkeypatch.setattr(np.linalg, "eigh", refuse)
        monkeypatch.setattr(spectral.Semigroup, "__post_init__", counting)
        est = extract_sharp_t(MODEL, KBConfig(n=50, beta=None, beta_x=0.5), 600.0)
        assert math.isfinite(abs(est.t_approx))
        assert len(built) == 1
        rows = sweep_n(MODEL, KBConfig(), [10, 20, 40], PACKET_1GEV, PACKET_1GEV)
        assert len(rows) == 3 and len(built) == 2
        assert built[1] is not built[0]

    @pytest.mark.parametrize("primed", [False, True])
    def test_rows_equal_single_overlaps_bit_for_bit(self, primed):
        bra = make_packet(1040.0, 90.0, GRID_1GEV) if primed else PACKET_1GEV
        ns = [1, 40.0, 250]  # an integral float is a valid n
        rows = sweep_n(MODEL, KBConfig(beta=5e-4), ns, bra, PACKET_1GEV)
        for n, row in zip(ns, rows):
            kb = kb_s_overlap(MODEL, KBConfig(n=n, beta=5e-4), bra, PACKET_1GEV, op=OP_1GEV)
            assert (row.n, row.re_approx, row.im_approx) == (n, kb.real, kb.imag)

    def test_one_clenshaw_pass_serves_every_n(self, apply_widths):
        # the pass takes the largest degree + 1 steps, and the series of each
        # n joins it at its own degree: the width at order j is the number of
        # series of degree j or more
        bra = make_packet(1040.0, 90.0, GRID_1GEV)
        sweep_n(MODEL, KBConfig(beta=5e-4), [10, 50, 300], bra, PACKET_1GEV)
        _, hi = spectral.Semigroup(OP_1GEV, 5e-4).bounds()
        degrees = [converged_expansion(n, (0.0, hi), 5e-13).degree for n in (10, 50, 300)]
        assert len(apply_widths) == degrees[-1] + 1
        assert apply_widths == [sum(d >= j for d in degrees) for j in range(degrees[-1], -1, -1)]
        assert sum(apply_widths) == sum(d + 1 for d in degrees)

    def test_floor_error_comes_before_any_application(self, apply_widths):
        with pytest.raises(AccuracyError, match="rounding floor"):
            sweep_n(MODEL, KBConfig(beta=5e-4), [10, 2300], PACKET_1GEV, PACKET_1GEV)
        assert apply_widths == []

    @pytest.mark.parametrize("primed", [False, True])
    def test_rows_match_the_exact_propagator_up_to_the_floor(self, primed):
        # the t-scan's production grid at k = 1000 MeV and n = 2200, the
        # largest n above the rounding floor (N about 1150)
        k, sigma = 1000.0, 1000.0 / 24.0
        grid = build_grid(packet_grid_spec(k, sigma, 2200, beta_for(k)))
        psi = make_packet(k, sigma, grid)
        bra = make_packet(1.04 * k, 0.9 * sigma, grid) if primed else psi
        op = _hamiltonian(MODEL, grid, None)
        rows = sweep_n(MODEL, KBConfig(beta=None), [1, 2200], bra, psi)
        for row in rows:
            cfg = KBConfig(n=row.n, beta=None)
            exact = kb_s_overlap(MODEL, cfg, bra, psi, op=op, propagator="exact")
            assert abs(complex(row.re_approx, row.im_approx) - exact) <= 1e-12

    def test_input_validation(self):
        for n_values, match in (
            ([], "empty"),
            ([50, 50], "ascending"),
            ([100, 50], "ascending"),
            ([2.5, 2.9], "got 2.5"),
            ([0.5, 3], "got 0.5"),
            ([10, float("nan")], "got nan"),
            ([10, float("inf")], "got inf"),
        ):
            with pytest.raises(ConfigError, match=match):
                sweep_n(MODEL, KBConfig(), n_values, PACKET_1GEV, PACKET_1GEV)


class TestPacketResolution:
    """A packet narrower in energy than the eigenpairs can resolve is refused.

    At k = 1e-3 MeV and sigma = k/24 the energy spread 2 k sigma/m is 8.9e-11
    MeV, at the secular solver's absolute deflation tolerance 8 eps ||H||.
    Unguarded, the repulsive model returns |t| = 0.656 against 6.2e-6 there,
    and the near-critical one t with a relative error of 0.38.
    """

    REPULSIVE = SeparableModel(MODEL.mass, -MODEL.coupling)
    NEAR_CRITICAL = SeparableModel(MODEL.mass, critical_coupling() * (1.0 + 1e-8))

    @staticmethod
    def scan_ratio(model, k, n=300):
        """The guard's ratio on the t-scan's packet, grid and beta at k."""
        sigma = k / 24.0
        beta = beta_for(k, model.mass, 0.5)
        grid = build_grid(packet_grid_spec(k, sigma, n, beta, mass=model.mass))
        psi = make_packet(k, sigma, grid, mass=model.mass)
        op = _hamiltonian(model, grid, None)
        free_phase = np.exp(-1j * n * np.exp(-beta * grid.nodes**2 / model.mass))
        coords = _phased_coordinates(op, free_phase, psi, psi)
        return _packet_resolution(op, coords, psi, psi)

    @pytest.mark.parametrize("model", ["REPULSIVE", "NEAR_CRITICAL"])
    def test_unresolved_packet_is_refused(self, model, apply_widths):
        model = getattr(self, model)
        k = 1e-3
        cfg = KBConfig(n=300, beta=None, beta_x=0.5, sigma=k / 24.0)
        with pytest.raises(AccuracyError, match="cannot resolve"):
            extract_sharp_t(model, cfg, k)
        grid = build_grid(packet_grid_spec(k, k / 24.0, 300, beta_for(k, model.mass)))
        psi = make_packet(k, k / 24.0, grid, mass=model.mass)
        with pytest.raises(AccuracyError, match="cannot resolve"):
            sweep_n(model, cfg, [10, 300], psi, psi)
        with pytest.raises(AccuracyError, match="cannot resolve"):
            kb_s_overlap(model, cfg, psi, psi, propagator="exact")
        assert apply_widths == []
        assert self.scan_ratio(model, k) > 0.1

    def test_resolved_small_momentum_passes(self):
        # ten times the momentum: the secular path is right to 6.2e-10 in S
        assert self.scan_ratio(self.REPULSIVE, 1e-2) < 1e-6
        est = extract_sharp_t(self.REPULSIVE, KBConfig(n=300, beta=None, sigma=1e-2 / 24), 1e-2)
        assert est.rel_err_s < 1e-8

    def test_default_scan_points_are_far_below_the_threshold(self):
        # 2.6e-16 to 1.8e-15 on the 20 default t-scan momenta
        ratios = [self.scan_ratio(MODEL, float(k)) for k in np.geomspace(100.0, 2000.0, 20)]
        assert 0.0 < max(ratios) < 1e-13

    def test_dense_and_free_operators_carry_per_pair_residuals(self):
        # each dense pair has its own residual, at most the reconstruction
        # error ||U diag(E) U^T - H||_F that bounds all of them
        h = discretize_h(MODEL, GRID_1GEV)
        op = diagonalize(h)
        bound = np.linalg.norm((op.vectors * op.eigenvalues) @ op.vectors.T - h)
        assert op.residuals.shape == (GRID_1GEV.size,)
        assert np.unique(op.residuals).size > 1
        assert 0.0 < np.max(op.residuals) <= bound
        free = _hamiltonian(FREE, GRID_1GEV, None)
        assert np.array_equal(free.residuals, np.zeros(GRID_1GEV.size))


class TestTimeOracle:
    def test_plateau_matches_semigroup_pipeline(self):
        spec = GridSpec(
            panels=[(0.0, 400.0, 64), (400.0, 1800.0, 512), (1800.0, 3000.0, 256)],
        )
        grid = build_grid(spec)
        psi = make_packet(1000.0, 100.0, grid)
        op = diagonalize(discretize_h(MODEL, grid))
        plateau = [
            time_limit_s_overlap(MODEL, psi, psi, t, op=op) for t in (0.04, 0.08)
        ]
        assert abs(plateau[0] - plateau[1]) < 1e-6
        kb = kb_s_overlap(MODEL, KBConfig(n=250, beta=5e-4), PACKET_1GEV, PACKET_1GEV)
        assert abs(kb - plateau[1]) <= 1e-3 * abs(plateau[1])

    def test_free_model_is_exact_overlap_at_any_t(self):
        value = time_limit_s_overlap(FREE, PACKET_1GEV, PACKET_1GEV, 0.03)
        assert abs(value - 1.0) < 1e-11

    def test_rejects_nonpositive_time(self):
        with pytest.raises(DomainError):
            time_limit_s_overlap(MODEL, PACKET_1GEV, PACKET_1GEV, 0.0)


class TestDeltaE:
    def test_matches_analytic_gaussian_moments(self):
        # D = (m/2) <k^3>/<k^2> over the Gaussian density
        d = delta_e_overlap(PACKET_1GEV, PACKET_1GEV)
        k0, sigma = 1000.0, 100.0
        analytic = MODEL.mass / 2.0 * (k0**3 + 3 * k0 * sigma**2) / (k0**2 + sigma**2)
        assert d == pytest.approx(analytic, rel=1e-10)

    def test_close_to_half_mass_times_center(self):
        d = delta_e_overlap(PACKET_1GEV, PACKET_1GEV)
        assert d == pytest.approx(MODEL.mass * 1000.0 / 2.0, rel=0.03)

    def test_disjoint_packets_vanish(self):
        far = make_packet(3000.0, 100.0, GRID_1GEV)
        scale = MODEL.mass * 1000.0 / 2.0
        assert abs(delta_e_overlap(far, PACKET_1GEV)) < 1e-12 * scale

    def test_mass_mismatch_rejected(self):
        other = make_packet(1000.0, 100.0, GRID_1GEV, mass=493.7)
        with pytest.raises(PreconditionError):
            delta_e_overlap(other, PACKET_1GEV)


class TestExtraction:
    def test_accuracy_at_two_momenta(self):
        for k in (500.0, 1500.0):
            cfg = KBConfig(n=300, beta=None, sigma=k / 24.0)
            est = extract_sharp_t(MODEL, cfg, k)
            assert est.rel_err_t < 0.01
            assert est.rel_err_s < 1e-4

    def test_default_width_is_tenth_of_center(self):
        est = extract_sharp_t(MODEL, KBConfig(n=250, beta=None), 800.0)
        # sigma=k/10 bias in t is a few percent at most
        assert est.rel_err_t < 0.05
        assert est.t_approx.real == pytest.approx(est.t_exact.real, rel=0.05)

    def test_free_model_extracts_zero(self):
        est = extract_sharp_t(FREE, KBConfig(n=200, beta=5e-4), 800.0)
        assert abs(est.s_approx - 1.0) < 1e-12
        assert abs(est.t_approx) < 1e-15

    def test_estimate_self_consistency(self):
        est = extract_sharp_t(MODEL, KBConfig(n=250, beta=None), 600.0)
        assert est.t_exact == exact_t_on_shell(MODEL, 600.0)
        assert est.rel_err_t == abs(est.t_approx - est.t_exact) / abs(est.t_exact)
        assert est.rel_err_s == abs(est.s_approx - est.s_exact) / abs(est.s_exact)

    def test_extracted_amplitude_nearly_unitary(self):
        for k in (200.0, 700.0):
            est = extract_sharp_t(MODEL, KBConfig(n=300, beta=None, sigma=k / 24.0), k)
            s_from_t = 1.0 - 1j * math.pi * MODEL.mass * k * est.t_approx
            assert abs(abs(s_from_t) - 1.0) <= 2.0 * est.rel_err_t

    def test_beta_robustness(self):
        k = 1000.0
        base = beta_for(k)
        values = []
        for scale in (1.0 / math.sqrt(2.0), 1.0, math.sqrt(2.0)):
            cfg = KBConfig(n=300, beta=base * scale)
            values.append(extract_sharp_t(MODEL, cfg, k).t_approx)
        spread = max(abs(a - b) for a in values for b in values)
        assert spread <= 0.005 * abs(values[1])

    def test_oversized_grid_is_refused_before_it_is_built(self, monkeypatch):
        # n = 10^5 asks for panels of about 50,000 nodes
        def refuse(count):
            raise AssertionError("a Gauss-Legendre rule was computed")

        monkeypatch.setattr(spectral, "_legendre_roots", refuse)
        start = time.perf_counter()
        with pytest.raises(AccuracyError, match="GB"):
            extract_sharp_t(MODEL, KBConfig(n=100_000, beta=None, sigma=1000.0 / 24.0), 1000.0)
        assert time.perf_counter() - start < 0.5

    @pytest.mark.parametrize("k", [100.0, 1000.0, 1900.0])
    def test_floor_error_comes_before_the_eigensolver(self, monkeypatch, k):
        # interlacing bounds the top of the spectrum of e^{-beta H} from
        # below before H is solved; n = 4000 is past the floor at every k
        monkeypatch.setattr(kato_birman, "_rank_one_operator", _refuse)
        with pytest.raises(AccuracyError, match="rounding floor"):
            extract_sharp_t(MODEL, KBConfig(n=4000, beta=None, sigma=k / 24.0), k)

    def test_rejects_bad_momentum(self):
        with pytest.raises(DomainError):
            extract_sharp_t(MODEL, KBConfig(), -100.0)


class TestConfigAndHelpers:
    def test_kbconfig_validation(self):
        for n in (0, 2.5, 0.5, float("nan"), float("inf")):
            with pytest.raises(ConfigError, match=f"got {n}"):
                KBConfig(n=n)
        with pytest.raises(ConfigError):
            KBConfig(beta=-1e-4)
        with pytest.raises(ConfigError):
            KBConfig(beta_x=0.0)
        with pytest.raises(ConfigError):
            KBConfig(sigma=-10.0)

    def test_kbconfig_refuses_non_finite_values(self):
        for field in ("beta", "beta_x", "sigma"):
            for value in (float("inf"), float("nan")):
                with pytest.raises(ConfigError, match=field):
                    KBConfig(**{field: value})

    def test_packet_grid_spec_refuses_bad_beta(self):
        for beta in (-1e-3, 0.0, float("inf"), float("nan")):
            with pytest.raises(DomainError, match="beta"):
                packet_grid_spec(500.0, 50.0, 10, beta)

    def test_beta_for_scaling(self):
        assert beta_for(1000.0, MODEL.mass, 0.5) == pytest.approx(
            0.5 * MODEL.mass / 1e6, rel=1e-14
        )
        with pytest.raises(DomainError):
            beta_for(-1.0, MODEL.mass)

    def test_beta_for_refuses_a_square_out_of_range(self):
        # k0^2 = 0 raised ZeroDivisionError; beta then overflows or vanishes
        with pytest.raises(DomainError, match="underflows"):
            beta_for(1e-200)
        for k0 in (1e-160, 1e200):
            with pytest.raises(DomainError, match="positive and finite"):
                beta_for(k0)

    def test_packet_grid_spec_resolves_phases(self):
        small = packet_grid_spec(1000.0, 100.0, 50, 5e-4)
        large = packet_grid_spec(1000.0, 100.0, 500, 5e-4)
        assert sum(p[2] for p in large.panels) > sum(p[2] for p in small.panels)
        edges = [p[:2] for p in large.panels]
        assert edges[0][0] == 0.0
        for (_, hi), (lo, _) in zip(edges[:-1], edges[1:]):
            assert hi == lo

    def test_packet_grid_spec_coverage(self):
        with pytest.raises(ConfigError):
            packet_grid_spec(5000.0, 200.0, 100, 5e-4, k_max=6000.0)
        for sigma in (0.0, -10.0, float("nan")):
            with pytest.raises(DomainError):
                packet_grid_spec(1000.0, sigma, 100, 5e-4)

    def test_packet_ending_at_k_max_has_no_empty_panel(self):
        spec = packet_grid_spec(5000.0, 125.0, 100, 5e-4)
        assert spec.panels[-1][:2] == (4000.0, 6000.0)
        assert all(lo < hi for lo, hi, _ in spec.panels)
        grid = build_grid(spec)
        psi = make_packet(5000.0, 125.0, grid)
        assert packet_overlap(psi, psi) == pytest.approx(1.0, abs=1e-12)

    def test_exact_s_in_packets_matches_scalar_path(self):
        scalar = np.array([exact_s_on_shell(MODEL, float(k)) for k in GRID_1GEV.nodes])
        looped = np.vdot(PACKET_1GEV.weighted(), scalar * PACKET_1GEV.weighted())
        value = exact_s_in_packets(MODEL, PACKET_1GEV, PACKET_1GEV)
        assert abs(value - looped) <= 1e-14 * abs(looped)


def _refined(spec: GridSpec) -> GridSpec:
    """The same panels with 1.5x the nodes on each."""
    panels = [(lo, hi, math.ceil(1.5 * count)) for lo, hi, count in spec.panels]
    return GridSpec(panels=panels)


def _size(spec: GridSpec) -> int:
    return sum(count for _, _, count in spec.panels)


class TestGridConvergence:
    """The grid layer of the error budget: the hardest packet_grid_spec
    layouts rebuilt with 1.5x the nodes on every panel give the same answers.

    Measured drifts: 9e-13 (k = 100) and 4e-12 (k = 2000) for t, 3e-13 and
    2e-13 for the two sweeps.
    """

    @pytest.mark.parametrize("k", [100.0, 2000.0])
    def test_sharp_amplitude(self, k):
        sigma = k / 24.0
        spec = packet_grid_spec(k, sigma, 300, beta_for(k))
        t = [
            extract_sharp_t(
                MODEL, KBConfig(n=300, beta=None, sigma=sigma, grid=layout), k
            ).t_approx
            for layout in (spec, _refined(spec))
        ]
        assert abs(t[0] - t[1]) <= 1e-9 * abs(t[1])

    @pytest.mark.parametrize(
        "k0, beta, n_values, primed",
        [
            (1000.0, 5e-4, list(range(10, 301, 10)), False),
            (150.0, beta_for(150.0), [10, 20, 30], True),
        ],
    )
    def test_overlap_sweep(self, k0, beta, n_values, primed):
        sigma = k0 / 10.0
        spec = packet_grid_spec(k0, sigma, n_values[-1], beta)
        sweeps = []
        for layout in (spec, _refined(spec)):
            grid = build_grid(layout)
            psi = make_packet(k0, sigma, grid)
            bra = make_packet(1.04 * k0, 0.9 * sigma, grid) if primed else psi
            rows = sweep_n(MODEL, KBConfig(beta=beta), n_values, bra, psi)
            sweeps.append(np.array([complex(r.re_approx, r.im_approx) for r in rows]))
        assert np.all(np.abs(sweeps[0] - sweeps[1]) <= 1e-10 * np.abs(sweeps[1]))

    def test_default_layouts_stay_small(self):
        # fixed floors or margins would push these back towards N = 490
        cfg = RunConfig()
        mass = cfg.model_mass_mev
        momenta = np.geomspace(cfg.scan_k_min_mev, cfg.scan_k_max_mev, cfg.scan_points)
        scan = [
            _size(
                packet_grid_spec(
                    k,
                    k * cfg.scan_sigma_factor,
                    cfg.scan_n,
                    beta_for(k, mass, cfg.scan_beta_x),
                    k_max=cfg.grid_k_max_mev,
                    mass=mass,
                )
            )
            for k in momenta
        ]
        assert np.mean(scan) <= 280
        sweep = packet_grid_spec(
            cfg.kb_k0_mev,
            cfg.kb_k0_mev / 10.0,
            cfg.kb_n_max,
            cfg.kb_beta,
            k_max=cfg.grid_k_max_mev,
            mass=mass,
        )
        assert _size(sweep) <= 280

    @pytest.mark.parametrize("k", [100.0, 1000.0])
    def test_n_ten_thousand_layouts_fit_the_grid_limit(self, k):
        spec = packet_grid_spec(k, k / 24.0, 10_000, beta_for(k))
        assert 5000 <= _size(spec) <= spectral._MAX_GRID_POINTS
