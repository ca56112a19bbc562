"""Tests for grids, the discretized Hamiltonian, and semigroup evaluation."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from euscat import spectral
from euscat.errors import AccuracyError, ConfigError, DomainError, PreconditionError
from euscat.model import SeparableModel, bound_state_energy, default_model
from euscat.spectral import (
    GridSpec,
    Semigroup,
    build_grid,
    diagonalize,
    discretize_h,
    semigroup_apply,
    semigroup_bounds,
)

MODEL = default_model()
GRID = build_grid(GridSpec(panels=[(0.0, 278.0, 100), (278.0, 6000.0, 300)]))
OP = diagonalize(discretize_h(MODEL, GRID))

# small setup reused by the property tests
SMALL_GRID = build_grid(GridSpec(panels=[(0.0, 278.0, 24), (278.0, 3000.0, 72)]))
SMALL_OP = diagonalize(discretize_h(MODEL, SMALL_GRID))
RNG = np.random.default_rng(42)
SMALL_VEC = RNG.standard_normal(SMALL_GRID.size)


class TestGrid:
    def test_gaussian_integral_sanity(self):
        # int_0^inf k^2 e^{-k^2/L^2} dk = sqrt(pi)/4 L^3; tail beyond k_max
        # is e^{-144} of it.
        lam = 500.0
        approx = np.sum(GRID.weights * GRID.nodes**2 * np.exp(-((GRID.nodes / lam) ** 2)))
        exact = math.sqrt(math.pi) / 4.0 * lam**3
        assert abs(approx - exact) <= 1e-8 * exact

    def test_sixteen_points_integrate_degree_31_exactly(self):
        grid = build_grid(GridSpec(panels=[(0.0, 1.0, 16)]))
        approx = np.sum(grid.weights * grid.nodes**31)
        assert approx == pytest.approx(1.0 / 32.0, rel=1e-13)

    def test_nodes_increasing_weights_positive(self):
        assert np.all(np.diff(GRID.nodes) > 0)
        assert np.all(GRID.weights > 0)
        assert GRID.nodes[0] > 0.0
        assert GRID.nodes[-1] < GRID.k_max

    def test_arrays_are_read_only(self):
        with pytest.raises(ValueError):
            GRID.nodes[0] = 1.0
        with pytest.raises(ValueError):
            GRID.weights[0] = 1.0

    def test_explicit_panels(self):
        grid = build_grid(GridSpec(panels=[(0.0, 40.0, 20), (40.0, 100.0, 30)]))
        assert grid.size == 50
        assert np.all(np.diff(grid.nodes) > 0)
        assert "GL[0,40]x20" in grid.descriptor

    def test_descriptor_records_measure_convention(self):
        assert "k^2" in GRID.descriptor

    def test_config_validation(self):
        for panels in (
            [],  # empty
            [(0.0, 4.0, 8), (5.0, 10.0, 8)],  # gap
            [(1.0, 10.0, 8)],  # non-zero start
            [(0.0, 4.0, 8), (4.0, 4.0, 8)],  # non-increasing panel
            [(0.0, 10.0, 0)],  # count below 1
            [(0.0, 10.0, 8.7)],  # fractional count
            [(0.0, 10.0, math.nan)],  # NaN count
            [(0.0, 10.0, math.inf)],  # infinite count
            [(0.0, math.inf, 8)],  # last edge not finite
            [(0.0, -5.0, 8)],  # last edge not positive
        ):
            with pytest.raises(ConfigError):
                build_grid(GridSpec(panels=panels))
        assert build_grid(GridSpec(panels=[(0.0, 10.0, 8.0)])).size == 8


class TestDiscretizeAndDiagonalize:
    def test_zero_coupling_is_diagonal_kinetic(self):
        free = SeparableModel(MODEL.mass, 0.0)
        h = discretize_h(free, GRID)
        assert np.array_equal(h, np.diag(GRID.nodes**2 / MODEL.mass))

    def test_h_exactly_symmetric(self):
        h = discretize_h(MODEL, GRID)
        assert np.array_equal(h, h.T)

    def test_lowest_eigenvalue_matches_bound_state(self):
        # residual offset is the k_max tail of the bound state (~8e-5 MeV)
        assert OP.eigenvalues[0] == pytest.approx(bound_state_energy(MODEL), abs=5e-4)

    def test_refinement_stability(self):
        grid = build_grid(GridSpec(panels=[(0.0, 278.0, 50), (278.0, 6000.0, 150)]))
        lo = diagonalize(discretize_h(MODEL, grid))
        assert abs(lo.eigenvalues[0] - OP.eigenvalues[0]) <= 1e-6 * abs(OP.eigenvalues[0])

    def test_exactly_one_state_below_free_spectrum_and_interlacing(self):
        free = np.sort(GRID.nodes**2 / MODEL.mass)
        ev = OP.eigenvalues
        assert int(np.sum(ev < 0)) == 1
        assert np.all(ev[1:] <= free[1:] + 1e-9)
        assert np.all(ev[1:] >= free[:-1] - 1e-9)

    def test_orthonormal_vectors(self):
        n = OP.size
        gram = OP.vectors.T @ OP.vectors
        assert np.linalg.norm(gram - np.eye(n)) / math.sqrt(n) <= 1e-12

    def test_trace_preserved(self):
        h = discretize_h(MODEL, GRID)
        assert np.sum(OP.eigenvalues) == pytest.approx(np.trace(h), rel=1e-10)

    def test_diagonal_input_returns_coordinate_vectors(self):
        # columns are signed unit coordinate vectors, permuted into
        # ascending-eigenvalue order
        d = np.diag(np.array([3.0, -1.0, 7.0, 2.0]))
        op = diagonalize(d)
        perm = np.abs(op.vectors)
        assert np.allclose(perm @ perm.T, np.eye(4), atol=1e-13)
        assert np.allclose(np.max(perm, axis=0), 1.0, atol=1e-13)
        assert np.allclose(op.eigenvalues, [-1.0, 2.0, 3.0, 7.0])

    def test_rejects_bad_inputs(self):
        with pytest.raises(PreconditionError):
            diagonalize(np.array([[1.0, 2.0], [0.0, 1.0]]))
        with pytest.raises(PreconditionError):
            diagonalize(np.ones((2, 3)))


class TestSemigroup:
    def test_identity_at_zero_beta(self):
        v = RNG.standard_normal(GRID.size)
        out = semigroup_apply(OP, 0.0, v)
        assert np.linalg.norm(out - v) <= 1e-12 * np.linalg.norm(v)

    @settings(max_examples=60, deadline=None)
    @given(
        b1=st.floats(min_value=0.0, max_value=1.5e-3),
        b2=st.floats(min_value=0.0, max_value=1.5e-3),
    )
    def test_semigroup_law(self, b1, b2):
        two_step = semigroup_apply(SMALL_OP, b1, semigroup_apply(SMALL_OP, b2, SMALL_VEC))
        one_step = semigroup_apply(SMALL_OP, b1 + b2, SMALL_VEC)
        assert np.linalg.norm(two_step - one_step) <= 1e-12 * np.linalg.norm(SMALL_VEC)

    def test_free_case_is_elementwise(self):
        free = diagonalize(discretize_h(SeparableModel(MODEL.mass, 0.0), GRID))
        v = RNG.standard_normal(GRID.size)
        out = semigroup_apply(free, 2e-4, v)
        direct = np.exp(-2e-4 * GRID.nodes**2 / MODEL.mass) * v
        assert np.allclose(out, direct, rtol=0, atol=1e-12 * np.linalg.norm(v))

    def test_hermitian_semigroup(self):
        u = RNG.standard_normal(GRID.size)
        v = RNG.standard_normal(GRID.size)
        left = np.dot(u, semigroup_apply(OP, 7e-4, v))
        right = np.dot(semigroup_apply(OP, 7e-4, u), v)
        assert left == pytest.approx(right, rel=1e-12)

    def test_contraction_on_positive_subspace(self):
        mask = OP.eigenvalues >= 0
        coeffs = np.where(mask, RNG.standard_normal(OP.size), 0.0)
        v = OP.vectors @ coeffs
        for beta in (1e-4, 5e-4, 2e-3):
            assert np.linalg.norm(semigroup_apply(OP, beta, v)) <= np.linalg.norm(v) * (
                1 + 1e-13
            )

    def test_spectral_mapping_on_eigenvectors(self):
        beta = 5e-4
        for idx in (0, 1, GRID.size // 2, GRID.size - 1):
            u = OP.vectors[:, idx]
            out = semigroup_apply(OP, beta, u)
            expected = math.exp(-beta * OP.eigenvalues[idx]) * u
            assert np.linalg.norm(out - expected) <= 1e-12

    def test_matrix_argument_applies_columnwise(self):
        block = RNG.standard_normal((GRID.size, 3))
        out = semigroup_apply(OP, 3e-4, block)
        for j in range(3):
            assert np.allclose(out[:, j], semigroup_apply(OP, 3e-4, block[:, j]))

    def test_complex_vectors_supported(self):
        v = RNG.standard_normal(GRID.size) + 1j * RNG.standard_normal(GRID.size)
        out = semigroup_apply(OP, 4e-4, v)
        parts = semigroup_apply(OP, 4e-4, v.real) + 1j * semigroup_apply(OP, 4e-4, v.imag)
        assert np.allclose(out, parts)

    def test_bounds_with_bound_state_exceed_one(self):
        lo, hi = semigroup_bounds(OP, 5e-4)
        assert 0.0 < lo < 1.0
        assert hi == pytest.approx(math.exp(-5e-4 * OP.eigenvalues[0]), rel=1e-14)
        assert hi == pytest.approx(1.0011129, abs=1e-6)

    def test_bounds_free_model_below_one(self):
        free = diagonalize(discretize_h(SeparableModel(MODEL.mass, 0.0), GRID))
        lo, hi = semigroup_bounds(free, 5e-4)
        assert hi < 1.0
        assert hi == pytest.approx(1.0, abs=1e-6)

    def test_rejects_wrong_beta_sign(self):
        v = np.zeros(GRID.size)
        with pytest.raises(DomainError):
            semigroup_apply(OP, -1e-6, v)
        with pytest.raises(DomainError):
            semigroup_bounds(OP, 0.0)
        with pytest.raises(DomainError):
            semigroup_bounds(OP, -1.0)
        for beta in (float("nan"), float("inf")):
            with pytest.raises(DomainError, match=f"finite.*got {beta}"):
                semigroup_apply(OP, beta, v)
            with pytest.raises(DomainError, match=f"finite.*got {beta}"):
                semigroup_bounds(OP, beta)
            with pytest.raises(DomainError, match=f"finite.*got {beta}"):
                Semigroup(op=OP, beta=beta)


class TestDenseSemigroup:
    """Semigroup.apply, one product with the dense e^{-beta H} formed at
    construction, against the eigenbasis oracle semigroup_apply."""

    BETA = 4e-4

    def _assert_matches_oracle(self, v):
        out = Semigroup(op=OP, beta=self.BETA).apply(v)
        oracle = semigroup_apply(OP, self.BETA, v)
        assert out.shape == oracle.shape
        assert np.linalg.norm(out - oracle) <= 1e-12 * np.linalg.norm(oracle)
        return out

    def test_real_vector_stays_real(self):
        out = self._assert_matches_oracle(RNG.standard_normal(GRID.size))
        assert out.dtype == np.float64

    def test_complex_vector(self):
        v = RNG.standard_normal(GRID.size) + 1j * RNG.standard_normal(GRID.size)
        assert self._assert_matches_oracle(v).dtype == np.complex128

    def test_complex_block(self):
        block = RNG.standard_normal((GRID.size, 5)) + 1j * RNG.standard_normal(
            (GRID.size, 5)
        )
        self._assert_matches_oracle(block)

    def test_non_contiguous_complex_slice(self):
        block = RNG.standard_normal((GRID.size, 3)) + 1j * RNG.standard_normal(
            (GRID.size, 3)
        )
        assert not block[:, 1].flags.c_contiguous
        self._assert_matches_oracle(block[:, 1])

    def test_cached_matrix_is_read_only(self, monkeypatch):
        sg = Semigroup(op=OP, beta=self.BETA)
        with pytest.raises(ValueError):
            sg.matrix[0, 0] = 1.0
        used = []
        original = spectral._real_product

        def recording(matrix, v):
            used.append(matrix)
            return original(matrix, v)

        monkeypatch.setattr(spectral, "_real_product", recording)
        sg.apply(np.ones(GRID.size))
        assert len(used) == 1 and used[0] is sg.matrix

    def test_complex_application_makes_no_square_temporary(self):
        grid = build_grid(GridSpec(panels=[(0.0, 278.0, 122), (278.0, 6000.0, 368)]))
        op = diagonalize(discretize_h(MODEL, grid))
        sg = Semigroup(op=op, beta=5e-4)
        v = RNG.standard_normal(grid.size) + 1j * RNG.standard_normal(grid.size)
        tracemalloc.start()
        try:
            sg.apply(v)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < grid.size**2 * 8

    def test_overflowing_bound_raises_typed_error(self):
        deep = diagonalize(np.diag([-20000.0, 10.0, 400.0]))
        with pytest.raises(AccuracyError, match=r"beta=0\.05.*E_0=-20000"):
            semigroup_bounds(deep, 0.05)
        with pytest.raises(AccuracyError, match="E_0=-20000"):
            Semigroup(op=deep, beta=0.05)

    def test_eigenbasis_oracle_shares_the_overflow_check(self):
        deep = diagonalize(np.diag([-20000.0, 10.0, 400.0]))
        with pytest.raises(AccuracyError, match=r"beta=0\.05.*E_0=-20000"):
            semigroup_apply(deep, 0.05, np.ones(3))
        assert np.array_equal(semigroup_apply(deep, 0.0, np.ones(3)), np.ones(3))
