"""Tests for grids, the discretized Hamiltonian, and semigroup evaluation."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from euscat import spectral
from euscat.errors import AccuracyError, ConfigError, DomainError, PreconditionError
from euscat.kato_birman import beta_for, packet_grid_spec
from euscat.model import SeparableModel, bound_state_energy, critical_coupling, default_model
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

# Gauss-Legendre anchors on [-1, 1], (index, node, weight), from 40-digit
# mpmath Newton iteration on P_n: the middle, next-to-end and end nodes
LEGENDRE_ANCHORS = {
    1: [(0, 0.0, 2.0)],
    2: [(0, -0.5773502691896257645091488, 1.0), (1, 0.5773502691896257645091488, 1.0)],
    3: [
        (1, 0.0, 0.8888888888888888888888889),
        (2, 0.7745966692414833770358531, 0.5555555555555555555555556),
    ],
    40: [
        (20, 0.03877241750605082193319344, 0.07750594797842481126372396),
        (38, 0.9907262386994570064530544, 0.01049828453115281361474217),
        (39, 0.9982377097105592003496227, 0.004521277098533191258471733),
    ],
    160: [
        (80, 0.009786689277549032274815068, 0.01957275361701003503129433),
        (158, 0.9994086206413058018869975, 0.0006704383201523032814753063),
        (159, 0.9998877522721632388586307, 0.0002880585285210830446544994),
    ],
}


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


    def test_oversized_grid_is_refused_before_any_node(self, monkeypatch):
        def refuse(orders):
            raise AssertionError("a Gauss-Legendre rule was computed")

        monkeypatch.setattr(spectral, "_RULES", {})
        monkeypatch.setattr(spectral, "_legendre_rules", refuse)
        limit = spectral._MAX_GRID_POINTS
        with pytest.raises(AccuracyError, match=f"N = {limit + 1} .* GB.* N = {limit} "):
            build_grid(GridSpec(panels=[(0.0, 1.0, limit // 2), (1.0, 2.0, limit // 2 + 1)]))


def _assert_fresh_rules_on_panels(x, w, lo, counts, legendre_rules):
    # the nodes and weights of unit panels from lo, bit for bit those of a
    # fresh legendre_rules call for each panel's order
    start = 0
    for edge, count in zip(lo.tolist(), counts.tolist()):
        rule_x, rule_w = legendre_rules([count])[count]
        assert np.array_equal(x[start : start + count], edge + 0.5 + 0.5 * rule_x)
        assert np.array_equal(w[start : start + count], 0.5 * rule_w)
        start += count
    assert start == x.size == w.size


class TestLegendreRule:
    @pytest.mark.parametrize("count", sorted(LEGENDRE_ANCHORS))
    def test_matches_forty_digit_anchors(self, count):
        x, w = spectral._legendre_rules([count])[count]
        for index, node, weight in LEGENDRE_ANCHORS[count]:
            assert abs(x[index] - node) <= 2.3e-16
            # the end weight carries the end node's rounding times ~n^2
            tol = 1e-12 if index == count - 1 else 1e-13
            assert abs(w[index] - weight) <= tol * weight

    @pytest.mark.parametrize("count", [1, 2, 3, 8, 40, 41, 160])
    def test_integrates_even_powers_exactly(self, count):
        x, w = spectral._legendre_rules([count])[count]
        for power in range(0, 2 * count, 2):
            assert np.sum(w * x**power) == pytest.approx(2.0 / (power + 1), rel=1e-13)

    @pytest.mark.parametrize("count", [1, 2, 3, 8, 40, 41, 160, 161, 1000])
    def test_rule_is_ordered_symmetric_and_read_only(self, count):
        x, w = spectral._legendre_rules([count])[count]
        assert x.shape == w.shape == (count,)
        assert np.all(np.diff(x) > 0)
        assert np.array_equal(x, -x[::-1])
        assert np.array_equal(w, w[::-1])
        assert np.all(w > 0)
        assert abs(np.sum(w) - 2.0) <= 4 * np.finfo(float).eps
        for arr in (x, w):
            with pytest.raises(ValueError):
                arr[0] = 0.5

    def test_batched_rules_equal_the_rules_of_one_order(self):
        # every order 1..600 in one batch; against the same Newton iteration
        # run for each order alone with its own scalar recurrence, each
        # order to 64 and a spread of larger ones (all 600 take about 6 s)
        def alone(count):
            k = np.arange(1, (count + 1) // 2 + 1)
            x = np.cos(math.pi * (4 * k - 1) / (4 * count + 2))

            def pair(x):
                p_prev, p = np.ones_like(x), x
                for j in range(2, count + 1):
                    p_prev, p = p, ((2 * j - 1) * x * p - (j - 1) * p_prev) / j
                return p_prev, p

            for _ in range(spectral._MAX_NEWTON_STEPS):
                p_prev, p = pair(x)
                step = p * (1.0 - x) * (1.0 + x) / (count * (p_prev - x * p))
                x = x - step
                if np.max(np.abs(step)) <= 1e-15:
                    break
            if count % 2:
                x[-1] = 0.0
            p_prev, p = pair(x)
            w = 2.0 * (1.0 - x) * (1.0 + x) / (count * (p_prev - x * p)) ** 2
            half = count // 2
            return np.concatenate([-x[:half], x[::-1]]), np.concatenate([w[:half], w[::-1]])

        orders = list(range(1, 601))
        rules = spectral._legendre_rules(orders)
        for count in [*range(1, 65), *range(101, 600, 37), 599, 600]:
            x, w = rules[count]
            x_alone, w_alone = alone(count)
            assert np.array_equal(x, x_alone) and np.array_equal(w, w_alone), count

    def test_panel_nodes_build_the_missing_orders_in_one_batch(self, monkeypatch):
        batches = []
        original = spectral._legendre_rules

        def recording(orders):
            batches.append(list(orders))
            return original(orders)

        monkeypatch.setattr(spectral, "_RULES", original([40]))
        monkeypatch.setattr(spectral, "_legendre_rules", recording)
        counts = np.array([80, 40, 41, 80, 3])
        lo = np.arange(5.0)
        x, w = spectral._panel_nodes(lo, lo + 1.0, counts)
        assert [sorted(batch) for batch in batches] == [[3, 41, 80]]
        _assert_fresh_rules_on_panels(x, w, lo, counts, original)

    def test_table_is_emptied_before_it_passes_the_cap(self, monkeypatch):
        batches = []
        original = spectral._legendre_rules

        def recording(orders):
            batches.append(sorted(orders))
            return original(orders)

        monkeypatch.setattr(spectral, "_RULES", {})
        monkeypatch.setattr(spectral, "_MAX_RULES", 4)
        monkeypatch.setattr(spectral, "_legendre_rules", recording)
        for counts, table in (
            ([5, 3, 5], [3, 5]),
            ([3, 7, 2], [2, 3, 5, 7]),  # fills the table to the cap
            ([7, 2], [2, 3, 5, 7]),  # all held: nothing is built
            ([9, 3], [3, 9]),  # would pass the cap: emptied, both built
            ([1, 2, 4, 6, 8, 10, 6], [1, 2, 4, 6, 8, 10]),  # more than the cap
        ):
            counts = np.array(counts)
            lo = np.arange(float(counts.size))
            x, w = spectral._panel_nodes(lo, lo + 1.0, counts)
            assert sorted(spectral._RULES) == table
            _assert_fresh_rules_on_panels(x, w, lo, counts, original)
        assert batches == [[3, 5], [2, 7], [3, 9], [1, 2, 4, 6, 8, 10]]

    def test_newton_cap_raises(self, monkeypatch):
        monkeypatch.setattr(spectral, "_MAX_NEWTON_STEPS", 0)
        with pytest.raises(AccuracyError, match="order 40 did not converge"):
            spectral._legendre_rules([40])


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

    def test_residuals_are_those_of_the_eigenpairs_in_order(self, monkeypatch):
        # every seventh eigenvalue of eigh moved by up to 1.4e-11 ||H||_F, so
        # that those residuals stand far above the rounding of their
        # evaluation; extended precision gives the residuals of the pairs
        h = discretize_h(MODEL, SMALL_GRID)
        eigh = np.linalg.eigh

        def shifted(a):
            e, u = eigh(a)
            e[::7] += 1e-12 * np.linalg.norm(a) * np.arange(1, e[::7].size + 1)
            return e, u

        monkeypatch.setattr(np.linalg, "eigh", shifted)
        op = diagonalize(h)
        u = op.vectors.astype(np.longdouble)
        exact = np.linalg.norm(
            (h.astype(np.longdouble) @ u - u * op.eigenvalues).astype(float), axis=0
        )
        large = exact > 10.0 * np.median(exact)
        assert np.count_nonzero(large) >= 5
        assert np.allclose(op.residuals[large], exact[large], rtol=1e-2, atol=0.0)
        assert not op.residuals.flags.writeable

    def test_residual_check_rejects_wrong_vectors(self, monkeypatch):
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: (eigh(a)[0], eigh(a)[1][:, ::-1]))
        with pytest.raises(AccuracyError, match="residual"):
            diagonalize(discretize_h(MODEL, SMALL_GRID))

    def test_orthogonality_check_rejects_a_repeated_eigenspace(self, monkeypatch):
        # eigenvalue 1 twice: columns e_0 and (e_0 + e_1)/sqrt(2) leave no residual
        skewed = np.eye(3)
        skewed[1, 1] = skewed[0, 1] = math.sqrt(0.5)
        monkeypatch.setattr(np.linalg, "eigh", lambda a: (np.array([1.0, 1.0, 2.0]), skewed))
        with pytest.raises(AccuracyError, match="U\\^T U - I"):
            diagonalize(np.diag([1.0, 1.0, 2.0]))

    def test_every_solver_goes_through_the_one_acceptance_check(self, monkeypatch):
        original, sizes = spectral._accepted_residuals, []

        def counted(rows, u, scale):
            sizes.append(u.shape[0])
            return original(rows, u, scale)

        monkeypatch.setattr(spectral, "_accepted_residuals", counted)
        diagonalize(np.diag([3.0, 1.0]))
        d, v = spectral._separable_terms(MODEL, SMALL_GRID)
        for coupling in (MODEL.coupling, 0.0):
            spectral._rank_one_operator(d, v, coupling)
        assert sizes == [2, SMALL_GRID.size, SMALL_GRID.size]


EPS = np.finfo(float).eps


def _rank_one_check(d, v, coupling):
    """The structured eigensolver on diag(d) - coupling v v^T against eigh of
    the dense matrix: a typed error, or ascending eigenvalues within
    16 N eps ||H||_F of eigh's, residual within 1e-10 ||H||_F and
    ||U^T U - I||_F within 1e-10, both recomputed here from the dense H."""
    h = np.diag(d) - coupling * np.outer(v, v)
    try:
        op = spectral._rank_one_operator(d, v, coupling)
    except AccuracyError:
        return None
    n = d.size
    scale = np.linalg.norm(h)
    u, e = op.vectors, op.eigenvalues
    assert np.all(np.isfinite(e)) and np.all(np.isfinite(u))
    assert np.all(np.diff(e) >= 0.0)
    assert np.max(np.abs(e - np.linalg.eigvalsh(h))) <= 16 * n * EPS * scale
    assert np.linalg.norm(h @ u - u * e) <= 1e-10 * scale
    assert np.linalg.norm(u.T @ u - np.eye(n)) <= 1e-10
    return op


@st.composite
def rank_one_problems(draw):
    """Ascending d, some gaps from 1e4 down to 0 times eps ||d||; v with
    entries from 1 down to 1e-15 or to 1e-300, and exact zeros; coupling 0,
    attractive, repulsive, 1e-8 past critical (d shifted positive, so
    lambda_c = 1 / sum v^2/d) or 1e6x."""
    n = draw(st.integers(min_value=1, max_value=24))
    d = np.sort(np.array(draw(st.lists(
        st.floats(-1e3, 1e3, allow_nan=False), min_size=n, max_size=n))))
    if n > 1 and draw(st.booleans()):
        i = draw(st.integers(0, n - 2))
        ulps = draw(st.sampled_from([0.0, 0.5, 1.0, 4.0, 64.0, 1e3, 1e4]))
        d[i + 1 :] = np.maximum(d[i + 1 :], d[i] + ulps * EPS * np.max(np.abs(d)))
    smallest = draw(st.sampled_from([-15.0, -300.0]))
    exponents = np.array(draw(st.lists(
        st.floats(smallest, 0.0), min_size=n, max_size=n)))
    signs = np.array(draw(st.lists(st.sampled_from([-1.0, 0.0, 1.0]), min_size=n, max_size=n)))
    v = signs * 10.0**exponents
    kind = draw(st.sampled_from(["zero", "attractive", "repulsive", "critical", "huge"]))
    size = 10.0 ** draw(st.floats(-3.0, 6.0))
    if kind == "critical":
        d = d - d[0] + 1.0
        inverse = np.sum(v * v / d)
        coupling = (1.0 + 1e-8) / inverse if inverse > 1e-300 else 1.0
    else:
        coupling = {"zero": 0.0, "attractive": size, "repulsive": -size,
                    "huge": 1e6 * size * draw(st.sampled_from([-1.0, 1.0]))}[kind]
    return d, v, coupling


class TestRankOneSolver:
    """The production eigensolver of H = diag(d) - coupling v v^T."""

    @settings(max_examples=150, derandomize=True, database=None, deadline=None)
    @given(problem=rank_one_problems())
    def test_matches_eigh_or_raises_a_typed_error(self, problem):
        _rank_one_check(*problem)

    @pytest.mark.parametrize("coupling", [
        0.0,
        -MODEL.coupling,
        critical_coupling() * (1.0 + 1e-8),
        MODEL.coupling,
        1e6 * MODEL.coupling,
    ], ids=["zero", "repulsive", "near-critical", "default", "huge"])
    def test_model_couplings_on_a_production_grid(self, coupling):
        d, v = spectral._separable_terms(MODEL, SMALL_GRID)
        assert _rank_one_check(d, v, coupling) is not None

    def test_matches_the_dense_path(self):
        d, v = spectral._separable_terms(MODEL, GRID)
        op = spectral._rank_one_operator(d, v, MODEL.coupling)
        scale = np.linalg.norm(discretize_h(MODEL, GRID))
        assert np.max(np.abs(op.eigenvalues - OP.eigenvalues)) <= 1e-14 * scale
        # e^{-beta H} as a dense matrix from each decomposition
        dense = semigroup_apply(OP, 5e-4, np.eye(GRID.size))
        assert np.linalg.norm(semigroup_apply(op, 5e-4, np.eye(GRID.size)) - dense) <= 1e-13

    def test_zero_coupling_is_the_kinetic_diagonal(self):
        d = np.array([0.5, 1.0, 4.0])
        op = spectral._rank_one_operator(d, np.ones(3), 0.0)
        assert np.array_equal(op.eigenvalues, d)
        assert np.array_equal(op.vectors, np.eye(3))

    def test_deflates_equal_poles_and_zero_components(self):
        d = np.array([1.0, 2.0, 2.0, 3.0])
        op = _rank_one_check(d, np.array([0.5, 0.6, 0.8, 0.0]), -0.7)
        # the rotation leaves 2 (c^2 + s^2) for the pair at 2, the zero component 3
        assert np.min(np.abs(op.eigenvalues - 2.0)) <= 4 * EPS
        assert 3.0 in op.eigenvalues

    def test_negligible_component_keeps_its_pole_and_unit_vector(self):
        # |v_1| ||v|| = 1.4e-20 is below 8 eps max(|d|, ||v||^2) = 5.3e-15
        op = _rank_one_check(np.array([1.0, 2.0, 3.0]), np.array([1.0, 1e-20, 1.0]), -1.0)
        column = int(np.flatnonzero(op.eigenvalues == 2.0)[0])
        assert np.array_equal(np.abs(op.vectors[:, column]), [0.0, 1.0, 0.0])

    def test_recomputed_weights_keep_clustered_vectors_orthogonal(self):
        # four poles within 8e-10: vectors from v itself reach 1.6e-13 here,
        # the Gu-Eisenstat weights about 3e-16
        d = np.array([5.520151352236907, 5.5201513530334445, 5.5201513534317135,
                      5.5201513538299825])
        v = np.array([-1.3884520707118678e-01, -7.7958131213176393e-05,
                      9.8154143707311861e-02, -5.9496961110257347e-05])
        op = _rank_one_check(d, v, 63.0224254146562)
        assert np.linalg.norm(op.vectors.T @ op.vectors - np.eye(4)) <= 1e-14

    def test_switches_to_the_middle_way_when_fixed_weight_stalls(self):
        # three poles within 2e-11 and weights over eleven decades: fixed-weight
        # steps alone pass the iteration cap on the root between the last two
        d = np.array([-10.61359765550832, 0.9345269837507281, 0.9345269837612706,
                      0.9345269837823557])
        v = np.array([1.5539107462940382e-13, 4.3160242715759820e-07,
                      -6.3698006752074119e-05, 2.2623249989409122e-02])
        assert _rank_one_check(d, v, 217.68069225081737) is not None

    def test_largest_root_next_to_a_light_pole(self):
        # the root sits 1.3e-26 above the pole at 0: a step from the midpoint
        # 0.125 would cancel to nothing, so the model is solved for the offset
        op = _rank_one_check(np.array([-1.0, 0.0]), np.array([0.5, 1e-13]), -1.0)
        assert op.eigenvalues[1] == pytest.approx(1e-26 / 0.75, rel=1e-14)

    def test_largest_root_at_the_end_of_its_bracket(self):
        # six poles rotate down to two, and the largest root lies within
        # rounding of d_{K-1} + sum(w), the closed end of its bracket
        d = np.array([-76.99920832569258, -38.06246888549636, -38.06246888545078,
                      -38.0624688854052, -38.062468885268466, -38.06246888522289])
        v = np.array([9.8177831664270488e-12, -3.3968764047842095e-07,
                      -6.4980463617977768e-02, -2.1466104788176113e-06,
                      -2.2287462314690601e-09, -7.7691013059284147e-07])
        assert _rank_one_check(d, v, -6.5150563066102665) is not None

    @pytest.mark.parametrize("scale", [1e-160, 1e200])
    @pytest.mark.parametrize("coupling", [1.0, -1.0])
    def test_extreme_scales_are_solved_at_unit_scale(self, scale, coupling):
        # the dense reference would overflow at 1e200: compare with scale 1
        d = np.array([1.0, 2.0, 3.0, 4.0])
        unit = spectral._rank_one_operator(d, np.ones(4), coupling)
        op = spectral._rank_one_operator(scale * d, np.full(4, math.sqrt(scale)), coupling)
        assert np.allclose(op.eigenvalues / scale, unit.eigenvalues, rtol=1e-14, atol=0.0)
        assert np.allclose(np.abs(op.vectors), np.abs(unit.vectors), rtol=0.0, atol=1e-14)

    @pytest.mark.parametrize("sign", [-1.0, 1.0], ids=["repulsive", "attractive"])
    def test_residuals_are_those_of_the_eigenpairs_in_order(self, sign):
        # a grid reaching down to k = 1e-3 MeV, where the deflated pairs have
        # residuals far above the median; extended precision gives the
        # residuals of the float pairs themselves
        grid = build_grid(GridSpec(panels=[(0.0, 1e-3, 40), (1e-3, 6000.0, 160)]))
        model = SeparableModel(MODEL.mass, sign * MODEL.coupling)
        d, v = spectral._separable_terms(model, grid)
        op = spectral._rank_one_operator(d, v, model.coupling)
        d, v = d.astype(np.longdouble), v.astype(np.longdouble)
        h = np.diag(d) - np.longdouble(model.coupling) * np.outer(v, v)
        u = op.vectors.astype(np.longdouble)
        exact = np.linalg.norm((h @ u - u * op.eigenvalues).astype(float), axis=0)
        large = exact > 10.0 * np.median(exact)
        assert np.count_nonzero(large) >= 5
        assert np.allclose(op.residuals[large], exact[large], rtol=1e-2, atol=0.0)
        assert not op.residuals.flags.writeable

    def test_secular_solver_holds_two_square_buffers(self, monkeypatch):
        # the k0 = 1000 MeV, sigma = k0/24, n = 2000 t-scan layout, K = 1050:
        # the pole spacings and one work array, 2 x 8 K^2 bytes and change
        grid = build_grid(packet_grid_spec(1000.0, 1000.0 / 24.0, 2000, beta_for(1000.0)))
        original, peaks = spectral._secular_solve, []

        def traced(d, v):
            tracemalloc.start()
            try:
                result = original(d, v)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            peaks.append(peak / (8 * d.size**2))
            return result

        monkeypatch.setattr(spectral, "_secular_solve", traced)
        spectral._rank_one_operator(*spectral._separable_terms(MODEL, grid), MODEL.coupling)
        assert grid.size == 1050 and len(peaks) == 1
        assert peaks[0] <= 2.2

    def test_checks_hold_no_third_square_array(self):
        # the same layout, the whole call: U with the check buffer, then U
        # with its flipped copy (attractive coupling); 3.02 x 8 N^2 bytes
        # while the rank-one term was one N x N outer product
        grid = build_grid(packet_grid_spec(1000.0, 1000.0 / 24.0, 2000, beta_for(1000.0)))
        d, v = spectral._separable_terms(MODEL, grid)
        tracemalloc.start()
        try:
            spectral._rank_one_operator(d, v, MODEL.coupling)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert MODEL.coupling > 0.0 and grid.size == 1050
        assert peak <= 2.2 * 8 * grid.size**2

    def test_rejects_a_descending_diagonal(self):
        with pytest.raises(PreconditionError):
            spectral._rank_one_operator(np.array([2.0, 1.0]), np.ones(2), 1.0)

    def test_secular_iteration_cap_raises(self, monkeypatch):
        monkeypatch.setattr(spectral, "_MAX_SECULAR_ITERATIONS", 1)
        d, v = spectral._separable_terms(MODEL, SMALL_GRID)
        with pytest.raises(AccuracyError, match="not converged"):
            spectral._rank_one_operator(d, v, MODEL.coupling)

    def test_residual_check_rejects_wrong_vectors(self, monkeypatch):
        original = spectral._rank_one_update

        def perturbed(d, v):
            x, u = original(d, v)
            return x, u[::-1]

        monkeypatch.setattr(spectral, "_rank_one_update", perturbed)
        with pytest.raises(AccuracyError, match="residual"):
            spectral._rank_one_operator(np.array([1.0, 2.0, 3.0]), np.ones(3), 0.5)

    def test_orthogonality_check_rejects_a_repeated_eigenspace(self, monkeypatch):
        # eigenvalue 1 twice: rows e_0 and (e_0 + e_1)/sqrt(2) leave no residual
        def skewed(d, v):
            u = np.eye(3)
            u[1, :2] = math.sqrt(0.5)
            return np.array([d[0], d[1], d[2] + v[2] ** 2]), u

        monkeypatch.setattr(spectral, "_rank_one_update", skewed)
        with pytest.raises(AccuracyError, match="U\\^T U - I"):
            spectral._rank_one_operator(np.array([1.0, 1.0, 2.0]), np.array([0.0, 0.0, 1.0]), -1.0)


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
    """Semigroup.apply, the elementwise product with e^{-beta E} on
    eigen-coordinates c = U^T u, against the grid-coordinate oracle
    semigroup_apply conjugated by U: U^T e^{-beta H} U c."""

    BETA = 4e-4

    def _assert_matches_oracle(self, c):
        out = Semigroup(op=OP, beta=self.BETA).apply(c)
        oracle = OP.coordinates(semigroup_apply(OP, self.BETA, OP.vectors @ c))
        assert out.shape == oracle.shape
        assert np.linalg.norm(out - oracle) <= 1e-12 * np.linalg.norm(oracle)
        return out

    def test_real_vector_stays_real(self):
        out = self._assert_matches_oracle(RNG.standard_normal(GRID.size))
        assert out.dtype == np.float64

    def test_complex_vector(self):
        c = RNG.standard_normal(GRID.size) + 1j * RNG.standard_normal(GRID.size)
        assert self._assert_matches_oracle(c).dtype == np.complex128

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

    def test_cached_images_are_read_only(self):
        sg = Semigroup(op=OP, beta=self.BETA)
        with pytest.raises(ValueError):
            sg.images[0] = 1.0
        assert np.array_equal(sg.images, np.exp(-self.BETA * OP.eigenvalues))
        assert np.array_equal(sg.apply(np.ones(GRID.size)), sg.images)
        # the recurrence works in place on what apply returns
        for c in (np.ones(GRID.size), np.ones((GRID.size, 2), dtype=complex)):
            out = sg.apply(c)
            assert not np.shares_memory(out, c) and not np.shares_memory(out, sg.images)

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
