"""Tests for Chebyshev expansions of oscillatory exponentials.

The operator route is validated against the exact spectral oracle
U diag(e^{i*osc*exp(-beta E)}) U^T v, which never goes through polynomial
approximation at all.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy import fft, special

from euscat import chebyshev
from euscat.chebyshev import (
    _stacked,
    apply_to_semigroup,
    converged_expansion,
    evaluate_scalar,
    expansion_coefficients,
    uniform_error_report,
)
from euscat.errors import AccuracyError, ConfigError, DomainError, PreconditionError
from euscat.kato_birman import _hamiltonian
from euscat.model import default_model
from euscat.spectral import GridSpec, Semigroup, build_grid, diagonalize

# Reference row errors for degree 300, oscillation magnitude 220 on [0, 1]:
# (x, err in the cosine component, err in the sine component).  Published
# values for this exact configuration; they set the roundoff scale our rows
# must share.
REFERENCE_ROWS = [
    (0.0, 4.44089e-16, 8.32667e-15),
    (0.1, 2.35367e-14, 1.46966e-14),
    (0.2, 5.55112e-16, 3.67970e-14),
    (0.3, 3.84137e-14, 1.80689e-14),
    (0.4, 1.72085e-14, 1.32672e-14),
    (0.5, 2.77556e-15, 2.93793e-14),
    (0.6, 6.66134e-16, 3.33344e-14),
    (0.7, 8.54872e-15, 2.50355e-14),
    (0.8, 1.02141e-14, 1.35447e-14),
    (0.9, 1.22125e-15, 2.72282e-14),
    (1.0, 4.88498e-15, 6.61415e-14),
]

TABLE_EXPANSION = expansion_coefficients(-220.0, 300)
EPS = np.finfo(float).eps


def _interpolation_coefficients(osc, degree, domain):
    """Reference: interpolation at the degree+1 Chebyshev-Gauss nodes by a
    type-II DCT, which converges to the Jacobi-Anger coefficients."""
    a, b = domain
    count = degree + 1
    theta = (2.0 * np.arange(count) + 1.0) * math.pi / (2.0 * count)
    samples = np.exp(1j * osc * (a + (b - a) * (np.cos(theta) + 1.0) / 2.0))
    return (fft.dct(samples.real, type=2) + 1j * fft.dct(samples.imag, type=2)) / count


class TestScalarExpansion:
    def test_reference_error_table_reproduced(self):
        report = uniform_error_report(TABLE_EXPANSION, sample_count=11)
        assert len(report.rows) == len(REFERENCE_ROWS)
        for (x, dcos, dsin), (x_ref, _, _) in zip(report.rows, REFERENCE_ROWS):
            assert x == pytest.approx(x_ref, abs=1e-12)
            assert dcos <= 1e-12
            assert dsin <= 1e-12
        ours = max(max(r[1], r[2]) for r in report.rows)
        reference = max(max(r[1], r[2]) for r in REFERENCE_ROWS)
        assert ours <= 20.0 * reference

    def test_uniform_error_below_thirteen_digits(self):
        report = uniform_error_report(TABLE_EXPANSION)
        assert report.dense_max_cos < 1e-12
        assert report.dense_max_sin < 1e-12

    def test_specific_rows_at_roundoff_scale(self):
        half = abs(evaluate_scalar(TABLE_EXPANSION, 0.5) - np.exp(-220j * 0.5))
        end = abs(evaluate_scalar(TABLE_EXPANSION, 1.0) - np.exp(-220j * 1.0))
        assert half <= 1e-13
        assert end <= 2e-13

    def test_value_one_at_origin(self):
        for osc in (-220.0, 31.5, 440.0):
            exp = expansion_coefficients(osc, 320)
            assert evaluate_scalar(exp, 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_exact_at_interpolation_nodes(self):
        theta = (2.0 * np.arange(301) + 1.0) * np.pi / 602.0
        nodes = (np.cos(theta) + 1.0) / 2.0
        values = evaluate_scalar(TABLE_EXPANSION, nodes)
        assert np.max(np.abs(values - np.exp(-220j * nodes))) < 5e-13

    def test_zero_oscillation_is_the_constant_one(self):
        exp = expansion_coefficients(0.0, 40)
        assert exp.coefficients[0] == 2.0 + 0.0j
        assert np.max(np.abs(exp.coefficients[1:])) < 1e-14
        assert evaluate_scalar(exp, 0.37) == pytest.approx(1.0, abs=1e-13)

    def test_conjugation_symmetry(self):
        plus = expansion_coefficients(220.0, 300)
        assert np.array_equal(plus.coefficients, np.conj(TABLE_EXPANSION.coefficients))
        x = 0.7310
        assert evaluate_scalar(plus, x) == pytest.approx(
            np.conj(evaluate_scalar(TABLE_EXPANSION, x)), rel=1e-12
        )

    def test_coefficient_tail_decays(self):
        tail = np.abs(TABLE_EXPANSION.coefficients[260:])
        assert np.max(tail) < 1e-13

    def test_degree_threshold_demo(self):
        # Below degree ~ |osc| the approximation is useless, far above it
        # the error sits at the roundoff floor.
        low = uniform_error_report(expansion_coefficients(440.0, 150))
        assert max(low.dense_max_cos, low.dense_max_sin) > 0.1
        errs = []
        for degree in (220, 260, 300, 340):
            rep = uniform_error_report(expansion_coefficients(440.0, degree))
            errs.append(max(rep.dense_max_cos, rep.dense_max_sin))
        assert errs[0] > errs[1] > 1e-12
        assert errs[2] < 1e-12
        assert errs[3] < 1e-12

    def test_general_domain(self):
        exp = expansion_coefficients(75.0, 240, domain=(0.0, 1.0012))
        xs = np.linspace(0.0, 1.0012, 500)
        assert np.max(np.abs(evaluate_scalar(exp, xs) - np.exp(75j * xs))) < 1e-12

    def test_extrapolation_refused(self):
        with pytest.raises(DomainError):
            evaluate_scalar(TABLE_EXPANSION, 1.0 + 1e-6)
        with pytest.raises(DomainError):
            evaluate_scalar(TABLE_EXPANSION, -0.2)
        with pytest.raises(DomainError):
            evaluate_scalar(TABLE_EXPANSION, np.array([0.3, 1.7]))

    def test_non_finite_point_refused(self):
        exp = expansion_coefficients(10.0, 30)
        for x in (float("nan"), float("inf"), np.array([0.5, float("nan")])):
            with pytest.raises(DomainError):
                evaluate_scalar(exp, x)

    @pytest.mark.parametrize("osc", [-220.0, 440.0, 600.0])
    @pytest.mark.parametrize("domain", [(0.0, 1.0), (0.0, 1.1)])
    def test_matches_interpolation_reference(self, osc, domain):
        z = abs(osc) * (domain[1] - domain[0]) / 2.0
        for degree in (math.ceil(z) + 96, math.ceil(z) + 200):
            ours = expansion_coefficients(osc, degree, domain).coefficients
            reference = _interpolation_coefficients(osc, degree, domain)
            assert np.max(np.abs(ours - reference)) <= 1e-13

    @pytest.mark.parametrize("z", [1e-300, 1e-5, 0.5, 2.404825557695773, 37.5, 110.0])
    def test_bessel_values_match_scipy(self, z):
        # on (-1, 1) the phase factor is 1, so c_j = 2 i^j J_j(osc); the
        # third z is the first zero of J_0
        exp = expansion_coefficients(z, int(z) + 40, (-1.0, 1.0))
        j = np.arange(exp.degree + 1)
        bessel = (exp.coefficients * (-1j) ** j).real / 2.0
        assert np.max(np.abs(bessel - special.jv(j, z))) <= 1e-14

    @pytest.mark.parametrize("z", [1e5, 1e6])
    def test_large_argument_identities(self, z):
        # deep into the j ~ z transition, up to the degree limit: the series
        # reproduces e^{i osc x} at both ends (T_j(+-1) = (+-1)^j) and the
        # Bessel values satisfy Neumann's J_0^2 + 2 sum J_j^2 = 1
        osc = 2.0 * z
        exp = converged_expansion(osc, (0.0, 1.0), tol=1e-9)
        assert z < exp.degree < z + 1000
        c = exp.coefficients.copy()
        c[0] *= 0.5
        signs = (-1.0) ** np.arange(c.size)
        assert abs(np.sum(c) - np.exp(1j * osc)) <= 1e-9
        assert abs(np.sum(signs * c) - 1.0) <= 1e-9
        neumann = abs(c[0]) ** 2 + 0.5 * np.sum(np.abs(c[1:]) ** 2)
        assert neumann == pytest.approx(1.0, abs=1e-12)

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            expansion_coefficients(220.0, -1)
        with pytest.raises(DomainError):
            expansion_coefficients(220.0, 10, domain=(1.0, 0.0))
        with pytest.raises(DomainError):
            expansion_coefficients(float("inf"), 10)
        with pytest.raises(ConfigError):
            uniform_error_report(TABLE_EXPANSION, sample_count=1)


DIAGONAL = diagonalize(np.diag(np.array([0.0, 400.0, 2500.0, 40000.0])))


class _CountingSemigroup:
    """Duck-typed stand-in recording the block width of every operator
    application, in call order."""

    def __init__(self, inner):
        self.inner, self.op = inner, inner.op
        self.widths = []

    def apply(self, v, out=None, scale=1.0, shift=0.0):
        self.widths.append(1 if v.ndim == 1 else v.shape[1])
        return self.inner.apply(v, out=out, scale=scale, shift=shift)

    def bounds(self):
        return self.inner.bounds()


@pytest.fixture(scope="module")
def semigroup():
    grid = build_grid(GridSpec(panels=[(0.0, 278.0, 100), (278.0, 6000.0, 300)]))
    return Semigroup(op=_hamiltonian(default_model(), grid, None), beta=5e-4)


@pytest.fixture(scope="module")
def vector(semigroup):
    rng = np.random.default_rng(7)
    v = rng.standard_normal(semigroup.op.size)
    return v / np.linalg.norm(v)


class TestOperatorApplication:
    def _oracle(self, semigroup, osc, v):
        op = semigroup.op
        images = np.exp(1j * osc * np.exp(-semigroup.beta * op.eigenvalues))
        return op.vectors @ (images * (op.vectors.T @ v))

    def test_matches_spectral_oracle(self, semigroup, vector):
        # the semigroup acts on eigen-coordinates; the oracle on the grid
        op = semigroup.op
        lo, hi = semigroup.bounds()
        exp = converged_expansion(220.0, (0.0, hi), tol=1e-13)
        approx = op.vectors @ apply_to_semigroup(exp, semigroup, op.coordinates(vector))
        exact = self._oracle(semigroup, 220.0, vector)
        assert np.linalg.norm(approx - exact) <= 1e-12

    def test_zero_oscillation_is_identity(self, semigroup, vector):
        _, hi = semigroup.bounds()
        exp = expansion_coefficients(0.0, 24, domain=(0.0, hi))
        out = apply_to_semigroup(exp, semigroup, vector)
        assert np.linalg.norm(out - vector) < 1e-13

    def test_norm_preserved(self, semigroup, vector):
        _, hi = semigroup.bounds()
        exp = converged_expansion(180.0, (0.0, hi), tol=1e-12)
        out = apply_to_semigroup(exp, semigroup, vector)
        assert abs(np.linalg.norm(out) - 1.0) < 1e-11

    def test_linearity(self, semigroup, vector):
        rng = np.random.default_rng(11)
        u = rng.standard_normal(semigroup.op.size)
        _, hi = semigroup.bounds()
        exp = expansion_coefficients(90.0, 200, domain=(0.0, hi))
        combined = apply_to_semigroup(exp, semigroup, 0.7 * u + vector)
        split = 0.7 * apply_to_semigroup(exp, semigroup, u) + apply_to_semigroup(
            exp, semigroup, vector
        )
        assert np.linalg.norm(combined - split) <= 1e-12 * np.linalg.norm(combined)

    def test_one_semigroup_application_per_order(self, semigroup, vector):
        _, hi = semigroup.bounds()
        exp = expansion_coefficients(30.0, 120, domain=(0.0, hi))
        counting = _CountingSemigroup(semigroup)
        apply_to_semigroup(exp, counting, vector)
        assert counting.widths == [1] * (exp.degree + 1)

    def test_in_place_steps_round_as_the_written_out_recurrence(self, semigroup):
        _, hi = semigroup.bounds()
        exp = expansion_coefficients(30.0, 120, domain=(0.0, hi))
        rng = np.random.default_rng(3)
        block = rng.standard_normal((semigroup.op.size, 2)) + 1j * rng.standard_normal(
            (semigroup.op.size, 2)
        )
        before = block.copy()
        scale, shift = 2.0 / hi, 1.0

        def mapped(factor):
            # the images of factor (scale A - shift), one column
            return (factor * scale * semigroup.images - factor * shift)[:, None]

        c = exp.coefficients
        b1 = b2 = np.zeros_like(block)
        for j in range(exp.degree, 0, -1):
            b1, b2 = mapped(2.0) * b1 - b2 + c[j] * block, b1
        reference = mapped(1.0) * b1 - b2 + 0.5 * c[0] * block
        assert np.array_equal(apply_to_semigroup(exp, semigroup, block), reference)
        assert np.array_equal(block, before)

    def test_block_columns_equal_their_own_passes_bit_for_bit(self, semigroup, apply_widths):
        # out of degree order, the series of 10 and 50 step as zeros under the
        # degree of 300 until their own degrees, so every order takes 3 columns
        _, hi = semigroup.bounds()
        expansions = [converged_expansion(n, (0.0, hi), tol=5e-13) for n in (300, 10, 50)]
        rng = np.random.default_rng(5)
        shape = (semigroup.op.size, 3)
        block = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        values = apply_to_semigroup(_stacked(expansions), semigroup, block)
        assert apply_widths == [3] * (expansions[0].degree + 1)
        for m, exp in enumerate(expansions):
            assert np.array_equal(values[:, m], apply_to_semigroup(exp, semigroup, block[:, m]))

    def test_spectrum_outside_domain_rejected_with_bounds(self, semigroup, vector):
        exp = expansion_coefficients(220.0, 300)  # domain [0, 1] too small
        with pytest.raises(PreconditionError) as err:
            apply_to_semigroup(exp, semigroup, vector)
        assert "1.00111" in str(err.value)

    @pytest.mark.parametrize("shape", [(5,), (3, 2), (4, 2, 1), ()])
    def test_vector_of_another_size_is_refused_before_any_application(self, shape):
        counting = _CountingSemigroup(Semigroup(op=DIAGONAL, beta=5e-4))
        exp = converged_expansion(150.0, (0.0, counting.bounds()[1]), tol=1e-13)
        with pytest.raises(PreconditionError, match="operator of size 4"):
            apply_to_semigroup(exp, counting, np.ones(shape))
        assert counting.widths == []

    @pytest.mark.parametrize("shape", [(4,), (4, 1), (4, 3)])
    def test_block_of_another_width_is_refused_before_any_application(self, shape):
        counting = _CountingSemigroup(Semigroup(op=DIAGONAL, beta=5e-4))
        hi = counting.bounds()[1]
        series = _stacked([converged_expansion(n, (0.0, hi), tol=1e-13) for n in (10.0, 150.0)])
        with pytest.raises(PreconditionError, match="fit 2 series"):
            apply_to_semigroup(series, counting, np.ones(shape))
        assert counting.widths == []

    @given(
        exponents=st.lists(st.floats(-2.0, 20.0), min_size=1, max_size=12),
        ns=st.lists(st.integers(1, 300), min_size=1, max_size=4),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(exponents=[-2.0, 0.5, 20.0], ns=[1, 300], seed=0)  # a bound state: hi = e^2
    def test_block_pass_on_a_random_diagonal_spectrum(self, exponents, ns, seed):
        # beta E = exponents, so the images e^{-beta E} span up to e^2 > 1;
        # each series is certified to 4 eps max(1, n hi), four times its
        # rounding floor, and Clenshaw adds at most (degree + 1) eps per unit
        # of |v_i| (under 0.12 of that over 3000 random draws)
        sg = Semigroup(op=diagonalize(np.diag(exponents)), beta=1.0)
        hi = sg.bounds()[1]
        ns = sorted(ns)
        tols = [4 * EPS * max(1.0, n * hi) for n in ns]
        expansions = [converged_expansion(n, (0.0, hi), tol=t) for n, t in zip(ns, tols)]
        degrees = [exp.degree for exp in expansions]
        rng = np.random.default_rng(seed)
        shape = (len(exponents), len(ns))
        block = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        counting = _CountingSemigroup(sg)
        values = apply_to_semigroup(_stacked(expansions), counting, block)
        assert counting.widths == [sum(d >= j for d in degrees) for j in range(max(degrees), -1, -1)]
        assert sum(counting.widths) == sum(d + 1 for d in degrees)
        for m, (n, exp, tol) in enumerate(zip(ns, expansions, tols)):
            column = _CountingSemigroup(sg)
            own = apply_to_semigroup(exp, column, block[:, m])
            if len(exponents) > 1:
                assert np.array_equal(values[:, m], own)
            else:  # one row: numpy's complex product may round another way
                rounding = 2 * (exp.degree + 1) * EPS * np.abs(block[:, m])
                assert np.all(np.abs(values[:, m] - own) <= rounding)
            assert column.widths == [1] * (exp.degree + 1)
            err = np.abs(values[:, m] - np.exp(1j * n * sg.images) * block[:, m])
            assert np.all(err <= (tol + (exp.degree + 1) * EPS) * np.abs(block[:, m]))

    def test_operator_matches_scalar_on_diagonal(self, semigroup):
        # diagonal operator: operator application must equal elementwise
        # scalar evaluation at the eigenvalue images
        d = DIAGONAL
        sg = Semigroup(op=d, beta=5e-4)
        _, hi = sg.bounds()
        exp = converged_expansion(150.0, (0.0, hi), tol=1e-13)
        v = np.array([1.0, -2.0, 0.5, 3.0])
        out = apply_to_semigroup(exp, sg, v)
        images = np.exp(1j * 150.0 * np.exp(-5e-4 * d.eigenvalues))
        assert np.max(np.abs(out - images * v)) < 1e-12


class TestConvergedExpansion:
    def test_meets_tolerance(self):
        exp = converged_expansion(440.0, (0.0, 1.0), tol=1e-12)
        rep = uniform_error_report(exp)
        assert max(rep.dense_max_cos, rep.dense_max_sin) <= 1e-12

    def test_unreachable_tolerance_raises(self):
        with pytest.raises(AccuracyError):
            converged_expansion(440.0, (0.0, 1.0), tol=1e-16)

    def test_degree_estimate_beyond_limit_raises(self):
        # a semigroup bound of e^400 on a packet sweep at n = 20
        with pytest.raises(AccuracyError, match="degree estimate"):
            converged_expansion(40.0, (0.0, math.exp(400.0)))
        with pytest.raises(AccuracyError, match="degree estimate"):
            converged_expansion(40.0, (0.0, 1e308))
        with pytest.raises(AccuracyError, match="exceeds the limit"):
            converged_expansion(4e6, (0.0, 1.0))

    def test_coefficients_beyond_the_degree_limit_raise(self, monkeypatch):
        # Miller's recurrence would start past e|z|/2; cheb-table exits 3 here
        with pytest.raises(AccuracyError, match="exceeds the limit"):
            expansion_coefficients(4e6, 300)
        # so does a degree past the limit, before any allocation: degree 3e6
        # used to take 0.32 s, and 1e8 would ask for 800 MB per array
        def refuse(degree, z):
            raise AssertionError("Bessel values were computed")

        monkeypatch.setattr(chebyshev, "_bessel_j", refuse)
        for degree in (chebyshev._MAX_DEGREE + 1, 3_000_000):
            with pytest.raises(AccuracyError, match=f"degree {degree} exceeds the limit"):
                expansion_coefficients(220.0, degree)

    def test_zero_oscillation_needs_degree_zero(self):
        exp = converged_expansion(0.0, (0.0, 1.0))
        assert exp.degree == 0
        assert exp.coefficients[0] == 2.0 + 0.0j

    def test_invalid_arguments_are_domain_errors(self):
        with pytest.raises(DomainError):
            converged_expansion(10.0, (0.0, float("nan")))
        with pytest.raises(DomainError):
            converged_expansion(10.0, (1.0, 0.0))
        with pytest.raises(DomainError):
            converged_expansion(float("nan"), (0.0, 1.0))
        for tol in (0.0, -1e-12, float("nan"), float("inf")):
            with pytest.raises(DomainError):
                converged_expansion(10.0, (0.0, 1.0), tol=tol)

    def test_tolerance_below_phase_rounding_raises(self):
        # eps * 5000 * 1.001 = 1.11e-12 > 1e-12
        with pytest.raises(AccuracyError, match="rounding floor"):
            converged_expansion(5000.0, (0.0, 1.001), tol=1e-12)
        assert converged_expansion(5000.0, (0.0, 1.001), tol=2e-12).degree > 2502

    @given(
        osc=st.floats(min_value=-3000.0, max_value=3000.0),
        a=st.floats(min_value=-1.0, max_value=0.5),
        b=st.floats(min_value=1.0, max_value=3.0),
        log_tol=st.floats(min_value=-12.0, max_value=-4.0),
    )
    def test_tail_certifies_uniform_error(self, osc, a, b, log_tol):
        tol = 10.0**log_tol
        try:
            exp = converged_expansion(osc, (a, b), tol=tol)
        except AccuracyError:
            return
        xs = np.linspace(a, b, 4001)
        err = np.max(np.abs(evaluate_scalar(exp, xs) - np.exp(1j * osc * xs)))
        assert err <= tol + EPS * max(1.0, abs(osc) * max(abs(a), abs(b)))
