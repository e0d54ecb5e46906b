import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spherecond import (
    ProblemDescriptor,
    application_bound,
    curvature_integral_bound,
    expectation_bound,
    linear_tail_bound,
    log_tail_bound,
    log_tube_ratio_bound,
    smooth_tube_bound,
    tail_bound,
    tube_ratio_bound,
)
from spherecond.bounds import PROBLEM_KINDS, _log_binom, _log_O, _logsumexp
from spherecond.geometry import sphere_volume


def brute_tail(p, d, sigma, t):
    """Direct-summation reference for the tail bound (small p, d only)."""
    r = 1.0 / (t * sigma)
    total = sum(
        4 * math.comb(p, k) * (2 * d) ** k * (1 + r) ** (p - k) * r**k
        for k in range(1, p)
    )
    total += 2 * p * sphere_volume(p) / sphere_volume(p - 1) * ((2 * d * r) ** p)
    return total


class TestTailBound:
    def test_reference_value(self):
        assert tail_bound(3, 1, 1.0, 10.0) == pytest.approx(
            3.50740, abs=5e-6
        )

    @given(
        p=st.integers(2, 12),
        d=st.integers(1, 6),
        sigma=st.floats(0.05, 1.0),
        t=st.floats(1.0, 1e4),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_direct_summation(self, p, d, sigma, t):
        got = tail_bound(p, d, sigma, t)
        ref = brute_tail(p, d, sigma, t)
        assert got == pytest.approx(ref, rel=1e-10)

    @given(p=st.integers(2, 10), d=st.integers(1, 5), sigma=st.floats(0.1, 1.0))
    @settings(max_examples=50, deadline=None)
    def test_decreasing_in_t(self, p, d, sigma):
        ts = [1.0, 3.0, 10.0, 100.0, 1e4]
        vals = [tail_bound(p, d, sigma, t) for t in ts]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_large_parameters_finite(self):
        v = tail_bound(10_000, 500, 1e-3, 1e8)
        assert np.isfinite(v) and v > 0

    def test_overflow_is_inf_and_its_log_is_finite(self):
        # at p = 399, d = 20, sigma = 0.25, t = 2 the bound is about 10^766
        p, d, sigma, t = 399, 20, 0.25, 2.0
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert tail_bound(p, d, sigma, t) == math.inf
            assert tube_ratio_bound(p, d, sigma, 1.0 / t) == math.inf
        with mpmath.workdps(50):
            r, two_d = mpmath.mpf(1) / (t * sigma), 2 * d

            def log_o(k):  # ln O_k, the volume of S^k
                return mpmath.log(2) + (k + 1) / mpmath.mpf(2) * mpmath.log(mpmath.pi) \
                    - mpmath.loggamma(mpmath.mpf(k + 1) / 2)

            ref = mpmath.fsum(4 * mpmath.binomial(p, k) * two_d**k * (1 + r) ** (p - k) * r**k
                              for k in range(1, p))
            ref += 2 * p * mpmath.exp(log_o(p) - log_o(p - 1)) * (two_d * r) ** p
            log_ref = float(mpmath.log(ref))
        assert log_tail_bound(p, d, sigma, t) == pytest.approx(log_ref, rel=1e-13)
        assert log_tube_ratio_bound(p, d, sigma, 1.0 / t) == pytest.approx(log_ref, rel=1e-13)

    @pytest.mark.parametrize("p, d, sigma, x", [(3, 1, 1.0, 10.0), (24, 5, 0.25, 1e4),
                                                (399, 20, 1e-3, 7.2e7)])
    def test_log_bounds_match_the_bounds(self, p, d, sigma, x):
        assert log_tail_bound(p, d, sigma, x) == pytest.approx(
            math.log(tail_bound(p, d, sigma, x)), rel=1e-14, abs=1e-14)
        assert log_tube_ratio_bound(p, d, sigma, 1.0 / x) == pytest.approx(
            math.log(tube_ratio_bound(p, d, sigma, 1.0 / x)), rel=1e-14, abs=1e-14)

    def test_requires_t(self):
        with pytest.raises(TypeError, match="'t'"):
            tail_bound(3, 1, 1.0)

    def test_rejects_t_below_one(self):
        with pytest.raises(ValueError, match="t must be >= 1"):
            tail_bound(3, 1, 1.0, 0.5)

    @pytest.mark.parametrize("t", [math.nan, math.inf])
    def test_rejects_non_finite_t(self, t):
        with pytest.raises(ValueError, match="t must be >= 1 and finite"):
            tail_bound(3, 1, 1.0, t)


# the log-space grid: p up to a few hundred, sigma down to 1e-3, t up to 1e6
GRID_P = (3, 8, 24, 63, 120, 399)
GRID_D = (1, 2, 5, 20)
GRID_SIGMA = (1.0, 0.25, 1e-3)
GRID_T = (1.0, 10.0, 1e3, 1e6)


def mp_log_O(k):
    """ln O_k, the volume of S^k, in mpmath."""
    return mpmath.log(2) + (k + 1) / mpmath.mpf(2) * mpmath.log(mpmath.pi) \
        - mpmath.loggamma(mpmath.mpf(k + 1) / 2)


def mp_log_tail_core(p, d, ratio):
    """ln of the tail sum at r = ratio, at 50 digits. By the binomial theorem,
    sum_{0<k<p} C(p,k) (2d r)^k (1+r)^{p-k} = (1 + r + 2d r)^p - (1+r)^p - (2d r)^p;
    the difference loses at most 7 of the 50 digits on the grid."""
    with mpmath.workdps(50):
        r = mpmath.mpf(ratio)
        x = 2 * d * r
        total = 4 * ((1 + r + x) ** p - (1 + r) ** p - x**p)
        total += 2 * p * mpmath.exp(mp_log_O(p) - mp_log_O(p - 1)) * x**p
        return mpmath.log(total)


class TestLogSpaceAccuracy:
    """The log-gamma and log-sum-exp behind the bounds, against 50-digit mpmath: within
    1e-12 absolute in ln over the whole grid."""

    @pytest.mark.parametrize("p", GRID_P)
    def test_log_sphere_volume_and_binomials(self, p):
        with mpmath.workdps(50):
            for q in (p - 1, p):
                assert abs(_log_O(q) - float(mp_log_O(q))) <= 1e-12
            ref = [float(mpmath.log(mpmath.binomial(p, k))) for k in range(p + 1)]
        assert all(abs(_log_binom(p, k) - r) <= 1e-12 for k, r in enumerate(ref))

    @pytest.mark.parametrize("p", GRID_P)
    def test_log_bounds_over_the_grid(self, p):
        for d in GRID_D:
            for sigma in GRID_SIGMA:
                for t in GRID_T:
                    ref = float(mp_log_tail_core(p, d, 1.0 / (t * sigma)))
                    assert abs(log_tail_bound(p, d, sigma, t) - ref) <= 1e-12, (d, sigma, t)
                    eps = 1.0 / t
                    ref = float(mp_log_tail_core(p, d, eps / sigma))
                    assert abs(log_tube_ratio_bound(p, d, sigma, eps) - ref) <= 1e-12, \
                        (d, sigma, eps)

    @pytest.mark.parametrize("spread", [1e-3, 1.0, 30.0, 1e3])
    def test_logsumexp_matches_scipy(self, spread):
        from scipy.special import logsumexp

        gen = np.random.default_rng(int(spread * 1000))
        for size in (1, 2, 7, 400):
            for _ in range(50):
                a = gen.uniform(-spread, spread, size) + gen.normal(0.0, 1e3)
                ref = logsumexp(a)
                assert abs(_logsumexp(a) - ref) <= 4 * np.spacing(abs(ref))


class TestTubeRatioBound:
    def test_substitution_identity(self):
        # tube bound at eps equals tail bound at t = 1/eps
        for p, d, sigma, eps in [(3, 2, 0.5, 0.1), (5, 1, 1.0, 0.01), (8, 4, 0.25, 0.2)]:
            tube = tube_ratio_bound(p, d, sigma, eps)
            tail = tail_bound(p, d, sigma, 1.0 / eps)
            assert tube == pytest.approx(tail, rel=1e-12)

    @given(p=st.integers(2, 10), d=st.integers(1, 5), sigma=st.floats(0.1, 1.0))
    @settings(max_examples=50, deadline=None)
    def test_increasing_in_eps(self, p, d, sigma):
        epss = [0.01, 0.05, 0.2, 0.6, 1.0]
        vals = [tube_ratio_bound(p, d, sigma, e) for e in epss]
        assert all(a <= b for a, b in zip(vals, vals[1:]))

    def test_requires_eps(self):
        with pytest.raises(TypeError, match="'eps'"):
            tube_ratio_bound(3, 1, 1.0)

    @pytest.mark.parametrize("eps", [0.0, -0.1, 1.5])
    def test_rejects_eps_outside_unit_interval(self, eps):
        with pytest.raises(ValueError, match="eps must lie in"):
            tube_ratio_bound(3, 1, 1.0, eps)


@pytest.mark.parametrize("bound", [
    lambda p, d, sigma: tail_bound(p, d, sigma, 10.0),
    lambda p, d, sigma: tube_ratio_bound(p, d, sigma, 0.1),
    expectation_bound,
    lambda p, d, sigma: linear_tail_bound(p, d, sigma, 1e-3),
    lambda p, d, sigma: smooth_tube_bound(p, d, sigma, 0.1),
], ids=["tail", "tube", "expectation", "linear", "smooth-tube"])
@pytest.mark.parametrize("p,d,sigma,message", [
    (0, 1, 1.0, "p must be >= 1"),
    (3, 0, 1.0, "d must be >= 1"),
    (3, 1, 0.0, "sigma must lie in"),
    (3, 1, 1.5, "sigma must lie in"),
])
def test_shared_range_check(bound, p, d, sigma, message):
    with pytest.raises(ValueError, match=message):
        bound(p, d, sigma)


@pytest.mark.parametrize("bound", [linear_tail_bound, smooth_tube_bound],
                         ids=["linear", "smooth-tube"])
@pytest.mark.parametrize("p,eps,message", [
    (1, 1e-3, "needs p >= 2"),
    (3, 0.0, "eps must lie in"),
    (3, 1.5, "eps must lie in"),
])
def test_p_and_eps_rules(bound, p, eps, message):
    with pytest.raises(ValueError, match=message):
        bound(p, 1, 1.0, eps)


class TestExpectationBound:
    def test_reference_value(self):
        assert expectation_bound(3, 2, 0.5) == pytest.approx(10.4698, abs=5e-5)

    def test_closed_form(self):
        v = expectation_bound(7, 3, 0.2)
        assert v == pytest.approx(2 * math.log(7) + 2 * math.log(3) + 2 * math.log(5) + 5.5)

    def test_p_one_rejected(self):
        with pytest.raises(ValueError, match="needs p >= 2"):
            expectation_bound(1, 1, 1.0)


class TestSmoothTube:
    def test_reference_value(self):
        assert smooth_tube_bound(2, 2, 1.0, 0.1) == pytest.approx(6.0319, abs=5e-4)

    def test_small_eps_linear_scale(self):
        v1 = smooth_tube_bound(4, 2, 0.5, 1e-6)
        v2 = smooth_tube_bound(4, 2, 0.5, 2e-6)
        assert v2 / v1 == pytest.approx(2.0, rel=1e-4)


class TestCurvatureBound:
    def test_reference_value(self):
        assert curvature_integral_bound(3, 2, 0.5, 1) == pytest.approx(100.53, abs=5e-2)

    def test_i_zero_closed_form(self):
        assert curvature_integral_bound(4, 3, 0.5, 0) == pytest.approx(
            2 * sphere_volume(3) * 3 * 0.5**3
        )


@pytest.mark.parametrize("bound, args", [
    (smooth_tube_bound, (399, 400, 1.0, 1.0)),
    (smooth_tube_bound, (600, 100, 1.0, 1.0)),
    (curvature_integral_bound, (399, 400, 1.0, 398)),
])
def test_overflow_is_inf_without_a_warning(bound, args):
    # as tail_bound: a bound beyond the double range is inf, not an overflow error
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert bound(*args) == math.inf


class TestLinearTail:
    def test_reference_value(self):
        assert linear_tail_bound(2, 1, 1.0, 0.01) == pytest.approx(
            (8 * math.e + 4) * 0.02, rel=1e-12
        )

    def test_applicability_cutoff(self):
        assert linear_tail_bound(2, 1, 1.0, 0.9) is None
        edge = 1.0 / ((1 + 2) * 1)  # sigma / ((1+2d)(p-1)) at p=2, d=1, sigma=1
        assert linear_tail_bound(2, 1, 1.0, edge) is not None
        assert linear_tail_bound(2, 1, 1.0, edge * 1.001) is None

    @given(
        p=st.integers(2, 10),
        d=st.integers(1, 5),
        sigma=st.floats(0.1, 1.0),
        frac=st.floats(0.01, 1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_dominates_full_bound_when_applicable(self, p, d, sigma, frac):
        eps = frac * sigma / ((1 + 2 * d) * (p - 1))
        lin = linear_tail_bound(p, d, sigma, eps)
        assert lin is not None
        full = tube_ratio_bound(p, d, sigma, eps)
        assert full <= lin * (1 + 1e-9)


class TestProblemDescriptors:
    def test_matrix_inversion(self):
        assert ProblemDescriptor("matrix-inversion", n=4).ambient_dim_and_degree() == (15, 4)

    def test_moore_penrose(self):
        assert ProblemDescriptor("moore-penrose", l=5, m=3).ambient_dim_and_degree() == (14, 3)

    def test_eigen(self):
        assert ProblemDescriptor("eigen-real", n=3).ambient_dim_and_degree() == (8, 6)
        assert ProblemDescriptor("eigen-complex", n=3).ambient_dim_and_degree() == (17, 6)

    def test_polysys(self):
        p, d = ProblemDescriptor("polysys", degrees=(2, 3)).ambient_dim_and_degree()
        assert p == math.comb(4, 2) + math.comb(5, 2) - 1
        assert d == 2 * 2 * 36

    def test_validation(self):
        with pytest.raises(ValueError):
            ProblemDescriptor("matrix-inversion", n=1)
        with pytest.raises(ValueError):
            ProblemDescriptor("moore-penrose", l=2, m=3)
        with pytest.raises(ValueError, match="matrix-inversion takes no --m"):
            ProblemDescriptor("matrix-inversion", n=2, m=7)
        with pytest.raises(ValueError):
            ProblemDescriptor("no-such-problem", n=3)

    def test_value_semantics(self):
        # what the frozen dataclass gave: positional or keyword fields, a repr, equality
        # and hashing by fields, no assignment, and copies that compare equal
        import copy
        import pickle

        mi = ProblemDescriptor("matrix-inversion", 3)
        assert mi == ProblemDescriptor("matrix-inversion", n=3) != ProblemDescriptor(
            "matrix-inversion", n=4)
        assert mi != ("matrix-inversion", 3, None, None, None)
        assert hash(mi) == hash(ProblemDescriptor(kind="matrix-inversion", n=3))
        assert repr(ProblemDescriptor("polysys", degrees=(2, 3))) == (
            "ProblemDescriptor(kind='polysys', n=None, l=None, m=None, degrees=(2, 3))")
        for name in ("n", "other"):
            with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
                setattr(mi, name, 5)
        with pytest.raises(AttributeError, match="cannot delete field 'n'"):
            del mi.n
        assert (mi.kind, mi.n, mi.l, mi.m, mi.degrees) == ("matrix-inversion", 3, None, None, None)
        mp = ProblemDescriptor("moore-penrose", l=4, m=3)
        assert pickle.loads(pickle.dumps(mp)) == copy.copy(mp) == copy.deepcopy(mp) == mp
        with pytest.raises(TypeError):
            ProblemDescriptor("matrix-inversion", 3, 4, 5, 6, 7)


class TestApplicationBounds:
    def test_expectation_values(self):
        mi = application_bound(ProblemDescriptor("matrix-inversion", n=2), 1.0)
        assert mi == pytest.approx(9.65888, abs=5e-5)
        mp = application_bound(ProblemDescriptor("moore-penrose", l=3, m=2), 1.0)
        assert mp == pytest.approx(2 * math.log(3) + 4 * math.log(2) + 5.5, rel=1e-12)
        er = application_bound(ProblemDescriptor("eigen-real", n=2), 1.0)
        assert er == pytest.approx(8 * math.log(2) + 6.0, rel=1e-12)
        ec = application_bound(ProblemDescriptor("eigen-complex", n=2), 1.0)
        assert ec == pytest.approx(er + 2 * math.log(2), rel=1e-12)

    def test_corollary_vs_generic_relation(self):
        # the matrix-inversion corollary coarsens p = n^2 - 1 up to n^2, so it
        # exceeds the generic bound by exactly 2 ln(n^2 / (n^2 - 1))
        for n in range(2, 101, 7):
            prob = ProblemDescriptor("matrix-inversion", n=n)
            p, d = prob.ambient_dim_and_degree()
            generic = expectation_bound(p, d, 0.5)
            special = application_bound(prob, 0.5)
            gap = 2 * math.log(n * n / (n * n - 1))
            assert special - generic == pytest.approx(gap, abs=1e-12)
        # every corollary coarsens the generic bound at its own (p, d); the smallest
        # margins here are 5.7e-4 (matrix-inversion, n = 59) and 2.4e-3 (moore-penrose)
        problems = [ProblemDescriptor(kind, n=n) for n in range(2, 60)
                    for kind in ("matrix-inversion", "eigen-real", "eigen-complex")]
        problems += [ProblemDescriptor("moore-penrose", l=l, m=m)
                     for l in range(2, 30) for m in range(1, l + 1) if l * m >= 3]
        problems += [ProblemDescriptor("polysys", degrees=degrees)
                     for degrees in [(2,), (3,), (5,), (1, 1), (2, 2), (2, 3), (1, 2, 3),
                                     (3, 3, 3)]]
        assert {prob.kind for prob in problems} == set(PROBLEM_KINDS)
        for prob in problems:
            p, d = prob.ambient_dim_and_degree()
            for sigma in (1.0, 0.5, 1e-3):
                assert application_bound(prob, sigma) >= expectation_bound(p, d, sigma), prob
