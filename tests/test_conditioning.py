import math
from fractions import Fraction

import numpy as np
import pytest

from spherecond import (
    PolySystem,
    RngStream,
    SpherePoint,
    WeylPolynomial,
    cntr_witness_check,
    discriminant_distance_2x2,
    eigenvalue_condition,
    frobenius_condition,
    mu_norm,
    multiple_zero_witness,
    system_projective_distance,
    weyl_inner,
    weyl_norm,
)
from spherecond.conditioning import _expand, random_system_with_zero
from weyl_rotation import rotate_system, sample_rotation


class TestMatrixCondition:
    def test_identity(self):
        assert frobenius_condition(np.eye(3)) == pytest.approx(math.sqrt(3))

    def test_diag(self):
        a = np.diag([3.0, 4.0])
        assert frobenius_condition(a) == pytest.approx(5.0 / 3.0)

    def test_singular(self):
        assert frobenius_condition(np.array([[1.0, 0.0], [0.0, 0.0]])) == math.inf

    def test_scale_invariant(self):
        gen = np.random.default_rng(0)
        a = gen.standard_normal((4, 4))
        assert frobenius_condition(7.3 * a) == pytest.approx(frobenius_condition(a), rel=1e-12)

    def test_moore_penrose_tall(self):
        a = np.array([[1.0, 0.0], [0.0, 2.0], [0.0, 0.0]])
        assert frobenius_condition(a) == pytest.approx(math.sqrt(5.0))

    def test_moore_penrose_rejects_wide(self):
        with pytest.raises(ValueError):
            frobenius_condition(np.ones((2, 3)))

    def test_stack_equals_per_matrix(self):
        gen = np.random.default_rng(4)
        for shape in [(3, 3), (4, 2)]:
            mats = gen.standard_normal((2, 5, *shape))
            mats[1, 2, :, -1] = mats[1, 2, :, 0]  # rank-deficient: inf
            kappas = frobenius_condition(mats)
            assert kappas.shape == (2, 5)
            expected = [[frobenius_condition(m) for m in row] for row in mats]
            assert kappas.tolist() == expected
            assert kappas[1, 2] == math.inf

    def test_stack_rejects_a_zero_matrix(self):
        mats = np.ones((3, 2, 2))
        mats[1] = 0.0
        with pytest.raises(ValueError):
            frobenius_condition(mats)


class TestEigenvalueCondition:
    def test_symmetric_is_perfect(self):
        a = np.array([[2.0, 1.0], [1.0, 3.0]])
        for lam in np.linalg.eigvalsh(a):
            assert eigenvalue_condition(a, float(lam)) == pytest.approx(1.0, abs=1e-10)

    def test_nonnormal(self):
        # [[0, K], [0, 1]] has kappa(., 0) = sqrt(1 + K^2)
        k = 50.0
        a = np.array([[0.0, k], [0.0, 1.0]])
        assert eigenvalue_condition(a, 0.0) == pytest.approx(math.sqrt(1 + k * k), rel=1e-10)

    def test_rejects_non_eigenvalue(self):
        with pytest.raises(ValueError):
            eigenvalue_condition(np.eye(2), 0.5)


class TestDiscriminantDistance:
    def test_already_defective(self):
        a = np.array([[1.0, 1.0], [0.0, 1.0]])
        assert discriminant_distance_2x2(a) == pytest.approx(0.0, abs=1e-10)

    def test_antisymmetric(self):
        # [[0,1],[-1,0]]: nearest repeated-eigenvalue matrix is 0 + the
        # symmetric part is zero; closed form gives sqrt(2 - 0 - 1) = 1
        a = np.array([[0.0, 1.0], [-1.0, 0.0]])
        assert discriminant_distance_2x2(a) == pytest.approx(1.0, rel=1e-10)

    def test_symmetric_closed_form(self):
        # for symmetric A the nearest defective matrix shears off-diagonally
        # as well, giving distance |lam1 - lam2| / 2
        gen = np.random.default_rng(3)
        for _ in range(20):
            b = gen.standard_normal((2, 2))
            a = (b + b.T) / 2
            lam = np.linalg.eigvalsh(a)
            expected = abs(lam[1] - lam[0]) / 2.0
            assert discriminant_distance_2x2(a) == pytest.approx(expected, rel=1e-8, abs=1e-10)

    def test_random_matrices_closed_form(self):
        # general closed form: dist^2 = ||A||^2 - tr(A)^2/2 - max_theta <A, uv^T>^2
        # cross-check against a very fine independent grid
        gen = np.random.default_rng(4)
        for _ in range(10):
            a = gen.standard_normal((2, 2))
            thetas = np.linspace(0, np.pi, 200_001)
            c, s = np.cos(thetas), np.sin(thetas)
            val = a[0, 1] * c * c - a[1, 0] * s * s + (a[1, 1] - a[0, 0]) * s * c
            ref = math.sqrt(max(np.linalg.norm(a) ** 2 - np.trace(a) ** 2 / 2
                                - np.max(val**2), 0.0))
            got = discriminant_distance_2x2(a)
            # the polished maximizer beats the reference grid, so got <= ref
            assert got <= ref + 1e-12
            assert got == pytest.approx(ref, rel=1e-6, abs=1e-10)

    @pytest.mark.parametrize("t", [1e-4, 1e-6, 1e-8, 1e-10])
    @pytest.mark.parametrize("lam,r,theta", [(0.3, 1.0, 0.4), (-1.2, 0.5, 2.0), (0.0, 2.0, 1.0)])
    def test_near_quadric(self, lam, r, theta, t):
        # B = lam*I + r u v^T with v orthogonal to u lies on the quadric
        # g = (b11 - b22)^2 + 4 b12 b21 = 0; stepping t along grad g / |grad g|
        # puts A at distance t. Rounding A's entries moves that distance by
        # ~1e-16, so 1e-6 relative is the resolution at t = 1e-10.
        u = np.array([math.cos(theta), math.sin(theta)])
        b = lam * np.eye(2) + r * np.outer(u, [-u[1], u[0]])
        grad = np.array([[2 * (b[0, 0] - b[1, 1]), 4 * b[1, 0]],
                         [4 * b[0, 1], -2 * (b[0, 0] - b[1, 1])]])
        a = b + t * grad / np.linalg.norm(grad)
        assert discriminant_distance_2x2(a) == pytest.approx(t, rel=1e-6, abs=0.0)

    def test_wilkinson_inequality(self):
        # kappa(A, lam) <= sqrt(2) ||A||_F / dist for every real simple eigenvalue
        gen = np.random.default_rng(5)
        checked = 0
        while checked < 200:
            a = gen.standard_normal((2, 2))
            eig = np.linalg.eigvals(a)
            if np.max(np.abs(eig.imag)) > 1e-12:
                continue
            if abs(eig[0] - eig[1]) < 1e-6 * np.linalg.norm(a):
                continue
            bound = math.sqrt(2) * np.linalg.norm(a) / discriminant_distance_2x2(a)
            for lam in eig.real:
                assert eigenvalue_condition(a, float(lam)) <= bound + 1e-6
            checked += 1


class TestRealEigenLower:
    def test_defective_matrix_is_huge(self):
        # a Jordan block lies on the quadric: distance 0, condition number infinite
        a = np.array([[1.0, 1.0], [0.0, 1.0]])
        assert discriminant_distance_2x2(a) == 0.0


def linear_system(n):
    polys = []
    for i in range(n):
        alpha = [0] * (n + 1)
        alpha[i + 1] = 1
        polys.append(WeylPolynomial(n=n, degree=1, coefficients={tuple(alpha): 1.0}))
    return PolySystem(tuple(polys))


def e0(n):
    v = np.zeros(n + 1)
    v[0] = 1.0
    return SpherePoint(v)


def random_poly(n, d, gen):
    basis = _expand([np.ones(n + 1)] * d, n)
    return WeylPolynomial(n=n, degree=d,
                          coefficients={a: float(gen.standard_normal()) for a in basis})


class TestWeylPolynomial:
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 6])
    def test_rows_equal_per_row(self, n, d):
        gen = np.random.default_rng(10 * n + d)
        f = random_poly(n, d, gen)
        x = gen.standard_normal((40, n + 1))
        vals, grads = f(x), f.gradient(x)
        assert vals.shape == (40,) and grads.shape == (40, n + 1)
        # rows do not interact: any split into blocks gives the same bits
        for i in range(40):
            assert vals[i] == f(x[i:i + 1])[0]
            assert np.array_equal(grads[i], f.gradient(x[i:i + 1])[0])
        # one point (Python floats) and a batch row take the same multiplications
        for i in range(40):
            assert f(x[i]) == vals[i]
            assert np.array_equal(f.gradient(x[i]), grads[i])
        assert isinstance(f(x[0]), float) and f.gradient(x[0]).shape == (n + 1,)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("d", [1, 3, 6])
    def test_matches_exact_rational_evaluation(self, n, d):
        # each term takes d multiplications and the sum one addition per term, so the
        # error is at most (d + terms) unit roundoffs of sum |c x^alpha| (Higham, gamma_m)
        gen = np.random.default_rng(50 * n + d)
        f = random_poly(n, d, gen)
        x = gen.standard_normal((20, n + 1))
        absf = WeylPolynomial(n=n, degree=d,
                              coefficients={a: abs(c) for a, c in f.coefficients.items()})
        gamma = 1.01 * (d + len(f.coefficients)) * 2.0 ** -53
        vals, grads = f(x), f.gradient(x)
        for row, val, grad in zip(x, vals, grads):
            q = [Fraction(v) for v in row]

            def exact(alpha, c):
                return c * math.prod(qi ** e for qi, e in zip(q, alpha))

            assert abs(Fraction(val) - sum(exact(a, Fraction(c))
                                           for a, c in f.coefficients.items())) \
                <= gamma * absf(np.abs(row))
            for i in range(n + 1):
                g_i = sum(exact(a[:i] + (a[i] - 1,) + a[i + 1:], Fraction(c) * a[i])
                          for a, c in f.coefficients.items() if a[i])
                assert abs(Fraction(grad[i]) - g_i) <= gamma * absf.gradient(np.abs(row))[i]

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_gradient_matches_central_differences(self, n):
        gen = np.random.default_rng(30 + n)
        f = random_poly(n, 4, gen)
        x = gen.standard_normal((20, n + 1))
        h = 1e-5
        fd = np.stack([(f(x + h * e) - f(x - h * e)) / (2 * h) for e in np.eye(n + 1)], axis=1)
        assert np.allclose(f.gradient(x), fd, rtol=1e-6, atol=1e-6)

    def test_rejects_wrong_shape(self):
        f = WeylPolynomial(n=1, degree=2, coefficients={(1, 1): 1.0})
        for x in (np.ones(3), np.ones((4, 3)), np.ones((2, 2, 2))):
            with pytest.raises(ValueError):
                f(x)

    def test_expand_is_the_product_of_forms(self):
        gen = np.random.default_rng(3)
        forms = gen.standard_normal((3, 3))
        f = WeylPolynomial(n=2, degree=3, coefficients=_expand(forms, 2))
        x = gen.standard_normal((10, 3))
        assert np.allclose(f(x), np.prod(x @ forms.T, axis=1), rtol=1e-12, atol=0)

    def test_expand_orders_monomials_as_combinations(self):
        # random_system_with_zero draws one coefficient per key, in this order
        from itertools import combinations_with_replacement

        for n in (1, 2, 3):
            for d in (1, 2, 3, 4):
                expected = []
                for combo in combinations_with_replacement(range(n + 1), d):
                    expected.append(tuple(combo.count(i) for i in range(n + 1)))
                assert list(_expand([np.ones(n + 1)] * d, n)) == expected


class TestWeylInner:
    def test_monomial_weights(self):
        # <x0 x1, x0 x1> = 1/2 under the invariant product
        f = WeylPolynomial(n=1, degree=2, coefficients={(1, 1): 1.0})
        assert weyl_inner(f, f) == pytest.approx(0.5)

    def test_pure_power(self):
        f = WeylPolynomial(n=1, degree=3, coefficients={(3, 0): 2.0})
        assert weyl_norm(f) == pytest.approx(2.0)

    def test_orthogonal_invariance(self):
        f = WeylPolynomial(n=2, degree=3, coefficients={
            (3, 0, 0): 1.0, (1, 1, 1): -0.7, (0, 2, 1): 2.2, (0, 0, 3): 0.4})
        for k in range(10):
            rot = sample_rotation(3, RngStream(100, k))
            g = rotate_system(PolySystem((f, f)), rot)
            assert weyl_norm(g.polys[0]) == pytest.approx(weyl_norm(f), rel=1e-10)

    def test_mismatch_rejected(self):
        f = WeylPolynomial(n=1, degree=2, coefficients={(2, 0): 1.0})
        g = WeylPolynomial(n=1, degree=3, coefficients={(3, 0): 1.0})
        with pytest.raises(ValueError):
            weyl_inner(f, g)


class TestMuNorm:
    def test_linear_system_is_sqrt_n(self):
        for n in (1, 2, 3):
            assert mu_norm(linear_system(n), e0(n)) == pytest.approx(math.sqrt(n), rel=1e-12)

    def test_x0x1_is_one(self):
        f = WeylPolynomial(n=1, degree=2, coefficients={(1, 1): 1.0})
        assert mu_norm(PolySystem((f,)), e0(1)) == pytest.approx(1.0, rel=1e-12)

    def test_orthogonal_invariance(self):
        f, zeta = random_system_with_zero(2, 2, np.random.default_rng(8))
        base = mu_norm(f, zeta)
        for k in range(10):
            rot = sample_rotation(3, RngStream(200, k))
            g = rotate_system(f, rot)
            rzeta = SpherePoint.from_vector(rot @ zeta.coords)
            assert mu_norm(g, rzeta) == pytest.approx(base, rel=1e-8)

    def test_rejects_non_zero(self):
        with pytest.raises(ValueError):
            mu_norm(linear_system(2), SpherePoint.from_vector(np.array([0.0, 1.0, 0.0])))

    def test_multiple_zero_is_inf(self):
        # f = x1^2 has a double zero at e0
        f = WeylPolynomial(n=1, degree=2, coefficients={(0, 2): 1.0})
        assert mu_norm(PolySystem((f,)), e0(1)) == math.inf


class TestWitness:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_witness_product_is_one(self, d):
        gen = np.random.default_rng(10 + d)
        for _ in range(25):
            f, zeta = random_system_with_zero(1, d, gen)
            g = multiple_zero_witness(f, zeta)
            mu = mu_norm(f, zeta)
            dist = system_projective_distance(f, g)
            if math.isinf(mu):
                continue
            # the surgery constructs the nearest rank-drop system, so the
            # lower bound mu * dist >= 1 is attained with equality
            assert mu * dist == pytest.approx(1.0, abs=1e-6)
            assert cntr_witness_check(f, zeta, g)

    def test_witness_zero_and_rank_drop(self):
        f, zeta = random_system_with_zero(1, 3, np.random.default_rng(20))
        g = multiple_zero_witness(f, zeta)
        assert abs(weyl_norm(g) - 1.0) <= 1e-10
        assert np.linalg.norm(g(zeta.coords)) <= 1e-10
        from spherecond.conditioning import restricted_jacobian
        sg = np.linalg.svd(restricted_jacobian(g, zeta), compute_uv=False)
        assert sg[-1] <= 1e-10 * max(sg[0], 1.0)
