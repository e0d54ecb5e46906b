import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from spherecond import (
    PolySystem,
    RngStream,
    SpherePoint,
    WeylPolynomial,
    cntr_witness_check,
    cntr_witness_product,
    discriminant_distance_2x2,
    eigenvalue_condition,
    frobenius_condition,
    mu_norm,
    multiple_zero_witness,
    system_projective_distance,
    weyl_inner,
    weyl_norm,
)
from spherecond.conditioning import (
    _monomial_values,
    _monomials,
    _projected_svd,
    _sum,
    planted_systems,
)
import cntr_reference
from cntr_reference import expand, minus
from weyl_rotation import expand_forms, random_system_with_zero, rotate_system, sample_rotation


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


# The single-matrix implementations that the stacked ones replaced, kept as references.
def eigenvalue_condition_reference(a, lam):
    fro = np.linalg.norm(a)
    u, _, vt = np.linalg.svd(a - lam * np.eye(a.shape[0]))
    x, y = vt[-1], u[:, -1]
    if np.linalg.norm(a @ x - lam * x) > 1e-8 * max(fro, 1e-300):
        raise ValueError("lam is not an eigenvalue of A (residual too large)")
    dot = abs(float(np.dot(x, y)))
    return math.inf if dot <= 1e-12 else 1.0 / dot


def discriminant_distance_reference(a):
    (a11, a12), (a21, a22) = a
    r_plus_d = math.hypot((a12 + a21) / 2, (a11 - a22) / 2) + abs(a12 - a21) / 2
    if r_plus_d == 0.0:
        return 0.0
    return float(abs((a11 - a22) ** 2 + 4.0 * a12 * a21) / (4.0 * r_plus_d))


def real_eigen_matrices(n, count, seed):
    """Standard normal n x n matrices with real eigenvalues, and those eigenvalues."""
    a = np.random.default_rng(seed).standard_normal((count, n, n))
    eig = np.linalg.eigvals(a)
    real = np.max(np.abs(eig.imag), axis=1) == 0.0
    return a[real], eig[real].real


class TestStackedEigenvalueCondition:
    @pytest.mark.parametrize("n", [2, 3])
    def test_stack_matches_one_matrix_at_a_time(self, n):
        a, eig = real_eigen_matrices(n, 3000, 31 + n)
        for j in range(n):
            stacked = eigenvalue_condition(a, eig[:, j])
            single = [eigenvalue_condition(m, float(lam)) for m, lam in zip(a, eig[:, j])]
            reference = [eigenvalue_condition_reference(m, float(lam))
                         for m, lam in zip(a, eig[:, j])]
            assert stacked.shape == (len(a),)
            assert all(type(k) is float for k in single)
            assert np.array_equal(stacked, single)
            assert np.array_equal(stacked, reference)

    def test_nested_stack_and_infinite_rows(self):
        a, eig = real_eigen_matrices(2, 400, 37)
        a, eig = a[:240], eig[:240]
        a[5] = [[1.0, 1.0], [0.0, 1.0]]  # a Jordan block: orthogonal eigenvectors
        eig[5] = 1.0
        flat = eigenvalue_condition(a, eig[:, 0])
        assert flat[5] == math.inf
        nested = eigenvalue_condition(a.reshape(4, 60, 2, 2), eig[:, 0].reshape(4, 60))
        assert np.array_equal(nested.ravel(), flat)

    def test_one_bad_lambda_raises(self):
        a, eig = real_eigen_matrices(2, 300, 41)
        lam = eig[:, 0].copy()
        lam[17] += 0.5
        with pytest.raises(ValueError, match="not an eigenvalue"):
            eigenvalue_condition(a, lam)

    def test_rejects_non_square_stack(self):
        with pytest.raises(ValueError):
            eigenvalue_condition(np.ones((3, 2, 3)), np.zeros(3))


class TestStackedDiscriminantDistance:
    def test_stack_matches_one_matrix_at_a_time(self):
        a = np.random.default_rng(43).standard_normal((20000, 2, 2))
        a[:100] *= 1e-150
        a[100:200] *= 1e150
        a[200] = 3.0 * np.eye(2)  # on the quadric: distance 0
        stacked = discriminant_distance_2x2(a)
        single = [discriminant_distance_2x2(m) for m in a]
        assert all(type(d) is float for d in single)
        assert stacked[200] == 0.0
        assert np.array_equal(stacked, single)
        assert np.array_equal(stacked, [discriminant_distance_reference(m) for m in a])

    def test_nested_stack(self):
        a = np.random.default_rng(47).standard_normal((3, 5, 2, 2))
        assert np.array_equal(discriminant_distance_2x2(a).ravel(),
                              discriminant_distance_2x2(a.reshape(15, 2, 2)))

    def test_rejects_other_shapes(self):
        with pytest.raises(ValueError):
            discriminant_distance_2x2(np.ones((4, 3, 3)))


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
    basis = expand([np.ones(n + 1)] * d, n)
    return WeylPolynomial(n=n, degree=d,
                          coefficients={a: float(gen.standard_normal()) for a in basis})


def tangent_basis(zeta):
    """Orthonormal basis of zeta^perp, as columns: the last n columns of a QR
    completion of zeta (the reference that the projected Jacobian replaced)."""
    n1 = zeta.size
    q, _ = np.linalg.qr(np.column_stack([zeta, np.eye(n1)[:, : n1 - 1]]))
    if np.dot(q[:, 0], zeta) < 0:
        q = -q
    return q[:, 1:]


def mu_norm_by_basis(f, zeta):
    """mu_norm from Df restricted to tangent_basis, inverted by a solve."""
    m = f.jacobian(zeta.coords) @ tangent_basis(zeta.coords)
    scaled = np.linalg.solve(m, np.diag(np.sqrt(np.array(f.degrees, dtype=float))))
    return weyl_norm(f) * np.linalg.norm(scaled, 2)


def mu_norm_by_two_norm(f, zeta):
    """mu_norm's path for mixed degrees, taken for any degrees: |f| times the spectral norm
    of diag(sqrt d_i / s) u^T from the projected Jacobian's SVD."""
    _, u, s, _ = _projected_svd(f, zeta)
    scaled = np.swapaxes(u, -1, -2) / s[..., :, None] * np.sqrt(np.array(f.degrees, dtype=float))
    return weyl_norm(f) * np.linalg.norm(scaled, 2, axis=(-2, -1))


def mixed_system_with_zero(degrees, gen):
    """Random system with the given degrees and a planted zero, as in random_system_with_zero."""
    n = len(degrees)
    zeta = SpherePoint.from_vector(gen.standard_normal(n + 1))
    polys = []
    for d in degrees:
        f = random_poly(n, d, gen)
        polys.append(minus(f, expand([zeta.coords] * d, n), f(zeta.coords)))
    return PolySystem(tuple(polys)), zeta


SYSTEM_SHAPES = [(n, d) for n in (1, 2, 3) for d in (1, 2, 3, 4)]


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
    @pytest.mark.parametrize("d", [1, 2, 4, 6])
    def test_columns_give_the_bits_of_rows(self, n, d):
        # one power table over coordinate columns gives f and the gradient of the rows
        gen = np.random.default_rng(70 * n + d)
        f = random_poly(n, d, gen)
        x = gen.standard_normal((500, n + 1))
        x[:20] *= 1e-100
        vals, grads = f.value_and_gradient([x[:, j].copy() for j in range(n + 1)])
        assert len(grads) == n + 1
        assert np.array_equal(vals, f(x))
        assert np.array_equal(np.stack(grads, axis=1), f.gradient(x))
        one, one_grad = f.value_and_gradient([x[7:8, j].copy() for j in range(n + 1)])
        assert one[0] == vals[7] and [g[0] for g in one_grad] == [g[7] for g in grads]

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
        # both expansions: the reference's dicts and the rotation helper's table rows
        gen = np.random.default_rng(3)
        forms = gen.standard_normal((3, 3))
        f = WeylPolynomial(n=2, degree=3, coefficients=expand(forms, 2))
        x = gen.standard_normal((10, 3))
        assert np.allclose(f(x), np.prod(x @ forms.T, axis=1), rtol=1e-12, atol=0)
        dense = PolySystem(degrees=(3, 3), coefficients=[expand_forms(forms, 2)] * 2)
        assert np.allclose(dense(x)[:, 0], f(x), rtol=1e-12, atol=0)

    def test_expand_orders_monomials_as_combinations(self):
        # random_system_with_zero draws one coefficient per monomial, in this order
        from itertools import combinations_with_replacement

        for n in (1, 2, 3):
            for d in (1, 2, 3, 4):
                expected = []
                for combo in combinations_with_replacement(range(n + 1), d):
                    expected.append(tuple(combo.count(i) for i in range(n + 1)))
                assert list(map(tuple, _monomials(n, d)[0].tolist())) == expected
                assert list(expand([np.ones(n + 1)] * d, n)) == expected


class TestWeylInner:
    def test_monomial_weights(self):
        # <x0 x1, x0 x1> = 1/2 under the invariant product
        f = PolySystem((WeylPolynomial(n=1, degree=2, coefficients={(1, 1): 1.0}),))
        assert weyl_inner(f, f) == pytest.approx(0.5)

    def test_pure_power(self):
        f = PolySystem((WeylPolynomial(n=1, degree=3, coefficients={(3, 0): 2.0}),))
        assert weyl_norm(f) == pytest.approx(2.0)

    def test_orthogonal_invariance(self):
        f = WeylPolynomial(n=2, degree=3, coefficients={
            (3, 0, 0): 1.0, (1, 1, 1): -0.7, (0, 2, 1): 2.2, (0, 0, 3): 0.4})
        system = PolySystem((f, f))
        for k in range(10):
            rot = sample_rotation(3, RngStream(100, k))
            g = rotate_system(system, rot)
            assert weyl_norm(g) == pytest.approx(weyl_norm(system), rel=1e-10)

    def test_mismatch_rejected(self):
        f = WeylPolynomial(n=1, degree=2, coefficients={(2, 0): 1.0})
        g = WeylPolynomial(n=1, degree=3, coefficients={(3, 0): 1.0})
        with pytest.raises(ValueError):
            weyl_inner(PolySystem((f,)), PolySystem((g,)))


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

    @pytest.mark.parametrize("n,d", SYSTEM_SHAPES)
    def test_matches_tangent_basis_reference(self, n, d):
        gen = np.random.default_rng(300 + 10 * n + d)
        for _ in range(50):
            f, zeta = random_system_with_zero(n, d, gen)
            assert mu_norm(f, zeta) == pytest.approx(mu_norm_by_basis(f, zeta), rel=1e-10)

    @pytest.mark.parametrize("degrees", [(1, 3), (4, 2), (1, 2, 4), (3, 1, 2)])
    def test_mixed_degrees_match_tangent_basis_reference(self, degrees):
        # unequal sqrt(d_i) weights tell u^T apart from u
        gen = np.random.default_rng(sum(degrees) * 7 + len(degrees))
        for _ in range(50):
            f, zeta = mixed_system_with_zero(degrees, gen)
            assert mu_norm(f, zeta) == pytest.approx(mu_norm_by_basis(f, zeta), rel=1e-10)

    @pytest.mark.parametrize("degrees", [(1, 1), (2,), (3,), (4,), (2, 2), (3, 3, 3),
                                         (2, 2, 2, 2)])
    def test_equal_degrees_closed_form_matches_two_norm(self, degrees):
        # equal degrees: sqrt(d) / s_min in place of a second SVD, to 1e-13 relative
        _, f, zeta = planted_batch(degrees, 60, 700 + 10 * len(degrees) + degrees[0])
        mu = mu_norm(f, zeta)
        assert np.all(np.isfinite(mu))
        assert np.max(np.abs(mu / mu_norm_by_two_norm(f, zeta) - 1.0)) <= 1e-13

    def test_rejects_non_zero(self):
        with pytest.raises(ValueError):
            mu_norm(linear_system(2), SpherePoint.from_vector(np.array([0.0, 1.0, 0.0])))

    def test_multiple_zero_is_inf(self):
        # f = x1^2 has a double zero at e0
        f = WeylPolynomial(n=1, degree=2, coefficients={(0, 2): 1.0})
        assert mu_norm(PolySystem((f,)), e0(1)) == math.inf


def weyl_sine_mpmath(f, g):
    """sin of the Weyl angle between one system's double coefficients and another's, at
    50 digits, with the exact weights 1 / multinomial(d; alpha)."""
    with mpmath.workdps(50):
        def inner(a, b):
            return mpmath.fsum(mpmath.mpf(x) * mpmath.mpf(y) / mpmath.mpf(int(round(m)))
                               for d, ca, cb in zip(f.degrees, a.coefficients, b.coefficients)
                               for x, y, m in zip(ca, cb, _monomials(f.n, d)[2]))

        return float(mpmath.sqrt(1 - inner(f, g) ** 2 / (inner(f, f) * inner(g, g))))


class TestProjectiveDistance:
    @pytest.mark.parametrize("degrees", [(2,), (3, 1), (2, 2, 3)])
    def test_planted_angles_match_mpmath(self, degrees):
        # unit f, and g at a planted angle theta from f (and -g): the sine is relatively
        # accurate down to theta = 1e-8, where sqrt(1 - cos^2) kept about 1e-16 / theta^2
        gen = np.random.default_rng(sum(degrees))
        f, h = ([gen.standard_normal(math.comb(len(degrees) + d, d)) for d in degrees]
                for _ in range(2))
        f = PolySystem(degrees=degrees, coefficients=f)
        f = PolySystem(degrees=degrees, coefficients=[c / weyl_norm(f) for c in f.coefficients])
        h = PolySystem(degrees=degrees, coefficients=[
            b - weyl_inner(f, PolySystem(degrees=degrees, coefficients=h)) * a
            for a, b in zip(f.coefficients, h)])
        h = PolySystem(degrees=degrees, coefficients=[c / weyl_norm(h) for c in h.coefficients])
        for theta in np.logspace(-8.0, 0.0, 17):
            for sign in (1.0, -1.0):
                g = PolySystem(degrees=degrees, coefficients=[
                    sign * (math.cos(theta) * a + math.sin(theta) * b)
                    for a, b in zip(f.coefficients, h.coefficients)])
                exact = weyl_sine_mpmath(f, g)
                assert exact == pytest.approx(math.sin(theta), rel=1e-6)
                assert system_projective_distance(f, g) == pytest.approx(exact, rel=1e-14, abs=0)

    def test_scales_do_not_matter(self):
        gen = np.random.default_rng(3)
        f, g = (PolySystem(degrees=(2, 3), coefficients=[
            gen.standard_normal(6), gen.standard_normal(10)]) for _ in range(2))
        scaled = [PolySystem(degrees=(2, 3), coefficients=[k * c for c in s.coefficients])
                  for k, s in ((3.0, f), (0.5, g))]
        assert system_projective_distance(*scaled) == pytest.approx(
            weyl_sine_mpmath(f, g), rel=1e-13, abs=0)


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

    @pytest.mark.parametrize("degrees", [(2,), (3,), (2, 2), (3, 1)])
    def test_product_is_mu_times_distance(self, degrees):
        _, f, zeta = planted_batch(degrees, 20, 950 + sum(degrees) * len(degrees))
        g = multiple_zero_witness(f, zeta)
        product = cntr_witness_product(f, zeta, g)
        assert np.array_equal(product, mu_norm(f, zeta) * system_projective_distance(f, g))
        assert np.array_equal(cntr_witness_check(f, zeta, g), product >= 1.0 - 1e-6)

    def test_product_is_inf_at_a_multiple_zero(self):
        # x0 x1^2 - x1^3 / 2: e0 is a multiple zero of f, and f is its own witness
        f = WeylPolynomial(n=1, degree=3, coefficients={(1, 2): 1.0, (0, 3): -0.5})
        f = PolySystem((f,))
        unit = PolySystem(degrees=f.degrees, coefficients=[c / weyl_norm(f) for c in f.coefficients])
        assert mu_norm(unit, e0(1)) == math.inf
        assert cntr_witness_product(unit, e0(1), unit) == math.inf
        assert cntr_witness_check(unit, e0(1), unit) is True

    def test_product_checks_the_witness(self):
        f, zeta = random_system_with_zero(1, 3, np.random.default_rng(21))
        f = PolySystem(degrees=f.degrees, coefficients=[c / weyl_norm(f) for c in f.coefficients])
        with pytest.raises(ValueError, match="multiple zero"):
            cntr_witness_product(f, zeta, f)
        g = multiple_zero_witness(f, zeta)
        twice = PolySystem(degrees=g.degrees, coefficients=[2.0 * c for c in g.coefficients])
        with pytest.raises(ValueError, match="unit norm"):
            cntr_witness_product(f, zeta, twice)
        with pytest.raises(ValueError, match="not a zero"):
            cntr_witness_product(f, SpherePoint.from_vector(np.roll(zeta.coords, 1)), g)

    def test_single_linear_form_has_no_witness(self):
        # for n = d = 1 the correction is all of f; its round-off is no witness
        gen = np.random.default_rng(411)
        for _ in range(50):
            f, zeta = random_system_with_zero(1, 1, gen)
            with pytest.raises(ValueError, match="leaves the zero system"):
                multiple_zero_witness(f, zeta)

    def test_witness_zero_and_rank_drop(self):
        f, zeta = random_system_with_zero(1, 3, np.random.default_rng(20))
        g = multiple_zero_witness(f, zeta)
        assert abs(weyl_norm(g) - 1.0) <= 1e-10
        assert np.linalg.norm(g(zeta.coords)) <= 1e-10
        _, _, sg, _ = _projected_svd(g, zeta)
        assert sg[-1] <= 1e-10 * max(sg[0], 1.0)

    @pytest.mark.parametrize("n,d", SYSTEM_SHAPES)
    def test_tangent_direction_is_orthogonal_to_zeta(self, n, d):
        # the witness bends f along w = vt[-1]; w must be a tangent vector at zeta
        gen = np.random.default_rng(400 + 10 * n + d)
        for _ in range(50):
            f, zeta = random_system_with_zero(n, d, gen)
            _, _, s, vt = _projected_svd(f, zeta)
            assert np.max(np.abs(vt @ zeta.coords)) <= 1e-12
            restricted = f.jacobian(zeta.coords) @ tangent_basis(zeta.coords)
            assert s == pytest.approx(np.linalg.svd(restricted, compute_uv=False), rel=1e-10)


def stack_systems(systems):
    """One batch from single systems of one layout, in order."""
    return PolySystem(degrees=systems[0].degrees,
                      coefficients=[np.stack(c) for c in zip(*(f.coefficients for f in systems))])


def planted_batch(degrees, count, seed):
    """`count` unit-norm systems with a planted zero and the given degrees, singly and as
    a batch."""
    gen = np.random.default_rng(seed)
    singles = []
    for _ in range(count):
        f, zeta = mixed_system_with_zero(degrees, gen)
        unit = [c / weyl_norm(f) for c in f.coefficients]
        singles.append((PolySystem(degrees=degrees, coefficients=unit), zeta))
    return singles, stack_systems([f for f, _ in singles]), np.stack([z.coords for _, z in singles])


BATCH_DEGREES = [(2,), (3,), (4,), (2, 2), (3, 1), (1, 2, 4), (3, 3, 3)]


class TestDenseSystems:
    @pytest.mark.parametrize("degrees", BATCH_DEGREES)
    def test_batch_equals_one_system_at_a_time(self, degrees):
        singles, f, zeta = planted_batch(degrees, 30, 500 + sum(degrees) * len(degrees))
        mu, g = mu_norm(f, zeta), multiple_zero_witness(f, zeta)
        check, dist = cntr_witness_check(f, zeta, g), system_projective_distance(f, g)
        assert mu.shape == check.shape == dist.shape == (30,)
        for k, (fk, zk) in enumerate(singles):
            gk = multiple_zero_witness(fk, zk)
            assert type(mu_norm(fk, zk)) is float and type(cntr_witness_check(fk, zk, gk)) is bool
            assert mu[k] == mu_norm(fk, zk)
            assert all(np.array_equal(a[k], b) for a, b in zip(g.coefficients, gk.coefficients))
            assert check[k] == cntr_witness_check(fk, zk, gk)
            assert dist[k] == system_projective_distance(fk, gk)

    @pytest.mark.parametrize("degrees", BATCH_DEGREES)
    def test_batched_mu_matches_tangent_basis_reference(self, degrees):
        singles, f, zeta = planted_batch(degrees, 30, 600 + sum(degrees) * len(degrees))
        expected = [mu_norm_by_basis(fk, zk) for fk, zk in singles]
        assert mu_norm(f, zeta) == pytest.approx(expected, rel=1e-10)

    @pytest.mark.parametrize("n,d", SYSTEM_SHAPES)
    def test_planted_batch_equals_one_system_at_a_time(self, n, d):
        m = math.comb(n + d, d)
        normals = np.random.default_rng(700 + 10 * n + d).standard_normal((3, 4, n + 1 + n * m))
        f, zeta = planted_systems(n, d, normals)
        assert f.shape == (3, 4) and zeta.shape == (3, 4, n + 1)
        for idx in np.ndindex(3, 4):
            fk, zk = planted_systems(n, d, normals[idx])
            assert fk.shape == () and np.array_equal(zeta[idx], zk)
            assert np.array_equal(zk, SpherePoint.from_vector(normals[idx][:n + 1]).coords)
            assert all(np.array_equal(a[idx], b) for a, b in zip(f.coefficients, fk.coefficients))
        assert np.all(np.abs(weyl_norm(f) - 1.0) <= 1e-14)
        assert np.max(np.abs(f(zeta))) <= 1e-14

    @pytest.mark.parametrize("n,d", SYSTEM_SHAPES)
    def test_power_and_correction_closed_forms(self, n, d):
        # <zeta, X>^d and <w, X> <zeta, X>^(d-1) against the expanded products of forms
        gen = np.random.default_rng(800 + 10 * n + d)
        zeta, w = gen.standard_normal((2, n + 1))
        exps, _, multi, _, lowered = _monomials(n, d)
        mono, down = _monomial_values(zeta, d)
        rows = [tuple(a) for a in exps.tolist()]
        power = expand([zeta] * d, n)
        correction = expand([w] + [zeta] * (d - 1), n)
        assert multi * mono == pytest.approx([power.get(a, 0.0) for a in rows], rel=1e-13)
        assert _sum(w[:, None] * lowered * down, 0) == pytest.approx(
            [correction.get(a, 0.0) for a in rows], rel=1e-12, abs=1e-14)

    def test_conversion_from_weyl_polynomials(self):
        gen = np.random.default_rng(901)
        polys = (random_poly(2, 3, gen), random_poly(2, 1, gen))
        f = PolySystem(polys)
        assert f.shape == () and f.degrees == (3, 1) and f.n == 2
        x = gen.standard_normal((25, 3))
        assert f(x) == pytest.approx(np.stack([p(x) for p in polys], axis=1), rel=1e-12)
        assert f.jacobian(x) == pytest.approx(
            np.stack([p.gradient(x) for p in polys], axis=1), rel=1e-12)
        assert weyl_norm(f) == pytest.approx(math.sqrt(cntr_reference.inner(polys, polys)),
                                             rel=1e-14)

    def test_nested_batch_equals_flat(self):
        _, f, zeta = planted_batch((2, 3), 12, 903)
        nested = PolySystem(degrees=f.degrees,
                            coefficients=[c.reshape(3, 4, -1) for c in f.coefficients])
        assert np.array_equal(mu_norm(nested, zeta.reshape(3, 4, 3)).ravel(), mu_norm(f, zeta))

    def test_one_bad_zero_in_a_batch_raises(self):
        _, f, zeta = planted_batch((2, 2), 10, 905)
        zeta[7] = np.roll(zeta[7], 1)
        with pytest.raises(ValueError, match="not a zero"):
            mu_norm(f, zeta)

    def test_batch_of_linear_forms_has_no_witness(self):
        normals = np.random.default_rng(907).standard_normal((20, 4))
        f, zeta = planted_systems(1, 1, normals)
        with pytest.raises(ValueError, match="leaves the zero system"):
            multiple_zero_witness(f, zeta)

    def test_rejects_bad_layouts(self):
        with pytest.raises(ValueError):
            PolySystem(degrees=(2,), coefficients=[np.ones(4)])  # 3 monomials, not 4
        with pytest.raises(ValueError):
            PolySystem(degrees=(2, 2), coefficients=[np.ones((5, 6)), np.ones((4, 6))])
        with pytest.raises(ValueError):
            PolySystem(degrees=(0,), coefficients=[np.ones(1)])
        with pytest.raises(ValueError):
            PolySystem(())
        f, zeta = random_system_with_zero(2, 2, np.random.default_rng(909))
        with pytest.raises(ValueError, match="one point per system"):
            mu_norm(f, np.stack([zeta.coords] * 2))
