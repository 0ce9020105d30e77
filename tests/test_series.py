import math
import random
from fractions import Fraction

import pytest

from kommute import formulas, series
from kommute.series import BivariateSeries, monomial, one


def random_series(rng, nz=4, nu=3, with_constant=False):
    coeffs = {}
    for i in range(nz + 1):
        for j in range(nu + 1):
            if not with_constant and i == j == 0:
                continue
            if rng.random() < 0.5:
                coeffs[(i, j)] = Fraction(rng.randint(-4, 4), rng.randint(1, 5))
    return BivariateSeries(nz, nu, coeffs)


class TestRingOperations:
    def test_mul_by_one(self):
        rng = random.Random(3)
        s = random_series(rng, with_constant=True)
        assert s * one(4, 3) == s

    def test_z_squared(self):
        z = monomial(1, 0, 4, 3)
        assert (z * z).coeff(2, 0) == 1
        assert (z * z).coeff(1, 0) == 0

    def test_distributive(self):
        rng = random.Random(5)
        for _ in range(10):
            a, b, c = (random_series(rng, with_constant=True) for _ in range(3))
            assert a * (b + c) == a * b + a * c

    def test_associative(self):
        rng = random.Random(7)
        for _ in range(5):
            a, b, c = (random_series(rng, with_constant=True) for _ in range(3))
            assert (a * b) * c == a * (b * c)

    def test_scale(self):
        z = monomial(1, 1, 2, 2)
        assert z.scale(Fraction(3, 2)).coeff(1, 1) == Fraction(3, 2)
        assert (2 * z).coeff(1, 1) == 2

    def test_order_mismatch(self):
        with pytest.raises(ValueError, match="orders differ"):
            one(2, 2) + one(3, 2)
        with pytest.raises(ValueError, match="orders differ"):
            one(2, 2) * one(2, 3)

    def test_coeff_outside_truncation(self):
        with pytest.raises(ValueError, match="beyond truncation"):
            one(2, 2).coeff(3, 0)

    def test_truncation_is_silent_in_arithmetic(self):
        z = monomial(1, 0, 2, 0)
        cube = z * z * z  # degree 3 falls off the order-2 box
        assert cube.is_zero()


class TestTranscendentalKernels:
    def test_exp_zero(self):
        assert series.exp(BivariateSeries(3, 3)) == one(3, 3)

    def test_exp_matches_taylor(self):
        z = monomial(1, 0, 5, 0)
        e = series.exp(z)
        for i in range(6):
            assert e.coeff(i, 0) == Fraction(1, math.factorial(i))

    def test_log_inverts_expm1(self):
        rng = random.Random(11)
        for _ in range(8):
            s = random_series(rng, nz=3, nu=2)
            expm1 = series.exp(s) - one(3, 2)
            assert series.log_one_plus(expm1) == s

    def test_sqrt_squares_back(self):
        rng = random.Random(13)
        for _ in range(8):
            s = random_series(rng, nz=3, nu=2)
            r = series.sqrt_one_plus(s)
            assert r * r == one(3, 2) + s

    def test_inv_one_minus(self):
        z = monomial(1, 0, 6, 0)
        g = series.inv_one_minus(z)
        assert all(g.coeff(i, 0) == 1 for i in range(7))

    def test_constant_term_required_zero(self):
        for op in (series.exp, series.log_one_plus, series.inv_one_minus, series.sqrt_one_plus):
            with pytest.raises(ValueError, match="zero constant term"):
                op(one(2, 2))


class TestNCycleEgf:
    def test_diagonal_matches_counts(self):
        s = series.ncycle_egf(8)
        for n in range(1, 9):
            assert series.ncycle_egf_coeff(s, n, n) == formulas.count_for_ncycle(n, n)
            assert series.ncycle_egf_coeff(s, n, n) == n * formulas.successor_free_cycles(n)

    def test_distance_one_column_vanishes(self):
        s = series.ncycle_egf(8)
        for n in range(1, 9):
            assert series.ncycle_egf_coeff(s, n, 1) == 0

    def test_specific_coefficient(self):
        s = series.ncycle_egf(6)
        assert series.ncycle_egf_coeff(s, 5, 3) == 50

    def test_full_box_matches_formula(self):
        s = series.ncycle_egf(10)
        for n in range(1, 11):
            for k in range(n + 1):
                assert series.ncycle_egf_coeff(s, n, k) == formulas.count_for_ncycle(k, n)


class TestFpfInvolutionEgf:
    def test_specific_coefficients(self):
        s = series.fpf_involution_egf(4)
        assert series.fpf_involution_egf_coeff(s, 2, 2) == 16
        assert series.fpf_involution_egf_coeff(s, 3, 0) == 48

    def test_single_bad_couple_column_vanishes(self):
        s = series.fpf_involution_egf(8)
        for m in range(1, 9):
            assert series.fpf_involution_egf_coeff(s, m, 1) == 0

    def test_full_box_matches_formula(self):
        s = series.fpf_involution_egf(8)
        for m in range(2, 9):
            for j in range(m + 1):
                want = formulas.fpf_involution_count(2 * j, m)
                assert series.fpf_involution_egf_coeff(s, m, j) == want


class TestMatchingEgfIdentity:
    def test_holds_to_order_seven(self):
        assert series.deranged_matching_egf_ok(7)

    def test_order_zero(self):
        assert series.deranged_matching_egf_ok(0)

    def test_perturbation_detected(self, monkeypatch):
        exact = formulas.deranged_matchings
        monkeypatch.setattr(formulas, "deranged_matchings", lambda j: exact(j) + (j == 3))
        assert not series.deranged_matching_egf_ok(7)


class TestSuccessorFreeEgfIdentity:
    def test_holds_to_order_nine(self):
        # sum f(k) x^k / k! == exp(-x) * (1 - log(1-x)), checked exactly;
        # in particular this pins f(0)=1, f(1)=0, f(2)=0
        order = 9
        x = monomial(1, 0, order, 0)
        lhs = BivariateSeries(
            order,
            0,
            {
                (k, 0): Fraction(formulas.successor_free_cycles(k), math.factorial(k))
                for k in range(order + 1)
            },
        )
        rhs = series.exp(-x) * (one(order, 0) - series.log_one_plus(-x))
        assert lhs == rhs

    def test_library_check_holds_to_order_nine(self):
        assert series.successor_free_egf_ok(9)

    def test_order_zero(self):
        # at order 0 the variable truncates to the zero series, as in the
        # deranged-matching check
        assert series.successor_free_egf_ok(0)

    def test_negative_order_rejected(self):
        for check in (series.successor_free_egf_ok, series.deranged_matching_egf_ok):
            with pytest.raises(ValueError, match="order must be nonnegative"):
                check(-1)

    def test_perturbation_detected(self, monkeypatch):
        exact = formulas.successor_free_cycles
        monkeypatch.setattr(
            formulas, "successor_free_cycles", lambda k: exact(k) + (k == 5)
        )
        assert not series.successor_free_egf_ok(9)
