import math
import random
from fractions import Fraction

import pytest

from kommute import formulas, series
from kommute.series import BivariateSeries, monomial, one


def random_coeffs(rng, nz=4, nu=3, with_constant=False):
    coeffs = {}
    for i in range(nz + 1):
        for j in range(nu + 1):
            if not with_constant and i == j == 0:
                continue
            if rng.random() < 0.5:
                coeffs[(i, j)] = Fraction(rng.randint(-4, 4), rng.randint(1, 5))
    return coeffs


def random_series(rng, nz=4, nu=3, with_constant=False):
    return BivariateSeries(nz, nu, random_coeffs(rng, nz, nu, with_constant))


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


class FractionSeries:
    # the slow path the integer form is held to: a dict of Fractions,
    # truncated at (nz, nu), zeros included

    def __init__(self, nz, nu, coeffs=None):
        self.nz, self.nu = nz, nu
        self.c = {(i, j): Fraction(0) for i in range(nz + 1) for j in range(nu + 1)}
        self.c.update(coeffs or {})

    def __add__(self, other):
        return FractionSeries(self.nz, self.nu, {k: v + other.c[k] for k, v in self.c.items()})

    def scale(self, q):
        return FractionSeries(self.nz, self.nu, {k: v * q for k, v in self.c.items()})

    def __sub__(self, other):
        return self + other.scale(-1)

    def __mul__(self, other):
        out = FractionSeries(self.nz, self.nu)
        for (i1, j1), v1 in self.c.items():
            for (i2, j2), v2 in other.c.items():
                if (i1 + i2, j1 + j2) in out.c:
                    out.c[(i1 + i2, j1 + j2)] += v1 * v2
        return out

    def power_sum(self, first, coeff):
        # first + sum coeff(r) * self**r over r = 1 .. nz + nu, past which
        # a series with no constant term truncates to zero
        out = FractionSeries(self.nz, self.nu, {(0, 0): Fraction(first)})
        power = self
        for r in range(1, self.nz + self.nu + 1):
            out, power = out + power.scale(coeff(r)), power * self
        return out


def half_choose(r):
    # C(1/2, r) as the falling product (1/2)(1/2 - 1)...(1/2 - r + 1) / r!
    return math.prod((Fraction(1, 2) - i for i in range(r)), start=Fraction(1)) / math.factorial(r)


REFERENCE_KERNELS = [
    (series.exp, 1, lambda r: Fraction(1, math.factorial(r))),
    (series.log_one_plus, 0, lambda r: Fraction((-1) ** (r + 1), r)),
    (series.inv_one_minus, 1, lambda r: Fraction(1)),
    (series.sqrt_one_plus, 1, half_choose),
]


class TestFractionReference:
    # each operation equals the Fraction dicts' result coefficient by
    # coefficient, and equal values are equal, with one hash

    @staticmethod
    def assert_matches(got, want):
        assert [got.coeff(*k) for k in want.c] == list(want.c.values())
        rebuilt = BivariateSeries(want.nz, want.nu, want.c)
        assert got == rebuilt
        assert hash(got) == hash(rebuilt)

    def test_ring_operations(self):
        rng = random.Random(17)
        for _ in range(10):
            a, b = (random_coeffs(rng, with_constant=True) for _ in range(2))
            s, t = BivariateSeries(4, 3, a), BivariateSeries(4, 3, b)
            f, g = FractionSeries(4, 3, a), FractionSeries(4, 3, b)
            self.assert_matches(s + t, f + g)
            self.assert_matches(s - t, f - g)
            self.assert_matches(s * t, f * g)
            for q in (3, -2, 0, Fraction(-1, 2), Fraction(7, 3)):
                self.assert_matches(s.scale(q), f.scale(q))
                self.assert_matches(s * q, f.scale(q))

    def test_kernels(self):
        rng = random.Random(19)
        for _ in range(6):
            coeffs = random_coeffs(rng, nz=3, nu=2)
            s, f = BivariateSeries(3, 2, coeffs), FractionSeries(3, 2, coeffs)
            for op, first, coeff in REFERENCE_KERNELS:
                self.assert_matches(op(s), f.power_sum(first, coeff))

    def test_negative_power_sum_denominators(self):
        # sqrt_one_plus's coefficients C(2r, r) / ((-4)**r (1 - 2r)) have
        # denominators of either sign; the series stores a positive one
        z = monomial(1, 0, 3, 0)
        assert z._scale(1, -2) == z.scale(Fraction(-1, 2))
        assert hash(z._scale(1, -2)) == hash(z.scale(Fraction(-1, 2)))
        root = series.sqrt_one_plus(z)
        want = BivariateSeries(3, 0, {(r, 0): half_choose(r) for r in range(4)})
        assert root == want and hash(root) == hash(want)
        assert root.coeff(1, 0) == Fraction(1, 2) and root.coeff(2, 0) == Fraction(-1, 8)
        assert series.sqrt_one_plus(z.scale(-4)) - one(3, 0) + z.scale(2) == (
            z * z).scale(-2) + (z * z * z).scale(-4)


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
        for order in (8, 12):
            s = series.fpf_involution_egf(order)
            for m in range(2, order + 1):
                for j in range(m + 1):
                    want = formulas.fpf_involution_count(2 * j, m)
                    assert series.fpf_involution_egf_coeff(s, m, j) == want

    def test_inverts_the_paper_denominator(self):
        # the series times (1 - 2z) sqrt(1 - 4w) e^(2w), w = zu / (1 - 2z),
        # is one: the docstring's form, built without the exp-log rewrite
        for o in (8, 12):
            z, zu = monomial(1, 0, o, o), monomial(1, 1, o, o)
            w = zu * series.inv_one_minus(z.scale(2))
            denom = (one(o, o) - z.scale(2)) * series.sqrt_one_plus(w.scale(-4))
            assert series.fpf_involution_egf(o) * denom * series.exp(w.scale(2)) == one(o, o)


class TestIntegralityGuard:
    # a coefficient whose scaled value is not an integer is refused, not
    # truncated
    def test_ncycle_coefficient(self):
        s = BivariateSeries(3, 3, {(2, 1): Fraction(1, 3), (2, 2): Fraction(1, 2)})
        assert series.ncycle_egf_coeff(s, 2, 2) == 1
        with pytest.raises(ArithmeticError, match=r"^coefficient \(2, 1\) is not integral: 2/3$"):
            series.ncycle_egf_coeff(s, 2, 1)

    def test_fpf_coefficient(self):
        s = BivariateSeries(3, 3, {(2, 1): Fraction(1, 3), (3, 2): Fraction(-5, 6)})
        assert series.fpf_involution_egf_coeff(s, 3, 2) == -10
        with pytest.raises(ArithmeticError, match=r"^coefficient \(2, 1\) is not integral: 2/3$"):
            series.fpf_involution_egf_coeff(s, 2, 1)
        with pytest.raises(ValueError, match="beyond truncation"):
            series.fpf_involution_egf_coeff(s, 4, 1)


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
