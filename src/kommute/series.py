"""
Truncated bivariate power series over exact rationals, held as integers.

Just enough formal-series arithmetic to expand the two generating
functions of the package and read off their coefficients exactly: ring
operations plus exp, log(1+s), 1/(1-s) and sqrt(1+s) for series s with no
constant term.  A series holds integer numerators over one positive common
denominator, reduced so that no integer above 1 divides them all; nothing
is ever rounded, and ``fractions`` loads only when ``coeff`` is read.

A series is truncated independently in its two variables z and u; all
operations stay inside the truncation box and never fabricate
coefficients beyond it.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Mapping

from . import formulas

if TYPE_CHECKING:
    from fractions import Fraction


def _ratio(value: Fraction | int) -> tuple[int, int]:
    # an int or a Fraction as (numerator, denominator), read through its
    # attributes so that fractions is not imported
    try:
        return value.numerator, value.denominator
    except AttributeError:
        raise TypeError(f"{value!r} is not an int or a Fraction") from None


class BivariateSeries:
    """
    sum of coeffs[(i, j)] * z**i * u**j, truncated at z**order_z and
    u**order_u; immutable.
    """

    # _c maps (i, j) to the nonzero numerators over the common denominator
    # _den > 0, whose gcd with them all is 1: equal values, equal fields
    __slots__ = ("order_z", "order_u", "_c", "_den")

    def __init__(
        self,
        order_z: int,
        order_u: int,
        coeffs: Mapping[tuple[int, int], Fraction | int] | None = None,
    ):
        if order_z < 0 or order_u < 0:
            raise ValueError("truncation orders must be nonnegative")
        ratios = {}
        for (i, j), value in (coeffs or {}).items():
            if not 0 <= i <= order_z or not 0 <= j <= order_u:
                raise ValueError(f"coefficient ({i}, {j}) outside truncation")
            ratios[(i, j)] = _ratio(value)
        den = math.lcm(*(q for _, q in ratios.values()))
        self._set(order_z, order_u, {k: p * (den // q) for k, (p, q) in ratios.items()}, den)

    def _set(self, order_z: int, order_u: int, nums: dict, den: int) -> None:
        # store nums / den (den nonzero, of either sign) in reduced form
        nums = {k: v for k, v in nums.items() if v}
        g = math.gcd(den, *nums.values())
        if den < 0:
            g = -g
        self.order_z, self.order_u = order_z, order_u
        self._c = {k: v // g for k, v in nums.items()} if g != 1 else nums
        self._den = den // g

    def _numerator(self, i: int, j: int) -> int:
        if not 0 <= i <= self.order_z or not 0 <= j <= self.order_u:
            raise ValueError(
                f"({i}, {j}) beyond truncation ({self.order_z}, {self.order_u})"
            )
        return self._c.get((i, j), 0)

    def coeff(self, i: int, j: int) -> Fraction:
        """The coefficient of z**i u**j; (i, j) must be inside truncation."""
        from fractions import Fraction

        return Fraction(self._numerator(i, j), self._den)

    def _check_orders(self, other: "BivariateSeries") -> None:
        if (self.order_z, self.order_u) != (other.order_z, other.order_u):
            raise ValueError("truncation orders differ")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BivariateSeries):
            return NotImplemented
        return (
            (self.order_z, self.order_u, self._den) == (other.order_z, other.order_u, other._den)
            and self._c == other._c
        )

    def __hash__(self) -> int:
        return hash((self.order_z, self.order_u, self._den, frozenset(self._c.items())))

    def __repr__(self) -> str:
        terms = [f"{self.coeff(i, j)}*z^{i}*u^{j}" for i, j in sorted(self._c)]
        body = " + ".join(terms[:6]) + (" + ..." if len(terms) > 6 else "")
        return f"BivariateSeries[{self.order_z},{self.order_u}]({body or '0'})"

    def __add__(self, other: "BivariateSeries") -> "BivariateSeries":
        if not isinstance(other, BivariateSeries):
            return NotImplemented
        self._check_orders(other)
        den = math.lcm(self._den, other._den)
        a, b = den // self._den, den // other._den
        out = {k: v * a for k, v in self._c.items()}
        for key, value in other._c.items():
            out[key] = out.get(key, 0) + value * b
        return _series(self.order_z, self.order_u, out, den)

    def __neg__(self) -> "BivariateSeries":
        return self._scale(-1, 1)

    def __sub__(self, other: "BivariateSeries") -> "BivariateSeries":
        if not isinstance(other, BivariateSeries):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, BivariateSeries):
            return self.scale(other) if hasattr(other, "denominator") else NotImplemented
        self._check_orders(other)
        out: dict[tuple[int, int], int] = {}
        nz, nu = self.order_z, self.order_u
        for (i1, j1), v1 in self._c.items():
            for (i2, j2), v2 in other._c.items():
                i, j = i1 + i2, j1 + j2
                if i <= nz and j <= nu:
                    key = (i, j)
                    out[key] = out.get(key, 0) + v1 * v2
        return _series(nz, nu, out, self._den * other._den)

    __rmul__ = __mul__

    def scale(self, factor: Fraction | int) -> "BivariateSeries":
        return self._scale(*_ratio(factor))

    def _scale(self, p: int, q: int) -> "BivariateSeries":
        # the series times p / q, q nonzero of either sign
        nums = {k: v * p for k, v in self._c.items()}
        return _series(self.order_z, self.order_u, nums, self._den * q)

    def is_zero(self) -> bool:
        return not self._c


def _series(order_z: int, order_u: int, nums: dict, den: int) -> BivariateSeries:
    # nums / den as a series, unchecked: the operations' constructor
    s = object.__new__(BivariateSeries)
    s._set(order_z, order_u, nums, den)
    return s


def monomial(
    i: int, j: int, order_z: int, order_u: int, value: Fraction | int = 1
) -> BivariateSeries:
    """The series value * z**i * u**j at the given truncation."""
    return BivariateSeries(order_z, order_u, {(i, j): value})


def one(order_z: int, order_u: int) -> BivariateSeries:
    return monomial(0, 0, order_z, order_u)


def _power_sum(s: BivariateSeries, op: str, start, coeff) -> BivariateSeries:
    # start + sum coeff(r) * s**r over r >= 1, until the power truncates to
    # zero; coeff(r) is a pair of ints (p, q) for p / q, q of either sign
    if (0, 0) in s._c:
        raise ValueError(f"{op} needs a series with zero constant term")
    out = monomial(0, 0, s.order_z, s.order_u, start)
    power, r = s, 1
    while not power.is_zero():
        out = out + power._scale(*coeff(r))
        power, r = power * s, r + 1
    return out


def exp(s: BivariateSeries) -> BivariateSeries:
    """exp(s) = sum s**r / r! for s with zero constant term."""
    return _power_sum(s, "exp", 1, lambda r: (1, math.factorial(r)))


def log_one_plus(s: BivariateSeries) -> BivariateSeries:
    """log(1 + s) = sum (-1)**(r+1) s**r / r for s with zero constant term."""
    return _power_sum(s, "log_one_plus", 0, lambda r: ((-1) ** (r + 1), r))


def inv_one_minus(s: BivariateSeries) -> BivariateSeries:
    """1 / (1 - s) = sum s**r for s with zero constant term."""
    return _power_sum(s, "inv_one_minus", 1, lambda r: (1, 1))


def sqrt_one_plus(s: BivariateSeries) -> BivariateSeries:
    """sqrt(1 + s) = sum C(1/2, r) s**r for s with zero constant term."""
    # C(1/2, r) = C(2r, r) / ((-4)**r (1 - 2r))
    return _power_sum(
        s, "sqrt_one_plus", 1, lambda r: (math.comb(2 * r, r), (-4) ** r * (1 - 2 * r))
    )


# -- the two generating functions --------------------------------------------


def ncycle_egf(order: int) -> BivariateSeries:
    """
    Bivariate generating function whose coefficient of z**n u**k, scaled
    by n!, counts the permutations at commutation distance k from an
    n-cycle:

        z * e**(z(1-u)) * ( (1 - log(1 - z u)) (1 - u) + u / (1 - z u) )

    so n! * coeff(n, k) == count_for_ncycle(k, n) for 1 <= n <= order.
    """
    if order < 1:
        raise ValueError("order must be at least 1")
    nz = nu = order
    z = monomial(1, 0, nz, nu)
    u = monomial(0, 1, nz, nu)
    zu = monomial(1, 1, nz, nu)
    unit = one(nz, nu)
    growth = exp(z - zu)  # e^(z(1-u))
    no_log = unit - log_one_plus(-zu)  # 1 - log(1 - zu)
    tail = u * inv_one_minus(zu)  # u / (1 - zu)
    return z * growth * (no_log * (unit - u) + tail)


def _integral(s: BivariateSeries, i: int, j: int, factor: int) -> int:
    # factor * [z^i u^j], which must be an integer
    value, rest = divmod(s._numerator(i, j) * factor, s._den)
    if rest:
        raise ArithmeticError(
            f"coefficient ({i}, {j}) is not integral: {s.coeff(i, j) * factor}"
        )
    return value


def ncycle_egf_coeff(s: BivariateSeries, n: int, k: int) -> int:
    """Extract n! * [z^n u^k] as an exact integer."""
    return _integral(s, n, k, math.factorial(n))


def fpf_involution_egf(order: int) -> BivariateSeries:
    """
    Bivariate generating function for fixed-point-free involutions of
    S_2m: the coefficient of z**m u**j, scaled by m! j!, counts the
    permutations at distance 2j:

        1 / ( (1 - 2z) * sqrt(1 - 4zu/(1-2z)) * e**(2zu/(1-2z)) )

    so m! * j! * coeff(m, j) == 2**m m! C(m, j) a(j) for m <= order.
    """
    if order < 2:
        raise ValueError("order must be at least 2")
    nz = nu = order
    g = inv_one_minus(monomial(1, 0, nz, nu, 2))  # 1 / (1 - 2z)
    w = monomial(1, 1, nz, nu) * g  # zu / (1 - 2z)
    # g / (sqrt(1 - 4w) e**(2w)) = g * exp(-log(1 - 4w) / 2 - 2w)
    return g * exp(log_one_plus(w.scale(-4))._scale(-1, 2) - w.scale(2))


def fpf_involution_egf_coeff(s: BivariateSeries, m: int, j: int) -> int:
    """Extract m! * j! * [z^m u^j] as an exact integer."""
    return _integral(s, m, j, math.factorial(m) * math.factorial(j))


def _variable(order: int) -> BivariateSeries:
    # the series x truncated at x**order: the zero series at order 0
    if order < 0:
        raise ValueError("order must be nonnegative")
    return BivariateSeries(order, 0, {(1, 0): 1} if order else None)


def _egf(order: int, f) -> BivariateSeries:
    # sum f(k) x**k / k! over k <= order, over the denominator order!
    top = math.factorial(order)
    nums = {(k, 0): f(k) * (top // math.factorial(k)) for k in range(order + 1)}
    return _series(order, 0, nums, top)


def deranged_matching_egf_ok(order: int) -> bool:
    """
    Check the deranged-matching generating function to the given order:

        ( sum_j a(j) x**j / j! ) * e**x * sqrt(1 - 2x)  ==  1

    with a(j) the closed-form values.
    """
    x = _variable(order)
    product = _egf(order, formulas.deranged_matchings) * exp(x) * sqrt_one_plus(x.scale(-2))
    return product == one(order, 0)


def successor_free_egf_ok(order: int) -> bool:
    """Check sum_k f(k) x**k / k! == e**(-x) * (1 - log(1 - x)) to the given order."""
    x = _variable(order)
    lhs = _egf(order, formulas.successor_free_cycles)
    return lhs == exp(-x) * (one(order, 0) - log_one_plus(-x))
