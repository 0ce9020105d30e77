"""
Truncated bivariate power series over exact rationals.

Just enough formal-series arithmetic to expand the two generating
functions of the package and read off their coefficients exactly: ring
operations plus exp, log(1+s), 1/(1-s) and sqrt(1+s) for series s with no
constant term.  Coefficients are ``Fraction``s; nothing is ever rounded.

A series is truncated independently in its two variables z and u; all
operations stay inside the truncation box and never fabricate
coefficients beyond it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Mapping

from . import formulas


class BivariateSeries:
    """
    sum of coeffs[(i, j)] * z**i * u**j, truncated at z**order_z and
    u**order_u; immutable.
    """

    __slots__ = ("order_z", "order_u", "_c")

    def __init__(
        self,
        order_z: int,
        order_u: int,
        coeffs: Mapping[tuple[int, int], Fraction | int] | None = None,
    ):
        if order_z < 0 or order_u < 0:
            raise ValueError("truncation orders must be nonnegative")
        self.order_z = order_z
        self.order_u = order_u
        clean: dict[tuple[int, int], Fraction] = {}
        for (i, j), value in (coeffs or {}).items():
            if not 0 <= i <= order_z or not 0 <= j <= order_u:
                raise ValueError(f"coefficient ({i}, {j}) outside truncation")
            q = Fraction(value)
            if q:
                clean[(i, j)] = q
        self._c = clean

    def coeff(self, i: int, j: int) -> Fraction:
        """The coefficient of z**i u**j; (i, j) must be inside truncation."""
        if not 0 <= i <= self.order_z or not 0 <= j <= self.order_u:
            raise ValueError(
                f"({i}, {j}) beyond truncation ({self.order_z}, {self.order_u})"
            )
        return self._c.get((i, j), Fraction(0))

    def _check_orders(self, other: "BivariateSeries") -> None:
        if (self.order_z, self.order_u) != (other.order_z, other.order_u):
            raise ValueError("truncation orders differ")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BivariateSeries):
            return NotImplemented
        return (
            (self.order_z, self.order_u) == (other.order_z, other.order_u)
            and self._c == other._c
        )

    def __hash__(self) -> int:
        return hash((self.order_z, self.order_u, frozenset(self._c.items())))

    def __repr__(self) -> str:
        terms = [f"{v}*z^{i}*u^{j}" for (i, j), v in sorted(self._c.items())]
        body = " + ".join(terms[:6]) + (" + ..." if len(terms) > 6 else "")
        return f"BivariateSeries[{self.order_z},{self.order_u}]({body or '0'})"

    def __add__(self, other: "BivariateSeries") -> "BivariateSeries":
        if not isinstance(other, BivariateSeries):
            return NotImplemented
        self._check_orders(other)
        out = dict(self._c)
        for key, value in other._c.items():
            out[key] = out.get(key, Fraction(0)) + value
        return BivariateSeries(self.order_z, self.order_u, out)

    def __neg__(self) -> "BivariateSeries":
        return BivariateSeries(
            self.order_z, self.order_u, {k: -v for k, v in self._c.items()}
        )

    def __sub__(self, other: "BivariateSeries") -> "BivariateSeries":
        if not isinstance(other, BivariateSeries):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, BivariateSeries):
            return NotImplemented
        self._check_orders(other)
        out: dict[tuple[int, int], Fraction] = {}
        nz, nu = self.order_z, self.order_u
        for (i1, j1), v1 in self._c.items():
            for (i2, j2), v2 in other._c.items():
                i, j = i1 + i2, j1 + j2
                if i <= nz and j <= nu:
                    key = (i, j)
                    out[key] = out.get(key, Fraction(0)) + v1 * v2
        return BivariateSeries(nz, nu, out)

    __rmul__ = __mul__

    def scale(self, factor: Fraction | int) -> "BivariateSeries":
        q = Fraction(factor)
        return BivariateSeries(
            self.order_z, self.order_u, {k: v * q for k, v in self._c.items()}
        )

    def is_zero(self) -> bool:
        return not self._c

    def constant_term(self) -> Fraction:
        return self._c.get((0, 0), Fraction(0))


def monomial(
    i: int, j: int, order_z: int, order_u: int, value: Fraction | int = 1
) -> BivariateSeries:
    """The series value * z**i * u**j at the given truncation."""
    return BivariateSeries(order_z, order_u, {(i, j): value})


def one(order_z: int, order_u: int) -> BivariateSeries:
    return monomial(0, 0, order_z, order_u)


def _power_sum(s: BivariateSeries, op: str, start, coeff) -> BivariateSeries:
    # start + sum coeff(r) * s**r over r >= 1, until the power truncates to zero
    if s.constant_term():
        raise ValueError(f"{op} needs a series with zero constant term")
    out = monomial(0, 0, s.order_z, s.order_u, start)
    power, r = s, 1
    while not power.is_zero():
        out = out + power.scale(coeff(r))
        power, r = power * s, r + 1
    return out


def exp(s: BivariateSeries) -> BivariateSeries:
    """exp(s) = sum s**r / r! for s with zero constant term."""
    return _power_sum(s, "exp", 1, lambda r: Fraction(1, math.factorial(r)))


def log_one_plus(s: BivariateSeries) -> BivariateSeries:
    """log(1 + s) = sum (-1)**(r+1) s**r / r for s with zero constant term."""
    return _power_sum(s, "log_one_plus", 0, lambda r: Fraction((-1) ** (r + 1), r))


def inv_one_minus(s: BivariateSeries) -> BivariateSeries:
    """1 / (1 - s) = sum s**r for s with zero constant term."""
    return _power_sum(s, "inv_one_minus", 1, lambda r: 1)


def sqrt_one_plus(s: BivariateSeries) -> BivariateSeries:
    """sqrt(1 + s) = sum C(1/2, r) s**r for s with zero constant term."""
    # C(1/2, r) = C(2r, r) / ((-4)**r (1 - 2r))
    return _power_sum(
        s, "sqrt_one_plus", 1, lambda r: Fraction(math.comb(2 * r, r), (-4) ** r * (1 - 2 * r))
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


def ncycle_egf_coeff(s: BivariateSeries, n: int, k: int) -> int:
    """Extract n! * [z^n u^k] as an exact integer."""
    value = s.coeff(n, k) * math.factorial(n)
    if value.denominator != 1:
        raise ArithmeticError(f"coefficient ({n}, {k}) is not integral: {value}")
    return value.numerator


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
    return g * exp(log_one_plus(w.scale(-4)).scale(Fraction(-1, 2)) - w.scale(2))


def fpf_involution_egf_coeff(s: BivariateSeries, m: int, j: int) -> int:
    """Extract m! * j! * [z^m u^j] as an exact integer."""
    value = s.coeff(m, j) * math.factorial(m) * math.factorial(j)
    if value.denominator != 1:
        raise ArithmeticError(f"coefficient ({m}, {j}) is not integral: {value}")
    return value.numerator


def _variable(order: int) -> BivariateSeries:
    # the series x truncated at x**order: the zero series at order 0
    if order < 0:
        raise ValueError("order must be nonnegative")
    return BivariateSeries(order, 0, {(1, 0): 1} if order else None)


def deranged_matching_egf_ok(order: int) -> bool:
    """
    Check the deranged-matching generating function to the given order:

        ( sum_j a(j) x**j / j! ) * e**x * sqrt(1 - 2x)  ==  1

    with a(j) the closed-form values.
    """
    a = formulas.deranged_matchings
    x = _variable(order)
    series_a = BivariateSeries(
        order, 0, {(j, 0): Fraction(a(j), math.factorial(j)) for j in range(order + 1)}
    )
    product = series_a * exp(x) * sqrt_one_plus(x.scale(-2))
    return product == one(order, 0)


def successor_free_egf_ok(order: int) -> bool:
    """Check sum_k f(k) x**k / k! == e**(-x) * (1 - log(1 - x)) to the given order."""
    x = _variable(order)
    f = formulas.successor_free_cycles
    lhs = {(k, 0): Fraction(f(k), math.factorial(k)) for k in range(order + 1)}
    return BivariateSeries(order, 0, lhs) == exp(-x) * (one(order, 0) - log_one_plus(-x))
