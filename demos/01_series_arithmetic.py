"""Exact arithmetic with perfected bivariate series.

The ring has two variables over F_p: u with valuation p/(p-1) and t
with valuation 1.  Exponents live in Z[1/p] with denominators capped
at p^6, coefficients in F_p, and precision is an exact rational
valuation cutoff (None means the series is known exactly).
"""

from fractions import Fraction

from tilted import ring

p = 3

# Build series from the parser or from constructors; both are canonical.
x = ring.parse_series("1+u", p)
t = ring.t_var(p)
print("x          =", x)
print("val(u)     =", ring.u_var(p).val())
print("val(t)     =", t.val())

# Characteristic p: the freshman's dream holds on the nose.
print("(1+u)^3    =", x * x * x)

# Frobenius is invertible because exponents may acquire p-power
# denominators; its inverse divides all exponents by p.
print("phi^-1(1+u) =", ring.frobenius_inv(x))

# Inversion needs a precision cap unless the series is a monomial:
# geometric series expansion to the requested valuation.
inv = ring.invert(ring.parse_series("1+t", p), 6)
print("1/(1+t)    =", inv)
print("check      =", ring.parse_series("1+t", p) * inv)

# Precision caps propagate through products by the exact rule
# prec(xy) = min(val(x) + prec(y), val(y) + prec(x)).
a = ring.parse_series("t+O(5)", p)
b = ring.parse_series("t^{2}+O(4)", p)
print("(t+O(5)) * (t^2+O(4)) =", a * b)

# Deep roots of t are first-class citizens.
deep = ring.monomial(p, 6, 2, Fraction(1, 9), Fraction(-2, 3))
print("a perfected monomial  =", deep, " with valuation", deep.val())
