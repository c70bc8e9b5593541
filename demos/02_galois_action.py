"""The semidirect Galois group and its action.

Elements tau^c gamma_a act by

    gamma_a : u^(1/p^k) |-> (1 + u^(1/p^k))^a - 1   (t fixed),
    tau^c   : t^r       |-> (1+u)^(c r) t^r         (u fixed),

and conjugation realizes gamma_a tau gamma_a^{-1} = tau^a.
"""

from fractions import Fraction

from tilted import act, eps_pow, gamma, inverse, ring, tau

p = 3
t = ring.t_var(p)
u = ring.u_var(p)

print("tau(t)      =", act(tau(1), t))
print("tau(u)      =", act(tau(1), u), " (u is fixed)")
print("gamma_4(u)  =", act(gamma(4), u))
print("gamma_4(t)  =", act(gamma(4), t), " (t is fixed)")

# The key valuation fact: val(eps^m - 1) = p^(v_p(m)) * p/(p-1).
one = ring.one(p)
for m in (1, 2, 3, 9):
    print(f"val(eps^{m} - 1) =", (eps_pow(m, p) - one).val())

# Orbits shrink as the group element goes deeper into the tower:
t13 = ring.monomial(p, 6, 1, 0, Fraction(1, 3))
for c in (1, 3, 9):
    print(f"val((tau^{c} - 1) t^(1/3)) =", (act(tau(c), t13) - t13).val())

# Conjugation: gamma_4 tau gamma_4^{-1} equals tau^4 as an operator, that
# is gamma_4 tau = tau^4 gamma_4, checked with exact elements.
x = u + t
lhs = act(gamma(4), act(tau(1), x, 12), 12)
rhs = act(tau(4), act(gamma(4), x, 12), 12)
print("conjugation identity holds:", ring.eq_to_prec(lhs, rhs))

# Inverted gamma components are only known modulo p^N; acting with them
# on very deep roots at high precision raises InsufficientGroupAccuracy
# instead of silently returning wrong terms.
g = inverse(gamma(4), p, nacc=24)
print("inverse of gamma_4 known modulo 3^", g.nacc)
