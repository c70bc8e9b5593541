"""(phi,tau)-modules: cocycles, the two valuations, and descent.

Test modules come from base change of the trivial module along an
invertible matrix B over kappa[t, 1/t]: P = B^{-1} phi(B) and
Mat(tau) = B^{-1} tau(B).  The cocycle identity then holds by
construction, giving every computation a built-in oracle.
"""

from tilted import (
    MatSeries,
    basechange_from_matrix,
    basechange_generate,
    cocycle_check,
    descend,
    equiv_constant,
    galois,
    module_to_text,
    ring,
)

p = 3

# A random base-change module; the cocycle holds for every tau power.
mod = basechange_generate(d=2, seed=4, complexity=2, p=p, prec=24)
for c in (1, 2, 3):
    ok, _ = cocycle_check(mod, galois.tau(c))
    print(f"cocycle for tau^{c}:", ok)

print()
print("module file:")
print(module_to_text(mod))

# Two valuations on coordinate vectors: the naive minimum and the one
# computed through the lattice basis.  Their gap is at most a constant
# read off W and W^-1, and a basis vector or a column of W attains it.
const, witness = equiv_constant(mod)
print(f"valuation gap constant: {const}, attained at x = ({', '.join(map(str, witness))})")

# Descent: solve Mat(g) = Id + t^r H by the contraction
# H = f0 + P phi(H) Q_g.  Each iteration gains at least val(Q_g).
one = ring.one(p)
b = MatSeries.from_rows([[one + ring.t_var(p)]])
binv = MatSeries.from_rows([[ring.invert(one + ring.t_var(p), 24)]])
simple = basechange_from_matrix(b, binv, 24)
rep, _ = descend(simple, 12, r=1, c=1)
print()
print("descent for B = 1 + t:")
print("  iterations:", rep.iterations, " gain per step >=", rep.q_val)
print("  H =", rep.h.rows[0][0])
print("  closed form u/(1+t):", ring.u_var(p) * ring.invert(one + ring.t_var(p), 12))

# `descend` rescales a module with non-integral P first (the twist
# multiplies Mat(tau) by the unit (1+u)^s and leaves the cocycle intact),
# then picks the least radius r and level l, g = tau^(3^l), and checks H
# against Mat(g) computed directly.  A descent that the module's precision
# stops short of the target raises NonConvergence.
rep, matches = descend(mod, 10)
level = 0  # rep.c = 3^level, for the printout
while p**level < rep.c:
    level += 1
print()
print(f"generated module: radius {rep.r}, tau^(3^{level}), {rep.iterations} iterations")
print("matches Mat(g) computed directly:", matches)
