"""End-to-end verification suite.

Eleven independent checks covering the whole library: cyclotomic
valuations, membership bounds and their exact margins, deperfection
levels, refutation at too-large exponents, Newton polygon hulls,
cocycle identities on generated modules, fixed-point descent, the two
lattice valuations, matrix and module orbit exponents, group coherence,
and closure of certified bounds under linear combinations.

Each criterion is a named callable returning (passed, detail); `run`
executes a selection and reports one result per criterion.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from . import galois, holder, newton, phitau, ring
from .holder import FamilyKind, PPow, Status, SubgroupFamily


@dataclass(frozen=True)
class CriterionResult:
    ident: str
    title: str
    passed: bool
    detail: str


class _Checker:
    def __init__(self):
        self.failures = []
        self.count = 0

    def check(self, cond, msg):
        self.count += 1
        if not cond:
            self.failures.append(msg)

    def result(self):
        if self.failures:
            return False, "; ".join(self.failures[:4])
        return True, f"{self.count} checks"


def _vp(m: int, p: int) -> int:
    v = 0
    m = abs(m)
    while m % p == 0:
        m //= p
        v += 1
    return v


# -- 1: valuation of eps^m - 1 ----------------------------------------


def check_cyclotomic_valuations():
    ck = _Checker()
    for p in (3, 5):
        one = ring.one(p)
        for m in range(1, p**3 + 1):
            got = (galois.eps_pow(m, p) - one).val()
            want = Fraction(p, p - 1) * p ** _vp(m, p)
            ck.check(got == want, f"p={p} m={m}: val {got} != {want}")
            ck.check(galois.eps_val_formula(m, p) == want, f"helper at p={p} m={m}")
    return ck.result()


# -- 2: membership bounds with exact margins --------------------------


def check_membership_bounds():
    ck = _Checker()
    p = 3
    t = ring.t_var(p)
    cases = [
        (t, Fraction(1)),
        (t + t * t, Fraction(1)),
        (t**3 + ring.constant(2, p) * t**5, Fraction(5)),
    ]
    for x, mu in cases:
        for k in (0, 1):
            fam = SubgroupFamily(FamilyKind.TAU, k)
            plam = Fraction(p, p - 1) * p**k
            verdict = holder.sh_test(x, fam, plam, mu, i_max=4)
            ck.check(
                verdict.status is Status.PASS,
                f"x={ring.format_series(x)} k={k}: {verdict.status.value}",
            )
    for k in (0, 1):
        fam = SubgroupFamily(FamilyKind.TAU, k)
        plam = Fraction(p, p - 1) * p**k
        verdict = holder.sh_test(t, fam, plam, 1, i_max=4)
        for lm in verdict.margins:
            want = Fraction(p, p - 1) * p ** (k + lm.i) + 1
            ck.check(lm.observed == want, f"t margin at k={k} i={lm.i}")
    return ck.result()


# -- 3: deperfection level and exponent shift -------------------------


def check_deperfection():
    ck = _Checker()
    p = 3
    fam = SubgroupFamily(FamilyKind.TAU, 0)
    for n in range(3):
        x = ring.monomial(p, ring.DEFAULT_DENOM_CAP, 1, 0, Fraction(1, p**n))
        ck.check(holder.deperfection_level(x) == n, f"level of t^(1/3^{n})")
        est = holder.sh_estimate(x, fam, i_max=3)
        want = Fraction(p, p - 1) / p**n
        ck.check(est.consistent, f"inconsistent fit at n={n}")
        ck.check(est.plam_hat == want, f"exponent at n={n}: {est.plam_hat}")
        ck.check(est.mu_hat == Fraction(1, p**n), f"offset at n={n}")
    mixed = ring.u_var(p) + ring.t_var(p) * ring.t_var(p)
    ck.check(holder.deperfection_level(mixed) is None, "u-term must block deperfection")
    return ck.result()


# -- 4: refutation at a strictly larger exponent ----------------------


def check_strictness_refutation():
    ck = _Checker()
    p = 3
    fam = SubgroupFamily(FamilyKind.TAU, 0)
    too_big = PPow(Fraction(p, p - 1), Fraction(1, 2))
    for x in (ring.t_var(p), ring.t_var(p) + ring.t_var(p) ** 2):
        rep = holder.nonmembership_witness(x, fam, too_big, i_max=6)
        ck.check(rep.refuted, f"{ring.format_series(x)} not refuted at p^(c+1/2)")
        ck.check(rep.first_decrease == 0, "margin decrease must start at level 0")
    honest = holder.nonmembership_witness(
        ring.t_var(p), fam, Fraction(p, p - 1), i_max=6
    )
    ck.check(not honest.refuted, "true exponent must not be refuted")
    return ck.result()


# -- 5: Newton polygons -----------------------------------------------


def check_newton_hulls():
    ck = _Checker()
    for p in (3, 5, 7):
        for e_k in (1, 2, 3):
            for n in (0, 1, 2):
                ok, slope, polygon = newton.verify_elementary(p, e_k, n)
                want = -Fraction(newton.ramification_break(p, e_k, n), p**n)
                ck.check(ok, f"non-elementary at p={p} eK={e_k} n={n}")
                ck.check(slope == want, f"slope at p={p} eK={e_k} n={n}")
                ck.check(len(polygon.dropped) == 1, "constant term must be dropped")
                oracle = newton.hull_oracle(newton.kummer_step_valuations(p, e_k, n))
                ck.check(polygon.vertices == oracle, "oracle disagrees on grid")
    rng = random.Random(11)
    for trial in range(40):
        pts = []
        for k in range(rng.randint(2, 8)):
            if rng.random() < 0.1:
                pts.append(newton.NPPoint(k, None))
            else:
                pts.append(
                    newton.NPPoint(k, Fraction(rng.randint(-9, 9), rng.randint(1, 6)))
                )
        if sum(pt.finite for pt in pts) < 2:
            continue
        hull = newton.lower_hull(pts)
        ck.check(hull.vertices == newton.hull_oracle(pts), f"random hull {trial}")
    return ck.result()


def _one_plus_t(p, prec):
    """The base-change module of B = 1 + t, with B^{-1} known to prec."""
    b = ring.one(p) + ring.t_var(p)
    binv = ring.invert(b, prec)
    return phitau.basechange_from_matrix(
        phitau.MatSeries.from_rows([[b]]), phitau.MatSeries.from_rows([[binv]]), prec
    )


# -- 6: cocycle identity on generated modules -------------------------


def check_cocycle_family():
    ck = _Checker()
    p = 3
    # fifty small modules, then one at each d = 4..8
    cases = [(seed, 1 + seed % 3) for seed in range(50)] + [(d, d) for d in range(4, 9)]
    for seed, d in cases:
        mod = phitau.basechange_generate(d, seed=seed, complexity=2, p=p, prec=20)
        for c in (2, 3):
            ok, _ = phitau.cocycle_check(mod, galois.tau(c))
            ck.check(ok, f"cocycle seed={seed} d={d} c={c}")
    # closed form for B = 1 + t: P = (1+t)^(p-1), Mat(tau)(1+t) = 1 + eps t
    one = ring.one(p)
    mod = _one_plus_t(p, 20)
    ck.check(
        ring.eq_to_prec(mod.frob.rows[0][0], ring.parse_series("1+2*t+t^{2}", p)),
        "closed-form Frobenius",
    )
    lhs = mod.mat_tau.rows[0][0] * (one + ring.t_var(p))
    rhs = one + (one + ring.u_var(p)) * ring.t_var(p)
    ck.check(ring.eq_to_prec(lhs, rhs), "closed-form tau matrix")
    return ck.result()


# -- 7: fixed-point descent -------------------------------------------


# (seed, d): eight modules at d = 1, 2, then one at each d = 4, 5, 6
DESCENT_CASES = [(seed, 1 + seed % 2) for seed in (0, 1, 2, 5, 8, 13, 21, 34)] + [
    (d + 1, d) for d in (4, 5, 6)
]


def check_descent():
    ck = _Checker()
    p = 3
    target = Fraction(12)
    for seed, d in DESCENT_CASES:
        rep, matches = phitau.descend(
            phitau.basechange_generate(d, seed=seed, complexity=2, p=p, prec=24), target
        )
        ck.check(rep.reached, f"seed={seed} d={d} short")
        gains = [
            b - a
            for a, b in zip(rep.residual_history, rep.residual_history[1:])
            if a is not None and b is not None
        ]
        ck.check(all(gain >= rep.q_val for gain in gains), f"seed={seed} d={d} slow gain")
        first = rep.residual_history[0] if rep.residual_history else None
        if first is not None:
            limit = 1
            while first + limit * rep.q_val < target:
                limit += 1
            ck.check(rep.iterations <= limit + 1, f"seed={seed} d={d} too many iterations")
        ck.check(matches, f"seed={seed} d={d} descent != direct")
    # closed form: B = 1+t gives H = u (1+t)^{-1} at r = 1
    mod = _one_plus_t(p, 24)
    rep = phitau.descend_fixed_point(mod, galois.tau(1), 1, target)
    want = ring.u_var(p) * ring.invert(ring.one(p) + ring.t_var(p), target)
    ck.check(
        ring.eq_to_prec(rep.h.rows[0][0], want.truncate(target)),
        "closed-form descent",
    )
    return ck.result()


# -- 8: the two valuations --------------------------------------------


def check_lattice_valuations():
    ck = _Checker()
    p = 3
    # crafted W = t^2: the analytic bound 2 is attained
    one = ring.one(p)
    t2 = ring.monomial(p, ring.DEFAULT_DENOM_CAP, 1, 0, 2)
    t2inv = ring.monomial(p, ring.DEFAULT_DENOM_CAP, 1, 0, -2)
    b = phitau.MatSeries.from_rows([[t2inv]])
    binv = phitau.MatSeries.from_rows([[t2]])
    mod = phitau.basechange_from_matrix(b, binv, 24)
    best, bound = phitau.equiv_constant(mod)
    ck.check(bound == 2, f"analytic bound {bound} != 2 for W = t^2")
    ck.check(best == 2, f"bound not attained: best = {best}")
    rng = random.Random(7)
    for seed in (3, 4, 6):
        d = 1 + seed % 3
        mod = phitau.basechange_generate(d, seed=seed, complexity=2, p=p, prec=24)
        best, bound = phitau.equiv_constant(mod, samples=30, seed=seed)
        ck.check(best <= bound, f"seed={seed}: observed gap {best} > bound {bound}")
        for trial in range(20):
            coords = phitau._sample_coords(mod, rng)
            vtd = phitau.v_tilde(mod, coords)
            if vtd is None:
                continue
            g = galois.GroupElem(rng.choice([1, 2, 3]), rng.choice([1, 4, 7]))
            moved = phitau.module_act(mod, g, coords)
            vtd2 = phitau.v_tilde(mod, moved)
            ck.check(
                vtd2 == vtd,
                f"seed={seed} trial={trial}: lattice valuation moved {vtd} -> {vtd2}",
            )
    return ck.result()


# -- 9: matrix and module orbit exponents -----------------------------


def check_module_exponents():
    ck = _Checker()
    p = 3
    cp = Fraction(p, p - 1)
    for d, seed in ((1, 3), (2, 4)):
        mod = phitau.basechange_generate(d, seed=seed, complexity=2, p=p, prec=50)
        for k in (0, 1):
            rep = phitau.matrix_sh_test(mod, k, plam=cp * p**k, i_max=2)
            ck.check(
                rep.status is Status.PASS,
                f"d={d} k={k}: fitted {rep.plam_hat} != {cp * p ** k}",
            )
        _, bound = phitau.equiv_constant(mod)
        for rep in phitau.module_sh_test(mod, 0, i_max=2):
            tl, tm, tc = rep.tau_fit
            wl, wm, wc = rep.tilde_fit
            ck.check(tc and wc, f"d={d} j={rep.j}: inconsistent fit")
            ck.check(tl == wl, f"d={d} j={rep.j}: exponents differ {tl} vs {wl}")
            ck.check(abs(tm - wm) <= bound, f"d={d} j={rep.j}: offsets too far apart")
    # a scalar t^(1/p) moves one level lower: the coordinate branch
    # (g-1) t^(1/p) dominates and scales the exponent by 1/p
    mod = _one_plus_t(p, 50)
    rep = phitau.module_sh_test(mod, 0, n=1, i_max=2)[0]
    ck.check(rep.tau_fit[2], "shifted coordinate fit inconsistent")
    ck.check(rep.tau_fit[0] == cp / p, f"shifted exponent {rep.tau_fit[0]} != {cp / p}")
    ck.check(rep.tau_fit[1] == Fraction(1, p), "shifted offset")
    return ck.result()


# -- 10: group coherence ----------------------------------------------


def _random_series(rng, p):
    acc = None
    for _ in range(rng.randint(1, 3)):
        coeff = rng.randrange(1, p)
        eu = Fraction(rng.randint(0, 2), p ** rng.randint(0, 2))
        et = Fraction(rng.randint(-2, 4), p ** rng.randint(0, 2))
        term = ring.monomial(p, ring.DEFAULT_DENOM_CAP, coeff, eu, et)
        acc = term if acc is None else acc + term
    return acc


def check_group_coherence():
    ck = _Checker()
    p = 3
    prec = Fraction(20)
    rng = random.Random(5)
    for trial in range(30):
        x = _random_series(rng, p)
        for a in (4, 7, 10):
            conj = galois.compose(
                galois.compose(galois.gamma(a), galois.tau(1)),
                galois.inverse(galois.gamma(a), p),
            )
            lhs = galois.act(conj, x, prec)
            rhs = galois.act(galois.tau(a), x, prec)
            ck.check(ring.eq_to_prec(lhs, rhs), f"conjugation trial={trial} a={a}")
    for trial in range(10):
        x = _random_series(rng, p)
        y = _random_series(rng, p)
        g = galois.GroupElem(rng.randint(-2, 3), rng.choice([1, 2, 4, 7]))
        h = galois.GroupElem(rng.randint(-2, 3), rng.choice([1, 2, 4, 7]))
        ck.check(
            ring.eq_to_prec(
                galois.act(g, x + y, prec),
                galois.act(g, x, prec) + galois.act(g, y, prec),
            ),
            f"additivity trial={trial}",
        )
        ck.check(
            ring.eq_to_prec(
                galois.act(g, x * y, prec),
                (galois.act(g, x, prec) * galois.act(g, y, prec)).truncate(prec),
            ),
            f"multiplicativity trial={trial}",
        )
        ck.check(
            ring.eq_to_prec(
                galois.act(galois.compose(g, h), x, prec),
                galois.act(g, galois.act(h, x, prec), prec),
            ),
            f"composition trial={trial}",
        )
    return ck.result()


# -- 11: closure under linear combinations ----------------------------


def check_linear_closure():
    ck = _Checker()
    p = 3
    cp = Fraction(p, p - 1)
    fam = SubgroupFamily(FamilyKind.TAU, 0)
    rng = random.Random(9)
    scale = p**ring.DEFAULT_DENOM_CAP

    def t_units(x):
        return [ring.mono_units(m, p)[1] for m, _ in x.terms]

    def poly():
        acc = ring.zero(p)
        for _ in range(rng.randint(1, 3)):
            acc = acc + ring.monomial(
                p, ring.DEFAULT_DENOM_CAP, rng.randrange(1, p), 0, rng.randint(1, 6)
            )
        return acc

    trials = 0
    while trials < 20:
        x, y = poly(), poly()
        j = rng.randint(0, 3)
        f = ring.monomial(p, ring.DEFAULT_DENOM_CAP, rng.randrange(1, p), 0, j)
        z = f * x + y
        moving = [Fraction(b, scale) for b in t_units(z) if b]
        if not moving:
            continue
        trials += 1
        mu = min(moving)
        naive = min(
            [j + Fraction(b, scale) for b in t_units(x) if j + Fraction(b, scale) != 0]
            + [Fraction(b, scale) for b in t_units(y) if b]
        )
        ck.check(mu >= naive, f"trial={trials}: bookkeeping bound {naive} > {mu}")
        verdict = holder.sh_test(z, fam, cp, mu, i_max=3)
        ck.check(verdict.status is Status.PASS, f"trial={trials}: not certified")
        for lm in verdict.margins:
            want = min(cp * p ** (lm.i + _vp(int(r), p)) + r for r in moving)
            ck.check(lm.observed == want, f"trial={trials} i={lm.i}: margin")
    return ck.result()


CRITERIA = (
    ("valuations", "cyclotomic valuation formula", check_cyclotomic_valuations),
    ("membership", "membership bounds with exact margins", check_membership_bounds),
    ("deperfection", "deperfection levels and exponent shift", check_deperfection),
    ("refutation", "refutation at too-large exponents", check_strictness_refutation),
    ("newton", "Newton polygon hulls against the oracle", check_newton_hulls),
    ("cocycle", "cocycle identity on generated modules", check_cocycle_family),
    ("descent", "fixed-point descent", check_descent),
    ("lattice", "the two valuations and their gap", check_lattice_valuations),
    ("exponents", "matrix and module orbit exponents", check_module_exponents),
    ("group", "group coherence of the action", check_group_coherence),
    ("closure", "closure under linear combinations", check_linear_closure),
)


def run(idents=None):
    known = {ident for ident, _, _ in CRITERIA}
    if idents is not None:
        unknown = set(idents) - known
        if unknown:
            raise ValueError(f"unknown criteria: {sorted(unknown)}")
    results = []
    for ident, title, fn in CRITERIA:
        if idents is not None and ident not in idents:
            continue
        passed, detail = fn()
        results.append(CriterionResult(ident, title, passed, detail))
    return results
