"""The three seeded workloads: each is a fixed list of operations, every
one a single call into a public function of the library, paired with an
oracle that does not depend on the library's precision bookkeeping.

The structure of each list (how many operations of each kind, sizes,
dimensions, precisions, which operations are inconclusive by
construction) is the same for every seed, so that different seeds cost
about the same; the seed draws the coefficients, exponents and group
elements.  The library receives only the generated inputs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

import oracles as O

OK = "ok"
INCONCLUSIVE = "inconclusive"

_UNSET = object()

# Module results are compared below (module precision - SLACK).  Products
# with entries of negative valuation cost precision: on these inputs the
# results come back known to up to 2 below the module's precision, and
# the checks' own products with B lose more.
SLACK = 10


@dataclass
class Op:
    """One closed-loop request.  ``judge(result, expected)`` returns OK,
    INCONCLUSIVE or a failure message; ``expect`` computes the reference
    once, outside the timed region."""

    kind: str
    desc: str
    call: Callable[[], Any]
    judge: Callable[[Any, Any], str]
    expect: Callable[[], Any] = lambda: None
    _expected: Any = field(default=_UNSET, repr=False)

    def check(self, result):
        if self._expected is _UNSET:
            self._expected = self.expect()
        return self.judge(result, self._expected)


def _honest(L, exc):
    """An exception is an honest INCONCLUSIVE only when it says that
    precision or group accuracy ran out."""
    if isinstance(exc, (L.errors.InsufficientGroupAccuracy, L.errors.PrecisionRequired)):
        return INCONCLUSIVE
    return f"raised {type(exc).__name__}: {exc}"


def _agree(L, got, want_terms, floor, p, cap):
    """got is known at least to ``floor`` and equals want below it."""
    if got.prec is not None and got.prec < floor:
        return f"known only to O({got.prec}) < floor {floor}"
    want = L.ring.parse_series(O.to_text(want_terms, floor), p, cap)
    if not L.ring.eq_to_prec(got, want, floor):
        return f"differs below {floor}: {L.ring.format_series(got)[:120]}"
    return OK


def _agree_series(L, got, want, floor):
    if got.prec is not None and got.prec < floor:
        return f"known only to O({got.prec}) < floor {floor}"
    if not L.ring.eq_to_prec(got, want, floor):
        return f"differs below {floor}"
    return OK


def _agree_matrix(L, got, want, floor):
    for grow, wrow in zip(got.rows, want.rows):
        for g, w in zip(grow, wrow):
            verdict = _agree_series(L, g, w, floor)
            if verdict != OK:
                return verdict
    return OK


def digest_of(ops):
    h = hashlib.sha256()
    for op in ops:
        h.update(op.desc.encode())
        h.update(b"\n")
    return h.hexdigest()


# -- inputs ---------------------------------------------------------------


def _series_terms(rng, p, slot, n_terms, max_k=2):
    """1-5 terms with u/t exponent denominators up to p^max_k and, for a
    fixed share of terms, negative t exponents.  The exponents depend on
    the slot only and the seed draws the coefficients: the cost of an
    action is set by the exponents (denominators, signs, and the u power
    that gamma raises to), so every seed then costs the same."""
    terms = {}
    for j in range(n_terms):
        ku = max_k if (slot + j) % 5 == 0 else (slot + j) % 2
        kt = max_k if (slot + 2 * j) % 5 == 1 else (slot + 2 * j + 1) % 2
        nu = (slot + j) % 3 if ku == 0 else 1 + (slot + j) % 2
        nt = (1 + (slot + 2 * j) % 2) * (-1 if (slot + j) % 3 == 0 else 1)
        key = (Fraction(nu, p**ku), Fraction(nt, p**kt))
        O.add_term(terms, key, rng.randrange(1, p), p)
    return terms or {(Fraction(0), Fraction(1)): 1}


def _tpoly(rng, p, n_terms, exps):
    terms = {}
    for r in rng.sample(exps, n_terms):
        terms[(Fraction(0), Fraction(r))] = rng.randrange(1, p)
    return terms


def _units(p, below):
    return [a for a in range(2, below) if a % p]


# -- orbit ----------------------------------------------------------------


def orbit_ops(L, seed, workdir=None):
    rng = random.Random(f"orbit-{seed}")
    g, R, H = L.galois, L.ring, L.holder
    ops = []

    def act_op(kind, p, prec, slot, elem_g, ref, max_k=2):
        terms = _series_terms(rng, p, slot, 1 + slot % 5 if p == 3 else 1 + slot % 2, max_k)
        text = O.to_text(terms)
        x = R.parse_series(text, p)

        def judge(res, want):
            if isinstance(res, Exception):
                return _honest(L, res)
            return _agree(L, res, want, prec, p, R.DEFAULT_DENOM_CAP)

        ops.append(
            Op(
                kind,
                f"{kind} p={p} g={elem_g} x={text} prec={prec}",
                lambda: g.act(elem_g, x, prec),
                judge,
                lambda: ref(terms, p, prec),
            )
        )

    def conj(p, slot):
        units = _units(p, 3 * p)
        a = units[slot % len(units)]
        elem = g.compose(g.compose(g.gamma(a), g.tau(1)), g.inverse(g.gamma(a), p))
        # gamma_a tau gamma_a^-1 = tau^a
        return elem, lambda terms, p, prec: O.tau_image(terms, a, p, prec)

    def tau_gamma(p, slot):
        # c and a run over their ranges by slot, so each seed has as many
        # negative eps_pow exponents and dense gamma images as any other
        c = (1, -1, 2, -2, 3, -3, 0)[slot % 7]
        a = ([1] + _units(p, 3 * p))[slot % 6]

        def ref(terms, p, prec):
            return O.tau_image(O.gamma_image(terms, a, p, prec), c, p, prec)

        return g.GroupElem(c, a), ref

    for slot in range(24):
        act_op("act_conj", 3, 20, slot, *conj(3, slot))
    for slot in range(24):
        act_op("act_tau_gamma", 3, 20, slot, *tau_gamma(3, slot))
    for slot in range(6):
        make = conj if slot % 2 else tau_gamma
        act_op("act_p5", 5, 6, slot, *make(5, slot), max_k=1)

    cpr = O.cp(3)

    # sh_test on exact pure-t polynomials: PASS or a certified FAIL
    for slot in range(16):
        k, i_max = slot % 2, 3 + slot % 4
        terms = _tpoly(rng, 3, 1 + slot % 3, [1, 2, 3, 4, 5, 6, Fraction(1, 3), Fraction(2, 3)])
        mu = min(et for _, et in terms) + slot % 3 // 2
        ops.append(_sh_test_op(L, terms, None, k, cpr * 3**k, mu, i_max))
    # truncated inputs whose top levels vanish to precision: INCONCLUSIVE
    for slot in range(6):
        terms = _tpoly(rng, 3, 1 + slot % 2, [1, 2, 3])
        mu = min(et for _, et in terms)
        ops.append(_sh_test_op(L, terms, Fraction(10), 0, cpr, mu, 3 + slot % 2))

    for slot in range(14):
        i_max = 3 + slot % 4
        if slot % 2 == 0:
            n = slot % 3
            b = rng.choice([b for b in range(1, 9) if b % 3])
            terms = {(Fraction(0), Fraction(b, 3**n)): rng.randrange(1, 3)}
        else:
            terms = _tpoly(rng, 3, 2, [1, 2, 3, 4, 5, 6])
        ops.append(_sh_estimate_op(L, terms, i_max))

    for slot in range(14):
        i_max = 3 + slot % 4
        terms = _tpoly(rng, 3, 1 + slot % 2, [1, 2, 3, 4])
        s = Fraction(1, 2) if slot % 2 == 0 else Fraction(0)
        ops.append(_witness_op(L, terms, cpr, s, i_max))
    return ops


def _sh_test_op(L, terms, prec, k, plam, mu, i_max):
    H, R = L.holder, L.ring
    text = O.to_text(terms, prec)
    x = R.parse_series(text, 3)
    fam = H.SubgroupFamily(H.FamilyKind.TAU, k)

    def expect():
        levels = O.tpoly_levels(terms, k, i_max, 3)
        return levels, O.sound_verdicts(levels, prec, plam, mu, 3, k, R.DEFAULT_DENOM_CAP)

    def judge(res, want):
        if isinstance(res, Exception):
            return _honest(L, res)
        levels, allowed = want
        status = res.status.value
        if status not in allowed:
            return f"verdict {status}, sound verdicts {sorted(allowed)}"
        for lm, v in zip(res.margins, levels):
            if lm.observed is not None and lm.observed != v:
                return f"margin at level {lm.i} is {lm.observed}, closed form {v}"
            if lm.observed is None and (prec is None or v < prec):
                return f"level {lm.i} vanished although its margin {v} is known"
        return INCONCLUSIVE if status == "inconclusive" else OK

    return Op(
        "sh_test",
        f"sh_test x={text} k={k} plam={plam} mu={mu} imax={i_max}",
        lambda: H.sh_test(x, fam, plam, mu, i_max),
        judge,
        expect,
    )


def _sh_estimate_op(L, terms, i_max):
    H, R = L.holder, L.ring
    text = O.to_text(terms)
    x = R.parse_series(text, 3)
    fam = H.SubgroupFamily(H.FamilyKind.TAU, 0)

    def expect():
        levels = O.tpoly_levels(terms, 0, i_max, 3)
        return levels, O.fit(levels, 3)

    def judge(res, want):
        if isinstance(res, Exception):
            return _honest(L, res)
        levels, (plam, mu, consistent) = want
        if list(res.levels) != levels:
            return f"levels {res.levels} != closed form {levels}"
        if (res.plam_hat, res.mu_hat, res.consistent) != (plam, mu, consistent):
            return f"fit {res.plam_hat}, {res.mu_hat}, {res.consistent}; expected {plam}, {mu}, {consistent}"
        return OK

    return Op(
        "sh_estimate",
        f"sh_estimate x={text} imax={i_max}",
        lambda: H.sh_estimate(x, fam, i_max),
        judge,
        expect,
    )


def _witness_op(L, terms, q, s, i_max):
    H, R = L.holder, L.ring
    text = O.to_text(terms)
    x = R.parse_series(text, 3)
    fam = H.SubgroupFamily(H.FamilyKind.TAU, 0)
    plam = H.PPow(q, s)

    def expect():
        levels = O.tpoly_levels(terms, 0, i_max, 3)
        return levels, O.refutation(levels, q, s, 3)

    def judge(res, want):
        if isinstance(res, Exception):
            return _honest(L, res)
        levels, (refuted, first) = want
        if list(res.levels) != levels:
            return f"levels {res.levels} != closed form {levels}"
        if (res.refuted, res.first_decrease) != (refuted, first):
            return f"refuted={res.refuted} first={res.first_decrease}; expected {refuted}, {first}"
        return OK

    return Op(
        "witness",
        f"witness x={text} plam={q}*p^{s} imax={i_max}",
        lambda: H.nonmembership_witness(x, fam, plam, i_max),
        judge,
        expect,
    )


# -- module ---------------------------------------------------------------


def _has_t(L, series):
    return "t" in L.ring.format_series(series)


def _moving_columns(L, b):
    """Every column of B has a t-dependent entry, so tau moves every basis
    vector and the orbit exponents are defined."""
    return all(any(_has_t(L, b.rows[i][j]) for i in range(b.d)) for j in range(b.d))


def _closed_mat(L, mod, c, prec):
    """Mat(tau^c) = B^-1 tau^c(B), from the generator's B = lattice_inv."""
    return (mod.lattice * mod.lattice_inv.act(L.galois.tau(c), prec)).truncate(prec)


def _min_val(series_list):
    vals = [s.val() for s in series_list if s.val() is not None]
    return min(vals) if vals else None


def _term_count(L, mat):
    """Known terms of all entries, read from their canonical text."""
    count = 0
    for row in mat.rows:
        for e in row:
            count += sum(1 for part in L.ring.format_series(e).split(" + ") if part[0] not in "O0")
    return count


def _generate(L, rng, d, prec, complexity=2, moving=False, sized=None):
    """A module from the generator, drawn again until it has the asked-for
    properties.  ``moving``: B moves every basis vector under tau, so that
    every orbit exponent is defined.  ``sized``: Mat(tau) has between
    sized[0] and sized[1] terms.
    The generator's draws range from 2 terms, which cost nothing, to over
    100, where one Mat(tau^9) takes 0.3 s, and a handful of those would
    decide a seed's figures."""
    while True:
        mod = L.phitau.basechange_generate(
            d, seed=rng.randrange(10**6), complexity=complexity, p=3, prec=prec
        )
        if moving and not _moving_columns(L, mod.lattice_inv):
            continue
        if sized and not sized[0] <= _term_count(L, mod.mat_tau) <= sized[1]:
            continue
        return mod


def module_ops(L, seed, workdir=None):
    rng = random.Random(f"module-{seed}")
    G, P = L.galois, L.phitau
    ops = []
    # The 24 small modules are the same for every seed: even within the
    # size band, one draw costs up to 3x another, and 24 draws vary by
    # about +-10 % in total from seed to seed.  The seed draws the large
    # modules, the coordinates' coefficients and the approximate elements.
    # Orbit tests only where they take tens of ms: at d = 3 or prec 50 one
    # takes ~1 s and would set the pace of the whole pass.
    fixed = random.Random("module-small")
    matrix_sh, module_sh = (0, 1, 3, 4), (9, 10, 12)
    for slot in range(24):
        d, prec = 1 + slot % 3, (30, 40, 50)[slot // 3 % 3]
        if d == 1:  # Mat(tau) = (1+u)^e: 2-3 terms, or 20-33 for e < 0
            mod = _generate(L, fixed, d, prec, moving=True)
        else:
            mod = _generate(L, fixed, d, prec, moving=slot in matrix_sh + module_sh, sized=(12, 24))
        tag = f"d={d} prec={prec} slot={slot}"
        for j in (slot % 3, (slot + 1) % 3):
            ops.append(_mat_of_op(L, mod, (1 + slot // 3 % 2) * 3**j, prec, tag))
        c = 2 + slot % 2
        ops.append(
            Op(
                "cocycle_check",
                f"cocycle_check {tag} c={c}",
                lambda mod=mod, c=c: P.cocycle_check(mod, G.tau(c)),
                lambda res, _: _honest(L, res)
                if isinstance(res, Exception)
                else (OK if res[0] is True else f"cocycle residual {res[1]}"),
            )
        )
        coords = _coords(L, rng, d, prec, slot)
        g = G.GroupElem(1 + slot % 3, (1, 2, 4, 5)[slot % 4])
        ops.append(_module_act_op(L, mod, g, coords, prec, tag))
        if d >= 2 and slot % 3 == 1:
            # known only mod p^2: too coarse for this precision, so the
            # action must refuse (honest INCONCLUSIVE) or be right
            approx = G.inverse(G.gamma(rng.choice([2, 4, 5, 7])), 3, nacc=2)
            ops.append(_module_act_op(L, mod, approx, coords, prec, tag))
        if slot in matrix_sh:
            ops.append(_matrix_sh_op(L, mod, prec, tag))
        if slot in module_sh:
            ops.append(_module_sh_op(L, mod, prec, tag))

    # i: inverse of the lattice, r: minimal descent radius, d: descent at
    # the minimal level, m: Mat(tau^-1).  Mat(tau^-1) stays below d = 6,
    # where one call takes 1-3 s and would set the pace of the whole pass.
    for d, kinds in ((4, "irm"), (4, "ird"), (5, "irm"), (5, "ird"), (6, "ird"), (6, "ir")):
        while True:
            mod = _generate(L, rng, d, 24)
            tw = P.integral_twist(mod)
            # a radius above 3 can leave the descent short of its target at
            # prec 24; the spread module below exercises that case once
            if "d" not in kinds or P.minimal_descent_radius(tw) <= 3:
                break
        tag = f"d={d} prec=24"
        if "i" in kinds:
            ops.append(_lattice_inverse_op(L, mod, tag))
        if "r" in kinds:
            ops.append(_radius_op(L, tw, tag))
        if "d" in kinds:
            ops.append(_descend_op(L, tw, tag))
        if "m" in kinds:
            ops.append(_mat_of_op(L, mod, -1, Fraction(24), tag))
    ops.append(_descend_op(L, P.integral_twist(_spread_module(L, rng)), "d=4 prec=24 spread"))
    return ops


def _spread_module(L, rng):
    """B = diag(t^-1, t^2, 1, 1) (I + c t^k E_ij): the spread of the diagonal
    exponents makes the minimal descent radius 7, beyond what prec 24
    lets the descent certify to its target."""
    R, P = L.ring, L.phitau
    d, p, cap = 4, 3, R.DEFAULT_DENOM_CAP
    i, j = rng.sample(range(d), 2)
    c, k = rng.randrange(1, p), rng.randint(0, 1)
    units = [rng.randrange(1, p) for _ in range(d)]
    exps = (-1, 2, 0, 0)

    def mat(entry):
        return P.MatSeries.from_rows([[entry(a, b) for b in range(d)] for a in range(d)])

    def diag(sign):
        def entry(a, b):
            if a != b:
                return R.zero(p, cap)
            return R.monomial(p, cap, pow(units[a], sign, p), 0, sign * exps[a])

        return entry

    def elem(sign):
        return lambda a, b: R.one(p, cap) if a == b else (
            R.monomial(p, cap, sign * c, 0, k) if (a, b) == (i, j) else R.zero(p, cap)
        )

    b = mat(diag(1)) * mat(elem(1))
    binv = mat(elem(-1)) * mat(diag(-1))
    return P.basechange_from_matrix(b, binv, 24)


def _coords(L, rng, d, prec, slot):
    """A coordinate vector of monomials known to O(prec), one in five
    zero.  The exponents depend on the slot only, the seed draws the
    coefficients, for the same reason as in ``_series_terms``."""
    out = []
    for l in range(d):
        terms = {}
        if (slot + l) % 5:
            eu = Fraction((slot + l) % 3, 3 ** ((slot + 2 * l) % 3))
            et = Fraction((slot + l) % 7 - 2, 3 ** ((slot + l) % 2))
            terms[(eu, et)] = rng.randrange(1, 3)
        out.append(L.ring.parse_series(O.to_text(terms, prec), 3))
    return tuple(out)


def _mat_of_op(L, mod, c, prec, tag):
    floor = Fraction(prec) - SLACK

    def judge(res, want):
        if isinstance(res, Exception):
            return _honest(L, res)
        return _agree_matrix(L, res, want, floor)

    return Op(
        "mat_of",
        f"mat_of {tag} c={c}",
        lambda: L.phitau.mat_of(mod, L.galois.tau(c)),
        judge,
        lambda: _closed_mat(L, mod, c, prec),
    )


def _module_act_op(L, mod, g, coords, prec, tag):
    floor = Fraction(prec) - SLACK
    b = mod.lattice_inv

    def expect():
        # in the trivial coordinates B x the action is entrywise
        try:
            return tuple(L.galois.act(g, y, prec) for y in b.vecmul(coords))
        except L.errors.TiltedError as exc:
            return exc

    def judge(res, want):
        if isinstance(res, Exception):
            return _honest(L, res)
        if isinstance(want, Exception):
            return f"acted although the entrywise action refuses: {want}"
        for got, w in zip(b.vecmul(res), want):
            verdict = _agree_series(L, got, w, floor)
            if verdict != OK:
                return verdict
        return OK

    text = ",".join(L.ring.format_series(c) for c in coords)
    return Op(
        "module_act",
        f"module_act {tag} g={g} x=({text})",
        lambda: L.phitau.module_act(mod, g, coords),
        judge,
        expect,
    )


def _orbit_mats(L, mod, prec, i_max=2):
    """Per level i, per sample m: (Mat(g) - Id, tau^c(B) - B) for g = tau^(m 3^i)."""
    ident = L.phitau.MatSeries.identity(mod.d, 3, mod.cap, prec)
    b = mod.lattice_inv
    out = []
    for i in range(i_max + 1):
        level = []
        for m in (1, 2):
            c = m * 3**i
            level.append((_closed_mat(L, mod, c, prec) - ident, b.act(L.galois.tau(c), prec) - b))
        out.append(level)
    return out


def _matrix_sh_op(L, mod, prec, tag):
    floor = Fraction(prec) - SLACK
    plam = O.cp(3)

    def expect():
        levels = [
            min(dm.val_floor() for dm, _ in level) for level in _orbit_mats(L, mod, prec)
        ]
        return levels

    def judge(res, levels):
        if isinstance(res, Exception):
            return _honest(L, res)
        for got, v in zip(res.levels, levels):
            if v < floor and got != v:
                return f"levels {res.levels} != closed form {levels}"
            if v >= floor and got < floor:
                return f"levels {res.levels} below floor, closed form {levels}"
        plam_hat, mu_hat, consistent = O.fit(list(res.levels), 3)
        want = "pass" if consistent and plam_hat == plam else "fail"
        if res.status.value != want or (res.plam_hat, res.mu_hat) != (plam_hat, mu_hat):
            return f"status {res.status.value} fit {res.plam_hat}; expected {want} {plam_hat}"
        return OK

    return Op(
        "matrix_sh_test",
        f"matrix_sh_test {tag}",
        lambda: L.phitau.matrix_sh_test(mod, 0, plam=plam, i_max=2),
        judge,
        expect,
    )


def _module_sh_op(L, mod, prec, tag):
    floor = Fraction(prec) - SLACK

    def expect():
        mats = _orbit_mats(L, mod, prec)
        per_j = []
        for j in range(mod.d):
            tau_lv, tilde_lv = [], []
            for level in mats:
                tau_lv.append(min(_min_val(dm.rows[i][j] for i in range(mod.d)) for dm, _ in level))
                tilde_lv.append(min(_min_val(db.rows[i][j] for i in range(mod.d)) for _, db in level))
            per_j.append((tau_lv, tilde_lv))
        return per_j

    def judge(res, want):
        if isinstance(res, Exception):
            return _honest(L, res)
        if len(res) != mod.d:
            return f"{len(res)} basis reports for d={mod.d}"
        for rep, (tau_lv, tilde_lv) in zip(res, want):
            for got, exp in ((rep.tau_levels, tau_lv), (rep.tilde_levels, tilde_lv)):
                for gv, ev in zip(got, exp):
                    if (ev < floor or gv < floor) and gv != ev:
                        return f"j={rep.j} levels {got} != closed form {exp}"
            if rep.tau_fit != O.fit(list(rep.tau_levels), 3):
                return f"j={rep.j} basis fit {rep.tau_fit}"
            if rep.tilde_fit != O.fit(list(rep.tilde_levels), 3):
                return f"j={rep.j} lattice fit {rep.tilde_fit}"
        return OK

    return Op(
        "module_sh_test",
        f"module_sh_test {tag}",
        lambda: L.phitau.module_sh_test(mod, 0, i_max=2),
        judge,
        expect,
    )


def _lattice_inverse_op(L, mod, tag):
    prec = mod.prec
    floor = prec - SLACK
    w, b = mod.lattice, mod.lattice_inv

    def judge(res, _):
        if isinstance(res, Exception):
            return _honest(L, res)
        verdict = _agree_matrix(L, res, b, floor)
        if verdict != OK:
            return "inverse != B: " + verdict
        ident = L.phitau.MatSeries.identity(mod.d, 3, mod.cap)
        verdict = _agree_matrix(L, (w * res).truncate(prec), ident, floor)
        return verdict if verdict == OK else "M M^-1 != Id: " + verdict

    return Op("inverse", f"inverse {tag}", lambda: w.inverse(prec), judge)


def _radius_op(L, tw, tag):
    def expect():
        # P^-1 = phi(W) W^-1 for the twisted lattice W, exactly
        floor = (tw.lattice.frobenius() * tw.lattice_inv).val_floor()
        r = 1
        while r + floor < 1:
            r += 1
        return r

    def judge(res, r):
        if isinstance(res, Exception):
            return _honest(L, res)
        return OK if res == r else f"radius {res}, closed form {r}"

    return Op(
        "radius",
        f"minimal_descent_radius {tag}",
        lambda: L.phitau.minimal_descent_radius(tw),
        judge,
        expect,
    )


def _descend_op(L, tw, tag):
    P, G = L.phitau, L.galois
    target = Fraction(12)
    r = P.minimal_descent_radius(tw)
    g = G.tau(3 ** P.minimal_descent_level(tw, r))

    def judge(res, _):
        if isinstance(res, Exception):
            return _honest(L, res)
        reached = res.residual_val is None or res.residual_val >= target
        certified = target if reached else res.residual_val
        if not P.descent_matches_direct(tw, g, res, certified):
            return f"descent != direct Mat(g) below {certified}"
        # a report that stops short says so in residual_val: honest, but
        # not the answer asked for
        return OK if reached else INCONCLUSIVE

    return Op(
        "descend",
        f"descend_fixed_point {tag} g={g} r={r}",
        lambda: P.descend_fixed_point(tw, g, r, target),
        judge,
    )


# -- cli ------------------------------------------------------------------


def _dispatch(L, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = L.cli.dispatch(argv)
    return code, out.getvalue(), err.getvalue()


def _cli_op(L, kind, argv, judge, expect=lambda: None, shown=None):
    """``shown`` replaces argv in the description when argv names a
    scratch file, so that the op-list digest depends on the seed only."""
    def check(res, want):
        if isinstance(res, Exception):
            return f"raised {type(res).__name__}: {res}"
        code, out, err = res
        if code == 3:
            if out or not err.startswith("error:"):
                return "exit 3 must print only an error line"
            return judge((code, None), want)
        if code == 2 and not out:
            return INCONCLUSIVE if err.startswith("inconclusive:") else "silent exit 2"
        lines = out.splitlines()
        if len(lines) != 1:
            return f"exit {code} with {len(lines)} output lines"
        obj = json.loads(lines[0])
        if not isinstance(obj, dict) or obj.get("schema") != 1:
            return "output is not a schema-1 JSON object"
        verdict = judge((code, obj), want)
        return INCONCLUSIVE if verdict == OK and code == 2 else verdict

    return Op(kind, "cli " + json.dumps(shown or argv), lambda: _dispatch(L, argv), check, expect)


def _frac(q):
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _long_terms(rng, p, n):
    """n distinct terms with exponent denominators up to p^2."""
    terms = {}
    while len(terms) < n:
        eu = Fraction(rng.randint(0, 9), p ** rng.randint(0, 2))
        et = Fraction(rng.randint(-4, 12), p ** rng.randint(0, 2))
        terms[(eu, et)] = rng.randrange(1, p)
    return terms


def _expect_exit(code):
    def judge(res, _):
        return OK if res[0] == code else f"exit {res[0]}, expected {code}"

    return judge


def cli_ops(L, seed, workdir):
    rng = random.Random(f"cli-{seed}")
    R, P = L.ring, L.phitau
    ops = []
    lengths = (20, 50, 100, 200, 400)

    for slot in range(14):
        terms = _long_terms(rng, 3, lengths[slot % 5])
        text = O.to_text(terms)

        def eval_judge(res, _, terms=terms, text=text):
            code, obj = res
            if code != 0:
                return f"exit {code}"
            back = R.parse_series(obj["series"], 3)
            if not R.eq_to_prec(back, R.parse_series(text, 3)):
                return "eval output does not round-trip to the input"
            want = min(O.mono_val(eu, et, 3) for eu, et in terms)
            if obj["val"] != _frac(want) or obj["prec"] is not None:
                return f"val {obj['val']} prec {obj['prec']}, expected {want}"
            return OK

        ops.append(_cli_op(L, "cli_eval", ["eval", text], eval_judge))

    for slot in range(14):
        terms = _long_terms(rng, 3, lengths[(slot + 2) % 5])
        want = _frac(min(O.mono_val(eu, et, 3) for eu, et in terms))
        ops.append(
            _cli_op(
                L,
                "cli_val",
                ["val", O.to_text(terms)],
                lambda res, _, want=want: OK
                if res[0] == 0 and res[1]["val"] == want == res[1]["floor"]
                else f"val output {res}, expected {want}",
            )
        )

    for slot in range(14):
        terms = _long_terms(rng, 3, lengths[(slot + 4) % 5])
        if slot % 2:  # pure-t literals deperfect at their deepest denominator
            terms = {(Fraction(0), et): c for (_, et), c in terms.items()}
        if any(eu != 0 for eu, _ in terms):
            want = None
        else:
            want = max(O.denominator_exponent(et, 3) for _, et in terms)
        ops.append(
            _cli_op(
                L,
                "cli_deperfect",
                ["deperfect", O.to_text(terms)],
                lambda res, _, want=want: OK
                if res[0] == 0 and res[1]["level"] == want
                else f"deperfect output {res}, expected level {want}",
            )
        )

    act_prec = 9
    for slot in range(16):
        terms = _series_terms(rng, 3, slot, 1 + slot % 4)
        c = (1, -1, 2, -2, 3, -3, 0)[slot % 7]
        a = (1, 2, 4, 5, 7, 8)[slot % 6]
        g = f"tau^{c}*gamma_{a}" if a != 1 else f"tau^{c}"

        def act_judge(res, want):
            code, obj = res
            if code != 0:
                return f"exit {code}"
            got_terms, got_prec = O.from_text(obj["series"])
            if got_prec is None or got_prec < act_prec:
                return f"act output known only to {got_prec}"
            low = {k: v for k, v in got_terms.items() if O.mono_val(*k, 3) < act_prec}
            return OK if low == want else f"act output {obj['series'][:120]} differs below {act_prec}"

        ops.append(
            _cli_op(
                L,
                "cli_act",
                ["act", g, O.to_text(terms), "--prec", str(act_prec)],
                act_judge,
                lambda terms=terms, a=a, c=c: O.tau_image(
                    O.gamma_image(terms, a, 3, act_prec), c, 3, act_prec
                ),
            )
        )

    # sh-test: exact inputs (exit 0 or 1), truncated inputs (exit 2)
    for slot in range(12):
        truncated = slot % 3 == 2
        prec = Fraction(10) if truncated else None
        exps = [1, 2, 3] if truncated else [1, 2, 3, 4, Fraction(1, 3)]
        terms = _tpoly(rng, 3, 1 + slot % 2, exps)
        mu = min(et for _, et in terms) + (slot % 2 if not truncated else 0)
        i_max = 3 + slot % 2
        levels = O.tpoly_levels(terms, 0, i_max, 3)
        allowed = O.sound_verdicts(levels, prec, O.cp(3), mu, 3, 0, L.ring.DEFAULT_DENOM_CAP)
        codes = {{"pass": 0, "fail": 1, "inconclusive": 2}[s] for s in allowed}
        ops.append(
            _cli_op(
                L,
                "cli_sh_test",
                ["sh-test", O.to_text(terms, prec), "--plambda", "3/2", "--mu", _frac(mu)]
                + ["--imax", str(i_max)],
                lambda res, _, codes=codes: OK if res[0] in codes else f"exit {res[0]} not in {sorted(codes)}",
            )
        )
    for slot in range(4):
        terms = _tpoly(rng, 3, 1 + slot % 2, [1, 2, 3, 4])
        s = Fraction(1, 2) if slot % 2 == 0 else Fraction(0)
        refuted, _ = O.refutation(O.tpoly_levels(terms, 0, 5, 3), O.cp(3), s, 3)
        ops.append(
            _cli_op(
                L,
                "cli_refute",
                ["sh-test", O.to_text(terms), "--plambda", f"3/2*p^{{{_frac(s)}}}", "--mu", "0"]
                + ["--imax", "5", "--refute"],
                _expect_exit(0 if refuted else 1),
            )
        )

    for slot in range(8):
        n = slot % 3
        b = rng.choice([b for b in range(1, 9) if b % 3])
        r = Fraction(b, 3**n)
        i_max = 3 + slot % 2
        levels = O.tpoly_levels({(Fraction(0), r): 1}, 0, i_max, 3)
        plam, mu, _ = O.fit(levels, 3)
        ops.append(
            _cli_op(
                L,
                "cli_sh_estimate",
                ["sh-estimate", O.to_text({(Fraction(0), r): rng.randrange(1, 3)}), "--imax", str(i_max)],
                lambda res, _, plam=plam, mu=mu: OK
                if res[0] == 0 and res[1]["plambda_hat"] == _frac(plam) and res[1]["mu_hat"] == _frac(mu)
                else f"sh-estimate output {res}, expected {plam}, {mu}",
            )
        )

    for slot in range(8):
        p, e_k, n = (3, 5, 7)[slot % 3], 1 + rng.randrange(3), rng.randrange(3)
        want = _frac(O.kummer_slope(p, e_k, n))
        ops.append(
            _cli_op(
                L,
                "cli_newton",
                ["newton", "--p", str(p), "--eK", str(e_k), "--n", str(n)],
                lambda res, _, want=want: OK
                if res[0] == 0 and res[1]["elementary"] is True and res[1]["slope"] == want
                else f"newton output {res}, expected slope {want}",
            )
        )

    workdir = Path(workdir)
    for slot in range(6):
        # `module sh` only on the d = 1 files: it re-inverts the lattice
        # for every vector, and at d = 2 one call takes 0.08-0.9 s
        # depending on the draw, enough to decide a seed's figures
        d = 1 + slot % 3
        mod = _generate(L, rng, d, 24, moving=d == 1, sized=(8, 40) if d > 1 else None)
        path = workdir / f"m{slot}.mod"
        path.write_text(P.module_to_text(mod))
        c = rng.choice([2, 3])
        ops.append(
            _cli_op(
                L,
                "cli_module_check",
                ["module", "check", str(path), "--c", str(c)],
                lambda res, _: OK if res[0] == 0 and res[1]["ok"] is True else f"check output {res}",
                shown=["module", "check", path.name, "--c", str(c)],
            )
        )
        if d == 1:
            ops.append(_cli_module_sh_op(L, mod, path))

    bad = [
        lambda: f"t^{{{rng.choice([1, 3, 7])}/{rng.choice([2, 4])}}}",
        lambda: f"{rng.randint(1, 2)}*x",
        lambda: f"u^{{{rng.randint(1, 9)}",
        lambda: f"{rng.randint(1, 2)} t",
        lambda: f"O({rng.randint(1, 9)}) + t",
        lambda: "t + ",
    ]
    for slot in range(6):
        ops.append(_cli_op(L, "cli_malformed", [rng.choice(["eval", "val"]), bad[slot]()], _expect_exit(3)))
    return ops


def _cli_module_sh_op(L, mod, path):
    floor = Fraction(24) - SLACK

    def expect():
        mats = _orbit_mats(L, mod, mod.prec)
        return [
            (
                [min(_min_val(dm.rows[i][j] for i in range(mod.d)) for dm, _ in lv) for lv in mats],
                [min(_min_val(db.rows[i][j] for i in range(mod.d)) for _, db in lv) for lv in mats],
            )
            for j in range(mod.d)
        ]

    def judge(res, want):
        code, obj = res
        if code not in (0, 2):
            return f"exit {code}"
        consistent = True
        for vec, (tau_lv, tilde_lv) in zip(obj["vectors"], want):
            for key, exp in (("basis_levels", tau_lv), ("lattice_levels", tilde_lv)):
                got = [Fraction(v) for v in vec[key]]
                for gv, ev in zip(got, exp):
                    if (ev < floor or gv < floor) and gv != ev:
                        return f"{key} {got} != closed form {exp}"
                consistent = consistent and O.fit(got, 3)[2]
        if obj["consistent"] != consistent or code != (0 if consistent else 2):
            return f"consistent={obj['consistent']} with exit {code}"
        return OK

    return _cli_op(
        L, "cli_module_sh", ["module", "sh", str(path)], judge, expect, shown=["module", "sh", path.name]
    )


WORKLOADS = {"orbit": orbit_ops, "module": module_ops, "cli": cli_ops}
