"""Étale (phi,tau)-module matrices: cocycles, base-change test data,
the basis and lattice valuations, and the fixed-point descent series.

All test modules here arise by base change of the trivial module along
B in GL_d(kappa[t, 1/t]): P = B^{-1} phi(B), Mat(tau) = B^{-1} tau(B).
The cocycle P phi(Mat(g)) = Mat(g) (g.P) then holds by construction,
which gives every downstream computation a built-in oracle.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from . import galois, holder, ring
from .errors import DegenerateOrbit, NonConvergence, ParseError, PrecisionRequired, PreconditionViolated
from .galois import GroupElem
from .holder import PPow
from .ring import PerfSeries


@dataclass(frozen=True)
class MatSeries:
    """A d x d matrix of series over one (p, cap)."""

    d: int
    rows: tuple[tuple[PerfSeries, ...], ...]

    @property
    def p(self):
        return self.rows[0][0].p

    @property
    def cap(self):
        return self.rows[0][0].cap

    @staticmethod
    def from_rows(rows):
        rows = tuple(tuple(r) for r in rows)
        return MatSeries(len(rows), rows)

    @staticmethod
    def identity(d, p, cap=ring.DEFAULT_DENOM_CAP, prec=None):
        return MatSeries.from_rows(
            [
                [ring.one(p, cap).truncate(prec) if i == j else ring.zero(p, cap, prec) for j in range(d)]
                for i in range(d)
            ]
        )

    def map(self, fn):
        return MatSeries.from_rows([[fn(e) for e in row] for row in self.rows])

    def __add__(self, other):
        return MatSeries.from_rows(
            [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)]
        )

    def __sub__(self, other):
        return MatSeries.from_rows(
            [[a - b for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)]
        )

    def __mul__(self, other):
        cols = tuple(zip(*other.rows))
        return MatSeries.from_rows(
            [[ring.dot(zip(row, col)) for col in cols] for row in self.rows]
        )

    def vecmul(self, coords):
        return tuple(ring.dot([(x, coords[l]) for l, x in enumerate(row)]) for row in self.rows)

    def scale_series(self, s: PerfSeries):
        return self.map(lambda e: s * e)

    def truncate(self, prec):
        bound = ring.key_bound(prec, self.p, self.cap)
        return self.map(lambda e: e.cut(bound))

    def val_floor(self):
        """min over entries of the certified valuation bound."""
        return holder.min_known(e.val_floor() for row in self.rows for e in row)

    def is_zero(self):
        return all(e.is_zero() for row in self.rows for e in row)

    def frobenius(self):
        return self.map(ring.frobenius)

    def act(self, g: GroupElem, prec=None):
        bound = ring.key_bound(prec, self.p, self.cap)
        return self.map(lambda e: galois._act(g, e, bound))

    def det(self) -> PerfSeries:
        """Cofactor expansion along the first row, each minor expanded
        along its own first row with the sign of its column's position.

        Every minor is computed once (`_minors`).  The rows of each minor
        are a suffix of 0..d-1, so there are 2^d minors and
        d 2^(d-1) - d series products, against about (e-1) d! for the
        plain recursion, and each minor's products are summed by one
        `ring.dot`, normalized once.  Nothing is divided, so the O(.) caps
        are those of the plain recursion exactly.
        """
        full = tuple(range(self.d))
        return _minors(self.rows)(full, full)

    def adjugate(self):
        """Transposed cofactor matrix.  Cofactor (i, j) is the minor on
        rows != i and columns != j, expanded as in `det`, and the cofactors
        share their minors: 810 series products at d = 6 and 5,544 at
        d = 8, against 7,380 and 554,176 for the plain recursion.  Each
        minor is one normalization (`ring.dot`)."""
        return self._adjugate(_minors(self.rows))

    def inverse(self, prec=None):
        """adj(M) det(M)^{-1} to prec.  The determinant's first-row minors
        are the cofactors (0, j), so det and adjugate share one table: the
        minors take 816 series products at d = 6 and 5,552 at d = 8,
        against 8,616 and 623,456 for the plain recursion.  Each minor is
        one normalization (`ring.dot`)."""
        minor = _minors(self.rows)
        full = tuple(range(self.d))
        detinv = ring.invert(minor(full, full), prec)
        return self._adjugate(minor).scale_series(detinv).truncate(prec)

    def _adjugate(self, minor):
        d = self.d
        if d == 1:
            return MatSeries.from_rows([[ring.one(self.p, self.cap).cut(self.rows[0][0].bound)]])
        full = tuple(range(d))
        cof = []
        for i in range(d):
            r = full[:i] + full[i + 1 :]
            row = []
            for j in range(d):
                c = minor(r, full[:j] + full[j + 1 :])
                if (i + j) % 2 == 1:
                    c = -c
                row.append(c)
            cof.append(row)
        # adjugate is the transposed cofactor matrix
        return MatSeries.from_rows([[cof[j][i] for j in range(d)] for i in range(d)])


def _minors(rows):
    """minor(R, C): the determinant of the submatrix on row tuple R and
    column tuple C, expanded along R's first row; memoized, so that each
    minor costs one product per column once its own minors are known.
    Each minor is one alternating `ring.dot`, normalized once."""
    table = {}

    def minor(r, c):
        key = (r, c)
        if key in table:
            return table[key]
        if len(r) == 1:
            val = rows[r[0]][c[0]]
        else:
            top, rest = rows[r[0]], r[1:]
            val = ring.dot(
                [(top[col], minor(rest, c[:k] + c[k + 1 :])) for k, col in enumerate(c)],
                alternating=True,
            )
        table[key] = val
        return val

    return minor


@dataclass(frozen=True)
class PhiTauModule:
    """dimension d, Frobenius matrix P over kappa((t)), tau-matrix over the
    bivariate ring, optional stable lattice basis W (columns)."""

    d: int
    p: int
    cap: int
    prec: Fraction
    frob: MatSeries  # P = Mat(phi), pure-t integer exponents
    mat_tau: MatSeries
    lattice: MatSeries | None = None
    lattice_inv: MatSeries | None = None

    def lattice_inverse(self):
        if self.lattice is None:
            raise PreconditionViolated("module has no lattice")
        if self.lattice_inv is not None:
            return self.lattice_inv
        return self.lattice.inverse(self.prec)


def _check_pure_t(mat: MatSeries):
    for row in mat.rows:
        for e in row:
            scale = e.p**e.cap
            for m, _ in e.terms:
                a, b = ring.mono_units(m, e.p)
                if a or b % scale:
                    raise PreconditionViolated(
                        "Frobenius matrix must have pure-t integer exponents"
                    )


def make_module(frob, mat_tau, prec, lattice=None, lattice_inv=None):
    """The module, checked: P has pure-t integer exponents and a dominant
    leading determinant, the cocycle holds for tau, and prec > 0 (at
    prec <= 0 nothing of Mat(tau) is known, so every check is vacuous)."""
    if Fraction(prec) <= 0:
        raise ValueError(f"module precision must be > 0, got prec={prec}")
    d = frob.d
    p, cap = frob.p, frob.cap
    _check_pure_t(frob)
    mod = PhiTauModule(d, p, cap, Fraction(prec), frob, mat_tau, lattice, lattice_inv)
    # etaleness: dominant-leading determinant
    ring.invert(frob.det(), mod.prec)
    ok, _ = cocycle_check(mod, galois.tau(1))
    if not ok:
        raise PreconditionViolated("cocycle P phi(Mat tau) = Mat tau tau(P) fails")
    return mod


# -- cocycle ----------------------------------------------------------


def mat_of(module: PhiTauModule, g: GroupElem) -> MatSeries:
    """Matrix of tau^c gamma_a on the module basis, to the module's
    precision.

    Only the tau component contributes: Mat(gamma_a) = Id by the
    invariance condition in the module definition.  Composite powers use
    the cocycle Mat(tau^(a+b)) = Mat(tau^a) * tau^a(Mat(tau^b)) along the
    base-p digits of c: level i holds Mat(tau^(e p^i)) for the digits
    e = 1..p-1, each raised by square-and-multiply from Mat(tau^(p^i)),
    and the step e = p is the next level's generator.  In characteristic
    p, (1+u)^(p^i) = 1 + u^(p^i), so Mat(tau^(p^i)) - Id gains valuation
    at every level and tau^(e p^i) acts on an entry through a sparse
    Lucas expansion; a binary chain's Mat(tau^2), Mat(tau^4), ... gain
    neither.  The digits combine from the lowest level up, and a negative
    c inverts tau^c applied to Mat(tau^(-c)).

    When Mat(tau) is integral and known to the module's precision, any
    chain gives the same series; where an entry has negative valuation,
    each product lowers the O(.) caps by its factors' leading terms, so
    the caps depend on the chain.
    """
    return _TauChain(module).mat(g.c)


class _TauChain:
    """Mat(tau^c) for the c asked of one call.  The level matrices
    Mat(tau^(e p^i)) are memoized by (i, e), so a sweep over
    tau^(m p^(k+i)) builds each level once, from the level below."""

    def __init__(self, module: PhiTauModule):
        self.module = module
        self.units = {(0, 1): module.mat_tau.truncate(module.prec)}

    def _compose(self, mat_a, a, mat_b):
        """Mat(tau^(a+b)) = Mat(tau^a) * tau^a(Mat(tau^b))."""
        prec = self.module.prec
        return (mat_a * mat_b.act(galois.tau(a), prec)).truncate(prec)

    def unit(self, i, e):
        """Mat(tau^(e p^i)) for 1 <= e <= p, by square-and-multiply."""
        key = (i, e)
        if key not in self.units:
            p = self.module.p
            if e == 1:
                val = self.unit(i - 1, p)
            elif e % 2:
                val = self._compose(self.unit(i, e - 1), (e - 1) * p**i, self.unit(i, 1))
            else:
                half = self.unit(i, e // 2)
                val = self._compose(half, e // 2 * p**i, half)
            self.units[key] = val
        return self.units[key]

    def mat(self, c):
        """Mat(tau^c), to the module's precision."""
        mod = self.module
        if c == 0:
            return MatSeries.identity(mod.d, mod.p, mod.cap, mod.prec)
        if c < 0:
            return self.mat(-c).act(galois.tau(c), mod.prec).inverse(mod.prec)
        # acc = Mat(tau^n) for n the digits of c below level i
        acc = None
        i = 0
        while c:
            c, e = divmod(c, mod.p)
            if e:
                high = self.unit(i, e)
                acc = high if acc is None else self._compose(high, e * mod.p**i, acc)
            i += 1
        return acc


def cocycle_check(module: PhiTauModule, g: GroupElem):
    """Residual of P phi(Mat(g)) - Mat(g) (g.P) to the module's
    precision; returns (ok, floor)."""
    prec = module.prec
    mat_g = mat_of(module, g)
    lhs = module.frob.truncate(prec) * mat_g.frobenius()
    rhs = mat_g * module.frob.act(g, prec)
    resid = (lhs - rhs).truncate(prec)
    return resid.is_zero(), resid.val_floor()


# -- base-change test data --------------------------------------------


def basechange_generate(
    d: int,
    seed: int,
    complexity: int = 2,
    p: int = 3,
    cap: int = ring.DEFAULT_DENOM_CAP,
    prec=24,
) -> PhiTauModule:
    """A module that is the trivial one in disguise: draw B in GL_d over
    kappa[t, 1/t] as a product of elementary and unit-diagonal factors,
    then P = B^{-1} phi(B), Mat(tau) = B^{-1} tau(B), lattice W = B^{-1}.
    """
    ring.check_ring(p, cap)
    if d < 1:
        raise ValueError("dimension must be >= 1")
    rng = random.Random(seed)
    ident = MatSeries.identity(d, p, cap)
    b = ident
    binv = ident
    n_factors = max(1, complexity + d - 1)
    for _ in range(n_factors):
        kind = rng.choice(["elem", "diag"] if d > 1 else ["diag"])
        if kind == "elem":
            i = rng.randrange(d)
            j = rng.randrange(d - 1)
            if j >= i:
                j += 1
            c = rng.randrange(1, p)
            e = rng.randint(0, complexity)
            f = ring.monomial(p, cap, c, 0, e)
            fac, inv = _with_entry(ident, i, j, f), _with_entry(ident, i, j, -f)
        else:
            i = rng.randrange(d)
            c = rng.randrange(1, p)
            e = rng.choice([-1, 0, 0, 1])
            fac = _with_entry(ident, i, i, ring.monomial(p, cap, c, 0, e))
            inv = _with_entry(ident, i, i, ring.monomial(p, cap, pow(c, -1, p), 0, -e))
        b = b * fac
        binv = inv * binv
    return basechange_from_matrix(b, binv, prec)


def _with_entry(m: MatSeries, i, j, x) -> MatSeries:
    """m with entry (i, j) replaced by x."""
    rows = [list(row) for row in m.rows]
    rows[i][j] = x
    return MatSeries.from_rows(rows)


def basechange_from_matrix(b: MatSeries, binv: MatSeries, prec) -> PhiTauModule:
    """Base-change module from an explicit B with known exact inverse."""
    frob = binv * b.frobenius()
    mat_tau = (binv * b.act(galois.tau(1), Fraction(prec))).truncate(prec)
    return make_module(frob, mat_tau, prec, lattice=binv, lattice_inv=b)


# -- the two valuations -----------------------------------------------


def v_tau(coords) -> Fraction | None:
    """min of coordinate valuations; None marks an all-unknown vector
    (bounded below by the precision caps)."""
    return holder.min_known(c.val() for c in coords)


def _certified_val(diff: MatSeries) -> Fraction | None:
    """val(diff) when a known entry term attains its floor, else None: a
    floor that only an O(.) cap sets vanished to precision."""
    known = v_tau(e for row in diff.rows for e in row)
    return known if known == diff.val_floor() else None


def v_tilde(module: PhiTauModule, coords) -> Fraction | None:
    """Valuation after re-expressing the vector in the lattice basis."""
    w_inv = module.lattice_inverse()
    return v_tau(w_inv.vecmul(coords))


def module_act(module: PhiTauModule, g: GroupElem, coords):
    """Semilinear action on coordinates, Mat(g) . (g applied entrywise),
    to the module's precision."""
    acted = tuple(galois.act(g, c, module.prec) for c in coords)
    return mat_of(module, g).vecmul(acted)


def _sample_coords(module, rng):
    d, p, cap = module.d, module.p, module.cap
    out = []
    for _ in range(d):
        if rng.random() < 0.2:
            out.append(ring.zero(p, cap, module.prec))
            continue
        coeff = rng.randrange(1, p)
        eu = Fraction(rng.randint(0, 2), p ** rng.randint(0, 2))
        et = Fraction(rng.randint(-2, 4), p ** rng.randint(0, 1))
        out.append(ring.monomial(p, cap, coeff, eu, et, module.prec))
    return tuple(out)


def equiv_constant(module: PhiTauModule, samples=40, seed=0):
    """Largest observed |v_tau - v_tilde| over sampled coordinate vectors,
    together with the analytic bound max(-val(W), -val(W^{-1}))."""
    rng = random.Random(seed)
    w = module.lattice
    if w is None:
        raise PreconditionViolated("module has no lattice")
    w_inv = module.lattice_inverse()
    bound = max(-w.val_floor(), -w_inv.val_floor(), Fraction(0))
    best = Fraction(0)
    for _ in range(samples):
        coords = _sample_coords(module, rng)
        vt = v_tau(coords)
        vtd = v_tau(w_inv.vecmul(coords))
        if vt is None or vtd is None:
            continue
        best = max(best, abs(vt - vtd))
    return best, bound


# -- descent ----------------------------------------------------------


@dataclass(frozen=True)
class DescentReport:
    """H with Mat(tau^c) = Id + t^r H, to the target or to the residual
    where the module's precision ran out.  `reached` says which: the last
    residual is None (the step was exactly zero) or at least the target."""

    r: int
    h: MatSeries
    iterations: int
    residual_val: Fraction | None
    q_val: Fraction
    residual_history: tuple
    c: int
    reached: bool


def descend(module: PhiTauModule, target, r=None, c=None) -> tuple[DescentReport, bool]:
    """Recover Mat(tau^c) = Id + t^r H on the integral twist of `module`
    to `target`, and check H against Mat(tau^c) - Id directly; returns
    (report, matches_direct).

    r defaults to the least adequate radius and c to p^l for the least
    adequate level l.  P is inverted once: the radius reads its floor, and
    the fixed point takes (g.P)^{-1} as g(P^{-1}).  One chain serves the
    level search, the fixed point and the direct check.  A target <= 0 or
    an r < 1 raises ValueError.
    """
    target = Fraction(target)
    if target <= 0:
        raise ValueError(f"need target > 0, got {target}")
    if r is not None and r < 1:
        raise ValueError(f"need r >= 1, got r={r}")
    module = integral_twist(module)
    p_inv = _p_inverse(module)
    r = _radius(p_inv, r)
    chain = _TauChain(module)
    if c is None:
        c = module.p ** _least_level(chain, r)
    mat_g = chain.mat(c)
    rep = _fixed_point(module, galois.tau(c), r, target, p_inv, mat_g)
    return rep, _matches_direct(module, mat_g, rep, target)


def integral_twist(module: PhiTauModule) -> PhiTauModule:
    """Rescale the basis by t^s, s >= 0 least, so that P becomes integral.

    On the twisted basis P' = t^(s(p-1)) P, and Mat'(tau^c) picks up the
    unit scalar tau^c(t^s) t^{-s} = eps^(cs); for the generator this is
    Mat(tau) * (1+u)^s.  The lattice basis rescales by t^{-s}.
    """
    p, cap = module.p, module.cap
    floor = module.frob.val_floor()
    s = 0
    while s * (p - 1) + floor < 0:
        s += 1
    if s == 0:
        return module
    t_up = ring.monomial(p, cap, 1, 0, s * (p - 1))
    frob = module.frob.scale_series(t_up)
    unit = galois.eps_pow(s, p, cap, module.prec)
    mat_tau = module.mat_tau.scale_series(unit).truncate(module.prec)
    lattice = lattice_inv = None
    if module.lattice is not None:
        t_dn = ring.monomial(p, cap, 1, 0, -s)
        lattice = module.lattice.scale_series(t_dn)
        if module.lattice_inv is not None:
            lattice_inv = module.lattice_inv.scale_series(
                ring.monomial(p, cap, 1, 0, s)
            )
    return PhiTauModule(
        module.d, p, cap, module.prec, frob, mat_tau, lattice, lattice_inv
    )


def _p_inverse(module: PhiTauModule) -> MatSeries:
    prec = module.prec
    return module.frob.truncate(prec).inverse(prec)


def minimal_descent_radius(module: PhiTauModule) -> int:
    """Least r >= 1 with t^r P^{-1} in t * (integral matrices)."""
    return _radius(_p_inverse(module))


def _radius(p_inv: MatSeries, r: int | None = None) -> int:
    """r, checked to put t^r P^{-1} in t * (integral matrices), or the
    least such r >= 1 when r is None."""
    floor = p_inv.val_floor()
    if floor is None:
        raise PrecisionRequired("P^{-1} vanishes to precision")
    if r is None:
        return max(1, math.ceil(1 - floor))
    if r + floor < 1:
        raise PreconditionViolated(f"t^{r} P^-1 is not in t * integral matrices")
    return r


MAX_DESCENT_LEVEL = 12
MAX_DESCENT_ITERATIONS = 200


def minimal_descent_level(module: PhiTauModule, r: int) -> int:
    """Least l <= MAX_DESCENT_LEVEL with val(Mat(tau^(p^l)) - Id) >= r * val(t)."""
    return _least_level(_TauChain(module), r)


def _least_level(chain: _TauChain, r: int) -> int:
    """The level search on one chain, so Mat(tau^(p^(l+1))) comes from
    level l's matrices, and Mat(tau^(p^l)) stays in the chain."""
    p = chain.module.p
    for l in range(MAX_DESCENT_LEVEL + 1):
        if _deviation(chain.module, chain.mat(p**l), p**l, r) is None:
            return l
    raise PreconditionViolated(f"no level <= {MAX_DESCENT_LEVEL} brings Mat(g) within t^{r}")


def _deviation(module: PhiTauModule, mat_g: MatSeries, c: int, r: int) -> Fraction | None:
    """None when val(Mat(tau^c) - Id) >= r is certified, else that
    valuation, attained by a known term.  A floor below r that only an
    O(.) cap sets vanished to precision and raises DegenerateOrbit: the
    `_certified_val` rule by which a `matrix_sh_test` sample vanishes,
    though there `holder.fit_levels` picks the error by level."""
    diff = mat_g - MatSeries.identity(module.d, module.p, module.cap, module.prec)
    floor = diff.val_floor()
    if floor is None or floor >= r:
        return None
    if _certified_val(diff) is None:
        raise DegenerateOrbit(f"Mat(tau^{c}) - Id vanishes to precision below t^{r}")
    return floor


def descend_fixed_point(
    module: PhiTauModule,
    g: GroupElem,
    r: int,
    target_prec,
) -> DescentReport:
    """`descend`'s fixed point for a given g and r on an integral module."""
    p_inv = _p_inverse(module)
    _radius(p_inv, r)
    return _fixed_point(module, g, r, target_prec, p_inv, mat_of(module, g))


def _fixed_point(module, g, r, target_prec, p_inv, mat_g) -> DescentReport:
    """Solve H = f0 + P phi(H) Q_g by fixed-point iteration, where
    Q_g = t^(r(p-1)) (g.P)^{-1} and f0 = t^(-r) (P (g.P)^{-1} - Id).

    The solution satisfies Mat(g) = Id + t^r H.  Convergence is the
    ultrametric contraction val(X_{j+1} - X_j) >= p val(X_j - X_{j-1})
    + val(P) + val(Q_g), so each step gains at least val(Q_g) > 0.
    """
    target_prec = Fraction(target_prec)
    p, d, cap = module.p, module.d, module.cap
    prec = module.prec
    frob_mat = module.frob.truncate(prec)

    # g is a ring automorphism, so (g.P)^{-1} = g(P^{-1}), with the floor of P^{-1}
    gp_inv = p_inv.act(g, prec)
    dev = _deviation(module, mat_g, g.c, r)
    if dev is not None:
        raise PreconditionViolated(
            f"val(Mat(g) - Id) = {dev} < r = {r}; raise the level of g"
        )

    t_pow = ring.monomial(p, cap, 1, 0, r * (p - 1))
    q_g = gp_inv.scale_series(t_pow)
    q_val = q_g.val_floor()
    if q_val is None:
        raise PrecisionRequired("Q_g vanishes to precision")
    if q_val <= 0:
        raise PreconditionViolated("Q_g is not topologically nilpotent")
    t_neg_r = ring.monomial(p, cap, 1, 0, -r)
    ident = MatSeries.identity(d, p, cap, prec)
    f0 = ((frob_mat * gp_inv) - ident).scale_series(t_neg_r)

    x = f0
    iterations = 0
    residual = None
    history = []
    while iterations < MAX_DESCENT_ITERATIONS:
        nxt = f0 + (frob_mat * x.frobenius() * q_g).truncate(prec)
        delta = nxt - x
        residual = delta.val_floor()
        history.append(residual)
        x = nxt
        iterations += 1
        if delta.is_zero() or (residual is not None and residual >= target_prec):
            break
    else:
        raise NonConvergence(f"no convergence within {MAX_DESCENT_ITERATIONS} iterations")
    reached = residual is None or residual >= target_prec
    return DescentReport(
        r, x.truncate(target_prec), iterations, residual, q_val, tuple(history), g.c, reached
    )


def descent_matches_direct(module, g, report: DescentReport, target_prec) -> bool:
    """Oracle: t^{-r} (Mat(g) - Id) equals the recovered H to target."""
    return _matches_direct(module, mat_of(module, g), report, target_prec)


def _matches_direct(module, mat_g, report: DescentReport, target_prec) -> bool:
    p, cap, d = module.p, module.cap, module.d
    ident = MatSeries.identity(d, p, cap, module.prec)
    t_neg_r = ring.monomial(p, cap, 1, 0, -report.r)
    direct = (mat_g - ident).scale_series(t_neg_r)
    target_prec = Fraction(target_prec)
    # every known term of diff lies below the target, so a floor at the
    # target says diff vanishes there; a difference known only below the
    # target (floor = its cap) certifies nothing at it
    floor = (direct - report.h).truncate(target_prec).val_floor()
    return floor is None or floor >= target_prec


# -- super-Hölder tests on modules ------------------------------------


@dataclass(frozen=True)
class MatrixShReport:
    levels: tuple[Fraction, ...]
    plam_hat: Fraction
    mu_hat: Fraction
    consistent: bool
    status: holder.Status


def matrix_sh_test(module: PhiTauModule, k: int, plam=None, i_max: int = 2) -> MatrixShReport:
    """Measure val(Mat(g) - Id) over the tau family at base level k,
    g = tau^(m p^(k+i)) for m = 1..p-1 and i = 0..i_max, and fit the
    exponent of the matrix-valued orbit map, all to the module's precision.
    One chain builds every Mat(g), each level from the one below.
    When a target p^lambda = q p^s (a `PPow`, or a rational q) is supplied,
    the status records whether the fitted exponent equals it, compared
    exactly by `PPow.cmp`; a target <= 0 raises ValueError.

    A sample counts only when a known entry term attains the difference's
    floor; a difference whose floor is an entry's cap vanished to
    precision, and a level of such samples ends `holder.fit_levels`."""
    if plam is not None:
        plam = PPow.of(plam)
    fam = holder.SubgroupFamily(holder.FamilyKind.TAU, k)
    p, d = module.p, module.d
    ident = MatSeries.identity(d, p, module.cap, module.prec)
    chain = _TauChain(module)

    def measure(g):
        return (_certified_val(chain.mat(g.c) - ident),)

    (levels,) = holder.fit_levels(measure, fam, p, i_max)
    plam_hat, mu_hat, consistent = holder.fit_exponent(levels, p)
    if plam is None:
        status = holder.Status.PASS if consistent else holder.Status.INCONCLUSIVE
    elif consistent and plam.cmp(plam_hat, p) == 0:
        status = holder.Status.PASS
    else:
        status = holder.Status.FAIL
    return MatrixShReport(levels, plam_hat, mu_hat, consistent, status)


@dataclass(frozen=True)
class ModuleShBasisReport:
    j: int
    tau_levels: tuple[Fraction, ...]
    tilde_levels: tuple[Fraction, ...] | None  # None: the module has no lattice
    tau_fit: tuple[Fraction, Fraction, bool]
    tilde_fit: tuple[Fraction, Fraction, bool] | None


def module_sh_test(
    module: PhiTauModule, k: int, n: int = 0, i_max: int = 2
) -> tuple[ModuleShBasisReport, ...]:
    """For each basis vector (scaled by t^(1/p^n) when n >= 1), measure
    val((g-1) x) under both the basis valuation and the lattice valuation
    over the tau family at base level k, g = tau^(m p^(k+i)) for
    m = 1..p-1 and i = 0..i_max, and fit the exponents.  One chain builds
    every Mat(g), each level from the one below.  Without a lattice the
    lattice levels and fit are None.  Both valuations of every basis vector
    are `holder.fit_levels` tracks, and one that vanishes ends the sweep."""
    if n < 0:
        raise ValueError(f"need n >= 0 to scale by t^(1/p^n), got n={n}")
    fam = holder.SubgroupFamily(holder.FamilyKind.TAU, k)
    p, d, cap, prec = module.p, module.d, module.cap, module.prec
    scalar = (
        ring.one(p, cap)
        if n == 0
        else ring.monomial(p, cap, 1, 0, Fraction(1, p**n))
    )
    basis = [tuple(scalar if l == j else ring.zero(p, cap) for l in range(d)) for j in range(d)]
    w_inv = module.lattice_inverse() if module.lattice is not None else None
    chain = _TauChain(module)

    def measure(g):
        # v_tau, then v_tilde when there is a lattice, of (g-1) x for each basis vector x
        mat_g = chain.mat(g.c)
        out = []
        for coords in basis:
            moved = mat_g.vecmul(tuple(galois.act(g, c, prec) for c in coords))
            diff = tuple(a - b.truncate(prec) for a, b in zip(moved, coords))
            out.append(v_tau(diff))
            if w_inv is not None:
                out.append(v_tau(w_inv.vecmul(diff)))
        return out

    levels = holder.fit_levels(measure, fam, p, i_max)
    pairs = zip(levels[::2], levels[1::2]) if w_inv is not None else ((vt, None) for vt in levels)
    return tuple(
        ModuleShBasisReport(
            j, vt, vtd, holder.fit_exponent(vt, p), vtd and holder.fit_exponent(vtd, p)
        )
        for j, (vt, vtd) in enumerate(pairs)
    )


# -- module file format -----------------------------------------------

_HEADER_KEYS = ("p", "d", "prec", "cap")


def module_to_text(module: PhiTauModule) -> str:
    lines = [
        f"p={module.p} d={module.d} prec={module.prec} cap={module.cap}",
        "[P]",
    ]
    for row in module.frob.rows:
        lines.extend(ring.format_series(e) for e in row)
    lines.append("[tau]")
    for row in module.mat_tau.rows:
        lines.extend(ring.format_series(e) for e in row)
    if module.lattice is not None:
        lines.append("[lattice]")
        for row in module.lattice.rows:
            lines.extend(ring.format_series(e) for e in row)
    return "\n".join(lines) + "\n"


def _read_matrix(lines, start, d, p, cap):
    entries = []
    for idx in range(d * d):
        if start + idx >= len(lines):
            raise ParseError("module file truncated inside a matrix block")
        entries.append(ring.parse_series(lines[start + idx], p, cap))
    rows = [entries[i * d : (i + 1) * d] for i in range(d)]
    return MatSeries.from_rows(rows), start + d * d


def _header_int(header, key):
    try:
        return int(header[key])
    except ValueError:
        raise ParseError(f"bad header {key}={header[key]}") from None


def module_from_text(text: str) -> PhiTauModule:
    lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
    if not lines:
        raise ParseError("empty module file")
    header = {}
    for part in lines[0].split():
        if "=" not in part:
            raise ParseError(f"bad header field {part!r}")
        key, _, value = part.partition("=")
        header[key] = value
    missing = [k for k in _HEADER_KEYS if k not in header]
    if missing:
        raise ParseError(f"header missing fields {missing}")
    p = _header_int(header, "p")
    d = _header_int(header, "d")
    cap = _header_int(header, "cap")
    try:
        prec = Fraction(header["prec"])
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"bad header prec={header['prec']}") from None
    try:
        ring.check_ring(p, cap)
    except ValueError as exc:
        raise ParseError(f"header: {exc}") from None
    if d < 1:
        raise ParseError(f"header d={d} must be >= 1")
    if len(lines) < 2 or lines[1] != "[P]":
        raise ParseError("expected [P] section")
    frob, nxt = _read_matrix(lines, 2, d, p, cap)
    if nxt >= len(lines) or lines[nxt] != "[tau]":
        raise ParseError("expected [tau] section")
    mat_tau, nxt = _read_matrix(lines, nxt + 1, d, p, cap)
    lattice = None
    if nxt < len(lines):
        if lines[nxt] != "[lattice]":
            raise ParseError(f"unexpected section {lines[nxt]!r}")
        lattice, nxt = _read_matrix(lines, nxt + 1, d, p, cap)
        if nxt != len(lines):
            raise ParseError("trailing lines after lattice block")
    try:
        return make_module(frob, mat_tau, prec, lattice=lattice)
    except ValueError as exc:
        raise ParseError(f"header: {exc}") from None
