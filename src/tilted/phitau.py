"""Étale (phi,tau)-module matrices: cocycles, base-change test data,
the basis and lattice valuations, and the fixed-point descent series.

All test modules here arise by base change of the trivial module along
B in GL_d(kappa[t, 1/t]): P = B^{-1} phi(B), Mat(tau) = B^{-1} tau(B).
The cocycle P phi(Mat(g)) = Mat(g) (g.P) then holds by construction,
which gives every downstream computation a built-in oracle.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass, field, replace
from fractions import Fraction

from . import errors, galois, holder, ring
from .errors import DegenerateOrbit, NonConvergence, ParseError, PrecisionRequired, PreconditionViolated
from .galois import GroupElem
from .holder import PPow
from .ring import PerfSeries


@dataclass(frozen=True)
class MatSeries:
    """A d x d matrix of series over one (p, cap); d is the number of rows."""

    d: int = field(init=False)
    rows: tuple[tuple[PerfSeries, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "d", len(self.rows))

    @property
    def p(self):
        return self.rows[0][0].p

    @property
    def cap(self):
        return self.rows[0][0].cap

    @staticmethod
    def from_rows(rows):
        rows = tuple(tuple(r) for r in rows)
        return MatSeries(rows)

    @staticmethod
    def identity(d, p, cap=ring.DEFAULT_DENOM_CAP, prec=None):
        one, zero = ring.one(p, cap).truncate(prec), ring.zero(p, cap, prec)
        return MatSeries.from_rows([[one if i == j else zero for j in range(d)] for i in range(d)])

    def map(self, fn):
        return MatSeries.from_rows([[fn(e) for e in row] for row in self.rows])

    def _check_d(self, other):
        """Refuse, with ValueError, a matrix operand of another d."""
        if other.d != self.d:
            raise ValueError(f"a {self.d} x {self.d} matrix cannot meet a {other.d} x {other.d} one")

    def __add__(self, other):
        self._check_d(other)
        return MatSeries.from_rows(
            [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)]
        )

    def __sub__(self, other):
        self._check_d(other)
        return MatSeries.from_rows(
            [[a - b for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)]
        )

    def mul(self, other, prec=None):
        """The product self * other, cut at prec inside each entry's
        `ring.dot`: (self * other).truncate(prec), with no pair formed
        that the cut drops.  An other of another d raises ValueError."""
        self._check_d(other)
        bound = ring.key_bound(prec, self.p, self.cap)
        cols = tuple(zip(*other.rows))
        return MatSeries.from_rows(
            [[ring.dot(zip(row, col), cut=bound) for col in cols] for row in self.rows]
        )

    def __mul__(self, other):
        return self.mul(other)

    def vecmul(self, coords):
        """self * coords for a vector of d series; another length raises
        ValueError."""
        if len(coords) != self.d:
            raise ValueError(f"a {self.d} x {self.d} matrix takes {self.d} coordinates, got {len(coords)}")
        return tuple(ring.dot([(x, coords[l]) for l, x in enumerate(row)]) for row in self.rows)

    def scale_series(self, s: PerfSeries):
        """s * self; an exact one-term s, a monomial such as t^r, shifts
        each entry (`PerfSeries.mono_shift`), which gives that product."""
        if s.bound is None and len(s.terms) == 1:
            ((mono, coeff),) = s.terms
            return self.map(lambda e: e.mono_shift(mono, coeff))
        return self.map(lambda e: s * e)

    def truncate(self, prec):
        bound = ring.key_bound(prec, self.p, self.cap)
        return self.map(lambda e: e.cut(bound))

    def val_floor(self):
        """min over entries of the certified valuation bound, read off the
        least key floor (leading key, else key bound; exact zeros
        skipped); None when every entry is the exact zero."""
        least = min(
            (k for row in self.rows for e in row if (k := e.key_floor()) is not None),
            default=None,
        )
        return ring.bound_prec(least, self.p, self.cap)

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
        are a suffix of 0..d-1, so there are at most 2^d minors and
        d 2^(d-1) - d series products, against about (e-1) d! for the
        plain recursion; those counts are the dense worst case, and an
        exact-zero entry drops every product it would enter.  Each
        minor's products are summed by one `ring.dot`, normalized once.
        Nothing is divided, so the O(.) caps are those of the plain
        recursion exactly.
        """
        full = tuple(range(self.d))
        return _minors(self.rows)(full, full)

    def adjugate(self):
        """Transposed cofactor matrix.  Cofactor (i, j) is the minor on
        rows != i and columns != j, expanded as in `det`, and the cofactors
        share their minors: at most 810 series products at d = 6 and 5,544
        at d = 8, the dense worst case, against 7,380 and 554,176 for the
        plain recursion.  Each minor is one normalization (`ring.dot`)."""
        return self._adjugate(_minors(self.rows))

    def inverse(self, prec=None):
        """adj(M) det(M)^{-1} to prec.  The determinant's first-row minors
        are the cofactors (0, j), so det and adjugate share one table: the
        minors take at most 816 series products at d = 6 and 5,552 at
        d = 8, the dense worst case, against 8,616 and 623,456 for the
        plain recursion.  Each minor is one normalization (`ring.dot`), and
        so is each entry det^{-1} adj_ij, cut at prec inside its
        `ring.dot`; an exact-zero cofactor gives the exact zero cut at
        prec, which is that product."""
        minor = _minors(self.rows)
        full = tuple(range(self.d))
        detinv = ring.invert(minor(full, full), prec)
        bound = ring.key_bound(prec, self.p, self.cap)
        return self._adjugate(minor).map(
            lambda e: ring.dot(((detinv, e),), cut=bound) if e.key_floor() is not None else e.cut(bound)
        )

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
                # the exact zero is its own negative
                if (i + j) % 2 == 1 and c.key_floor() is not None:
                    c = -c
                row.append(c)
            cof.append(row)
        # adjugate is the transposed cofactor matrix
        return MatSeries.from_rows([[cof[j][i] for j in range(d)] for i in range(d)])


# det, adjugate and inverse form up to 2^d minors, all of them for a
# dense matrix: on a 2-CPU box a generated module runs each module command
# in under 0.4 s at d = 12, in up to 5 s at d = 16
MAX_DIM = 12
# the factors of `basechange_generate` and the degree of each: on the same
# box 20 takes at most 0.3 s for d <= MAX_DIM, 40 about 6 s at d = 8
MAX_COMPLEXITY = 20


def _check_dim(d):
    """Refuse a dimension outside 1..MAX_DIM with ValueError."""
    if not 1 <= d <= MAX_DIM:
        raise ValueError(f"dimension must be 1..{MAX_DIM}, got d={d}")


@functools.lru_cache(maxsize=8)
def _mask_layout(d):
    """For the column masks of a d x d matrix: each mask's (col, bit, sign)
    triples in ascending column order, sign (-1)^(col's place among the
    mask's columns), and the masks of each size."""
    layout = [
        tuple((col, 1 << col, (-1) ** place) for place, col in enumerate(c for c in range(d) if m >> c & 1))
        for m in range(1 << d)
    ]
    by_size = [[] for _ in range(d + 1)]
    for m, cols in enumerate(layout):
        by_size[len(cols)].append(m)
    return layout, by_size


def _minors(rows):
    """minor(R, C): the determinant of the submatrix on row tuple R and
    column tuple C, expanded along R's first row.

    The table keeps one list per row tuple R, indexed by column mask, and
    fills it for every mask of R's size at R's first request, from the
    list of R[1:]: the cofactors of `adjugate` ask for all of them, and
    `det`'s row tuples are suffixes, which ask for all of them too.  Each
    minor is formed from its live pairs alone: an entry of R's first row
    that is not the exact zero times a formed minor of R[1:].  A zero
    known modulo O(q) is live, since its cap bounds the minor; a pair with
    an exact-zero side adds no term and no cap, so the terms and caps are
    those of a memoized recursion on (R, C).  A minor with no live pair is
    the exact zero and is not formed (None in the list): `minor` gives one
    shared exact zero for it.  Each formed minor is one signed `ring.dot`
    over its live columns in ascending order, normalized once.  A dense
    matrix, with no exact zero, is the worst case: every minor is formed,
    at one product per column."""
    _check_dim(len(rows))
    layout, by_size = _mask_layout(len(rows))
    zero = ring.zero(rows[0][0].p, rows[0][0].cap)
    # None for an exact-zero entry
    live = [[e if e.key_floor() is not None else None for e in row] for row in rows]
    tables = {}

    def table(r):
        out = tables.get(r)
        if out is None:
            out = [None] * len(layout)
            top = live[r[0]]
            if len(r) == 1:
                for col, bit, _ in layout[-1]:
                    out[bit] = top[col]
            else:
                sub = table(r[1:])
                for m in by_size[len(r)]:
                    pairs, signs = [], []
                    for col, bit, sign in layout[m]:
                        x = top[col]
                        if x is not None:
                            y = sub[m ^ bit]
                            if y is not None:
                                pairs.append((x, y))
                                signs.append(sign)
                    if pairs:
                        out[m] = ring.dot(pairs, signs=signs)
            tables[r] = out
        return out

    def minor(r, c):
        val = table(r)[sum(1 << col for col in c)]
        return zero if val is None else val

    return minor


@dataclass(frozen=True)
class PhiTauModule:
    """Frobenius matrix P over kappa((t)), tau-matrix over the bivariate
    ring, both to the precision prec, and an optional stable lattice basis
    W (columns) with an optional W^{-1}.  The rank d, p and cap are P's.

    The record checks its own shape, however it is built (`make_module`,
    `integral_twist`, `dataclasses.replace`): prec > 0; P, Mat(tau), W and
    W^{-1}, when given, d x d for d >= 1; every entry over P's p and cap;
    no W^{-1} without W.  Else ValueError.  `make_module` checks the
    mathematics."""

    frob: MatSeries  # P = Mat(phi), pure-t integer exponents
    mat_tau: MatSeries
    prec: Fraction
    lattice: MatSeries | None = None
    lattice_inv: MatSeries | None = None

    def __post_init__(self):
        if Fraction(self.prec) <= 0:
            raise ValueError(f"module precision must be > 0, got prec={self.prec}")
        # store prec as a Fraction (the class is frozen)
        object.__setattr__(self, "prec", Fraction(self.prec))
        d = self.d
        mats = [m for m in (self.frob, self.mat_tau, self.lattice, self.lattice_inv) if m is not None]
        rows = [r for m in mats for r in m.rows]
        if not d or any(m.d != d for m in mats) or any(len(r) != d for r in rows):
            raise ValueError(f"P, Mat(tau) and the lattice must be d x d for P's d={d} >= 1")
        p, cap = self.p, self.cap
        if any(e.p != p or e.cap != cap for r in rows for e in r):
            raise ValueError(f"every matrix entry must be over P's p={p} and cap={cap}")
        if self.lattice_inv is not None and self.lattice is None:
            raise ValueError("lattice_inv needs its lattice")

    @property
    def d(self) -> int:
        return self.frob.d

    @property
    def p(self) -> int:
        return self.frob.p

    @property
    def cap(self) -> int:
        return self.frob.cap

    # The values below are computed on first use and kept for as long as
    # the module lives, outside the fields, equality and hash: the tau
    # chain, P cut at the precision, P^{-1}, W^{-1}, and g.P and g(P^{-1})
    # for each g asked, one d x d matrix per distinct g.  None of them
    # refers back to the module, so reference counting still frees it;
    # the chain and the two images fill their tables in place, so the memo
    # is not thread-safe.

    @functools.cached_property
    def _tau_chain(self) -> _TauChain:
        """The level matrices Mat(tau^(e p^i)), built as calls ask for them."""
        return _TauChain(self.mat_tau, self.prec)

    @functools.cached_property
    def _frob_cut(self) -> MatSeries:
        """P cut at the module's precision."""
        return self.frob.truncate(self.prec)

    @functools.cached_property
    def _p_inverse(self) -> MatSeries:
        """P^{-1} to the module's precision."""
        return self._frob_cut.inverse(self.prec)

    @functools.cached_property
    def _frob_images(self) -> dict[GroupElem, MatSeries]:
        """g.P to the module's precision, by g (`_frob_image`)."""
        return {}

    @functools.cached_property
    def _p_inverse_images(self) -> dict[GroupElem, MatSeries]:
        """g(P^{-1}) to the module's precision, by g (`_p_inverse_image`)."""
        return {}

    def _frob_image(self, g: GroupElem) -> MatSeries:
        """g.P to the module's precision, acted once per g."""
        return _kept_image(self._frob_images, self._frob_cut, g, self.prec)

    def _p_inverse_image(self, g: GroupElem) -> MatSeries:
        """g(P^{-1}) = (g.P)^{-1} to the module's precision, acted once per g."""
        return _kept_image(self._p_inverse_images, self._p_inverse, g, self.prec)

    @functools.cached_property
    def _lattice_inverse(self) -> MatSeries:
        """W^{-1} to the module's precision."""
        return self.lattice.inverse(self.prec)

    def lattice_inverse(self):
        """W^{-1}: `lattice_inv` when given, else W inverted to the module's
        precision once per module."""
        if self.lattice is None:
            raise PreconditionViolated("module has no lattice")
        if self.lattice_inv is not None:
            return self.lattice_inv
        return self._lattice_inverse


def _kept_image(memo: dict, mat: MatSeries, g: GroupElem, prec) -> MatSeries:
    """g(mat) to prec, kept in memo by the whole g, so an approximate g is
    never read as the exact element of its (c, a).  A refused action
    raises and stores nothing, so it raises again on every call."""
    val = memo.get(g)
    if val is None:
        val = memo[g] = mat.act(g, prec)
    return val


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
    """The module, checked.  The record refuses a bad shape with ValueError
    (`PhiTauModule`), prec <= 0 among them: there nothing of Mat(tau) is
    known, so every check below would be vacuous.  Then the mathematics: P
    has pure-t integer exponents and a dominant leading determinant,
    W W^-1 - Id has no known term below prec when W^-1 is given, and the
    cocycle holds for tau."""
    mod = PhiTauModule(frob, mat_tau, prec, lattice, lattice_inv)
    _check_pure_t(frob)
    if lattice_inv is not None:
        if not (lattice.mul(lattice_inv, mod.prec) - MatSeries.identity(mod.d, mod.p, mod.cap)).is_zero():
            raise PreconditionViolated("lattice_inv is not the inverse of the lattice")
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
    Lucas expansion.  The digits combine from the lowest level up, and c
    is read only below the first generator M that every higher level
    equals: the digits above it fold into one composition with M.

    A negative c takes Mat(tau^c) = tau^c(Mat(tau^(-c))^{-1}): the inverse
    of the positive power, then the action, which skips the minors of the
    denser acted matrix.  tau keeps every leading monomial and every O(.)
    cap, so products, sums, cuts and `ring.invert` commute with it term
    for term and cap for cap, and this order gives the same series as
    inverting tau^c(Mat(tau^(-c))).  That holds for a matrix already cut
    at the precision, as every chain matrix is: on an uncut one, the
    action turns an exact zero into O(prec), and the inverse would then
    raise PrecisionRequired where the other order raises ZeroDivisor.

    When Mat(tau) is integral and known to the module's precision, any
    chain gives the same series; where an entry has negative valuation,
    each product lowers the O(.) caps by its factors' leading terms, so
    the caps depend on the chain.

    The level matrices are the module's own: built on the first call that
    needs them and kept for every later call on the same module, so a
    sweep, the cocycle check and the descent share them.  So are Id, the
    matrix of c = 0 that every `Mat(g) - Id` reads, and Mat(tau^c) for
    each c < 0 asked, inverted once per module.
    """
    return module._tau_chain.mat(g.c)


class _TauChain:
    """The level matrices Mat(tau^(e p^i)) of one module, memoized by
    (i, e) for as long as the module lives, so every call builds each
    level at most once, from the level below; and, by c, Id for c = 0 and
    Mat(tau^c) for each c < 0 asked, so neither is built or inverted
    twice.  The chain keeps Mat(tau) and the precision, not the module."""

    def __init__(self, mat_tau: MatSeries, prec: Fraction):
        self.d, self.p, self.cap, self.prec = mat_tau.d, mat_tau.p, mat_tau.cap, prec
        self.units = {(0, 1): mat_tau.truncate(prec)}
        self.top = 0  # the highest level whose generator Mat(tau^(p^i)) is built
        self.nonpositive = {}  # Mat(tau^c) for c <= 0, by c

    def _compose(self, mat_a, a, mat_b):
        """Mat(tau^(a+b)) = Mat(tau^a) * tau^a(Mat(tau^b)), cut at the
        precision inside the product."""
        return mat_a.mul(mat_b.act(galois.tau(a), self.prec), self.prec)

    def unit(self, i, e):
        """Mat(tau^(e p^i)) for 1 <= e <= p, by square-and-multiply from
        level i's generator, which `mat` has built."""
        key = (i, e)
        if key not in self.units:
            p = self.p
            if e % 2:
                val = self._compose(self.unit(i, e - 1), (e - 1) * p**i, self.units[i, 1])
            else:
                half = self.unit(i, e // 2)
                val = self._compose(half, e // 2 * p**i, half)
            self.units[key] = val
        return self.units[key]

    def mat(self, c):
        """Mat(tau^c), to the module's precision.

        The generators Mat(tau^(p^(j+1))) = unit(j, p) are built first, in
        a loop up from the highest level built, so no recursion depth
        bounds c.  The loop stops at the level of c's leading digit, or at
        a generator M for which `_is_fixed` holds: every level above M is
        M.  Then c is read only as n = c mod p^(top+1): its digits compose
        from the lowest level up, and the digits above fold into one
        composition, Mat(tau^c) = M tau^(c-n)(Mat(tau^n)): tau fixes M,
        and the caps of M, which `_is_fixed` bounds by K_ik + K_kj >= K_ij,
        make M (M X) cut at the precision equal to M X cut there, caps
        included, for every chain matrix X."""
        p, prec = self.p, self.prec
        if c <= 0:
            val = self.nonpositive.get(c)
            if val is None:
                if c == 0:
                    val = MatSeries.identity(self.d, p, self.cap, prec)
                else:
                    # the chain's matrices are cut at prec, so tau^c
                    # commutes with the inverse (see `mat_of`)
                    val = self.mat(-c).inverse(prec).act(galois.tau(c), prec)
                self.nonpositive[c] = val
            return val
        place = p ** (self.top + 1)
        while place <= c and not _is_fixed(self.units[self.top, 1]):
            self.units[self.top + 1, 1] = self.unit(self.top, p)
            self.top += 1
            place *= p
        low = c % place
        # acc = Mat(tau^n) for n the digits of low below level i
        acc, rest, i = None, low, 0
        while rest:
            rest, e = divmod(rest, p)
            if e:
                high = self.unit(i, e)
                acc = high if acc is None else self._compose(high, e * p**i, acc)
            i += 1
        if low == c:
            return acc
        fixed = self.units[self.top, 1]
        return fixed if acc is None else self._compose(fixed, c - low, acc)


def _is_fixed(mat: MatSeries) -> bool:
    """mat tau^a(mat), cut at the precision, is mat, caps included, when mat
    has Id's terms and key bounds with K_ik + K_kj >= K_ij: tau fixes those
    terms and caps, and `ring.dot` caps the product's entry (i, j) at K_ij
    and the sums K_ik + K_kj for k != i, j."""
    span = range(mat.d)
    rows = mat.rows
    one = ((ring.MONO_ONE, 1),)
    if any(rows[i][j].terms != (one if i == j else ()) for i in span for j in span):
        return False
    caps = [[e.bound for e in row] for row in rows]
    return all(caps[i][k] + caps[k][j] >= caps[i][j] for i in span for j in span for k in span)


def cocycle_check(module: PhiTauModule, g: GroupElem):
    """Residual of P phi(Mat(g)) - Mat(g) (g.P) to the module's
    precision; returns (ok, floor).

    Each residual entry (i, j) is one `ring.dot` over the 2d interleaved
    pairs (P_ik, phi(Mat g)_kj) and (Mat(g)_ik, (g.P)_kj), signed 1, -1, cut
    at the precision: its cap is the least over all pairs and its
    coefficients add mod p, so the entry is that of
    (lhs - rhs).truncate(prec), with no lhs, rhs, negated or difference
    matrix built.  P cut at the precision and g.P are the module's own,
    acted once per g."""
    prec = module.prec
    mat_g = mat_of(module, g)
    bound = ring.key_bound(prec, module.p, module.cap)
    signs = (1, -1) * module.d
    phi_cols = tuple(zip(*mat_g.frobenius().rows))
    gp_cols = tuple(zip(*module._frob_image(g).rows))
    resid = MatSeries.from_rows(
        [
            [
                ring.dot(
                    [
                        pair
                        for a, x, b, y in zip(frob_row, phi_col, mat_row, gp_col)
                        for pair in ((a, x), (b, y))
                    ],
                    signs=signs,
                    cut=bound,
                )
                for phi_col, gp_col in zip(phi_cols, gp_cols)
            ]
            for frob_row, mat_row in zip(module._frob_cut.rows, mat_g.rows)
        ]
    )
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
    Each factor acts on B and B^{-1} as a column and a row operation: the
    elementary Id + f E_ij adds f (column i) to column j of B and takes
    f (row j) from row i of B^{-1}, and the diagonal factor scales column
    i of B and row i of B^{-1} by inverse monomials.  All of it is exact,
    so B and B^{-1} are the products themselves.  A d outside 1..MAX_DIM
    or a complexity outside 0..MAX_COMPLEXITY raises ValueError before
    any matrix is built.
    """
    ring.check_ring(p, cap)
    _check_dim(d)
    if not 0 <= complexity <= MAX_COMPLEXITY:
        raise ValueError(f"complexity must be 0..{MAX_COMPLEXITY}, got {complexity}")
    rng = random.Random(seed)
    ident = MatSeries.identity(d, p, cap).rows
    b = [list(row) for row in ident]
    binv = [list(row) for row in ident]
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
            for row in b:
                row[j] = row[j] + f * row[i]
            binv[i] = [x - f * y for x, y in zip(binv[i], binv[j])]
        else:
            i = rng.randrange(d)
            c = rng.randrange(1, p)
            e = rng.choice([-1, 0, 0, 1])
            f = ring.monomial(p, cap, c, 0, e)
            finv = ring.monomial(p, cap, pow(c, -1, p), 0, -e)
            for row in b:
                row[i] = f * row[i]
            binv[i] = [finv * x for x in binv[i]]
    return basechange_from_matrix(MatSeries.from_rows(b), MatSeries.from_rows(binv), prec)


def basechange_from_matrix(b: MatSeries, binv: MatSeries, prec) -> PhiTauModule:
    """Base-change module from an explicit B with known exact inverse."""
    frob = binv * b.frobenius()
    mat_tau = binv.mul(b.act(galois.tau(1), Fraction(prec)), prec)
    return make_module(frob, mat_tau, prec, lattice=binv, lattice_inv=b)


# -- the two valuations -----------------------------------------------


def v_tau(coords) -> Fraction | None:
    """The basis valuation: the least valuation of the series `coords`
    when a known term attains their floor, else None.  Exact zeros are
    skipped, and a floor that only an O(.) cap sets vanished to
    precision, so it certifies no value.  Floors compare as keys, where a
    known term sorts before a cap of the same key: (O(5), t^5) has
    valuation 5, and (O(1), t^5) none."""
    coords = tuple(coords)
    key, capped = min(
        ((k, not c.terms) for c in coords if (k := c.key_floor()) is not None), default=(None, True)
    )
    return None if capped else ring.bound_prec(key, coords[0].p, coords[0].cap)


def v_tilde(module: PhiTauModule, coords) -> Fraction | None:
    """Valuation after re-expressing the vector in the lattice basis:
    `v_tau` of W^{-1} x."""
    w_inv = module.lattice_inverse()
    return v_tau(w_inv.vecmul(coords))


def module_act(module: PhiTauModule, g: GroupElem, coords):
    """Semilinear action on coordinates, Mat(g) . (g applied entrywise),
    to the module's precision."""
    acted = tuple(galois.act(g, c, module.prec) for c in coords)
    return mat_of(module, g).vecmul(acted)


def equiv_constant(module: PhiTauModule) -> tuple[Fraction, tuple[PerfSeries, ...]]:
    """(C, x): the least C with |v_tau(y) - v_tilde(y)| <= C for every y,
    and a vector x whose gap is C.

    C = max(-val W^{-1}, -val W), which is >= 0 since
    val W + val W^{-1} <= val Id = 0.  At x = e_k, v_tilde - v_tau is the
    valuation of column k of W^{-1}; at x = W e_k, v_tau - v_tilde is that
    of column k of W.  So a column of least valuation names the witness,
    e_k or W e_k.  Every valuation is `v_tau`'s: a least floor that only
    an O(.) cap sets raises PrecisionRequired."""
    w_inv = module.lattice_inverse()
    w_cols = tuple(zip(*module.lattice.rows))
    units = MatSeries.identity(module.d, module.p, module.cap).rows
    # (column, x) for x = e_k against W^{-1}'s columns, x = W e_k against W's
    pairs = (*zip(zip(*w_inv.rows), units), *zip(w_cols, w_cols))
    least = v_tau(e for col, _ in pairs for e in col)
    if least is None:
        raise PrecisionRequired("the least valuation of W and W^{-1} is only an O(.) cap")
    return -least, next(x for col, x in pairs if v_tau(col) == least)


# -- descent ----------------------------------------------------------


@dataclass(frozen=True)
class DescentReport:
    """H with Mat(tau^c) = Id + t^r H, to the target or to the residual
    where the module's precision ran out.  `reached` says which: the last
    residual is None (the step was exactly zero) or at least the target.
    `descend` raises rather than return a report short of its target;
    `descend_fixed_point` returns one."""

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
    (report, matches_direct).  The verdict is certified or raised: when
    the module's precision runs out below the target, H certifies nothing
    there and NonConvergence names the residual reached, so a False
    `matches_direct` is a certified mismatch at the target.

    r defaults to the least adequate radius and c to p^l for the least
    adequate level l.  These are the public steps, in order, on the twisted
    module, which keeps P^{-1}, g(P^{-1}) per g and its tau chain: P is
    inverted once (the radius reads its floor, and the fixed point takes
    (g.P)^{-1} as g(P^{-1}), acted once per g), and the level search, the
    fixed point and the direct check read one set of level matrices.  A
    target <= 0 or an r < 1 raises ValueError.
    """
    target = Fraction(target)
    if target <= 0:
        raise ValueError(f"need target > 0, got {target}")
    if r is not None and r < 1:
        raise ValueError(f"need r >= 1, got r={r}")
    module = integral_twist(module)
    r = _radius(module, r)
    if c is None:
        c = module.p ** minimal_descent_level(module, r)
    g = galois.tau(c)
    rep = descend_fixed_point(module, g, r, target)
    if not rep.reached:
        raise NonConvergence(
            f"descent stopped at residual {rep.residual_val} < target {target} "
            f"after {rep.iterations} iterations"
        )
    return rep, descent_matches_direct(module, g, rep, target)


def integral_twist(module: PhiTauModule) -> PhiTauModule:
    """Rescale the basis by t^s, s = -floor(val(P) / (p-1)), which puts
    val(P) in [0, p-1): a P that is not integral is raised, and one of
    val >= p-1 lowered, so the descent's radius stays small.

    On the twisted basis P' = t^(s(p-1)) P, and Mat'(tau^c) picks up the
    unit scalar tau^c(t^s) t^{-s} = eps^(cs); for the generator this is
    Mat(tau) * (1+u)^s.  The lattice basis rescales by t^{-s}, and W^{-1}
    by t^s.
    """
    p, cap = module.p, module.cap
    s = -(module.frob.val_floor() // (p - 1))
    if s == 0:
        return module

    def scaled(mat, e):
        """mat * t^e, or None for no mat."""
        return None if mat is None else mat.scale_series(ring.monomial(p, cap, 1, 0, e))

    unit = galois.eps_pow(s, p, cap, module.prec)
    return replace(
        module,
        frob=scaled(module.frob, s * (p - 1)),
        mat_tau=module.mat_tau.scale_series(unit).truncate(module.prec),
        lattice=scaled(module.lattice, -s),
        lattice_inv=scaled(module.lattice_inv, s),
    )


def minimal_descent_radius(module: PhiTauModule) -> int:
    """Least r >= 1 with t^r P^{-1} in t * (integral matrices)."""
    return _radius(module)


def _radius(module: PhiTauModule, r: int | None = None) -> int:
    """r, checked to put t^r P^{-1} in t * (integral matrices), or the
    least such r >= 1 when r is None."""
    floor = module._p_inverse.val_floor()
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
    """Least l <= MAX_DESCENT_LEVEL with val(Mat(tau^(p^l)) - Id) >= r * val(t).
    Each Mat(tau^(p^(l+1))) comes from level l's matrices in the module's chain."""
    p = module.p
    for l in range(MAX_DESCENT_LEVEL + 1):
        if _deviation(module, mat_of(module, galois.tau(p**l)), p**l, r) is None:
            return l
    raise PreconditionViolated(f"no level <= {MAX_DESCENT_LEVEL} brings Mat(g) within t^{r}")


def _deviation(module: PhiTauModule, mat_g: MatSeries, c: int, r: int) -> Fraction | None:
    """None when val(Mat(tau^c) - Id) >= r is certified, else that
    valuation, attained by a known term.  A floor below r that only an
    O(.) cap sets vanished to precision and raises DegenerateOrbit: the
    `v_tau` rule by which a `matrix_sh_test` sample vanishes,
    though there `holder.fit_levels` picks the error by level."""
    diff = mat_g - module._tau_chain.mat(0)
    floor = diff.val_floor()
    if floor is None or floor >= r:
        return None
    if v_tau(e for row in diff.rows for e in row) is None:
        raise DegenerateOrbit(f"Mat(tau^{c}) - Id vanishes to precision below t^{r}")
    return floor


def descend_fixed_point(
    module: PhiTauModule,
    g: GroupElem,
    r: int,
    target_prec,
) -> DescentReport:
    """`descend`'s fixed point for a given g and r on an integral module:
    solve H = f0 + P phi(H) Q_g by fixed-point iteration, where
    Q_g = t^(r(p-1)) (g.P)^{-1} and f0 = t^(-r) (P (g.P)^{-1} - Id).

    The solution satisfies Mat(g) = Id + t^r H.  Convergence is the
    ultrametric contraction val(X_{j+1} - X_j) >= p val(X_j - X_{j-1})
    + val(P) + val(Q_g), so each step gains at least val(Q_g), which is
    val(P^{-1}) + r(p-1) >= 1 + r(p-2) once r passes `_radius`: g keeps
    the floor of the pure-t P^{-1}.  P cut at the precision and g(P^{-1})
    are the module's own, so a second call with the same g acts on no
    matrix.
    """
    _radius(module, r)
    mat_g = mat_of(module, g)
    target_prec = Fraction(target_prec)
    p, cap = module.p, module.cap
    prec = module.prec
    frob_mat = module._frob_cut

    # g is a ring automorphism, so (g.P)^{-1} = g(P^{-1}), which the module
    # keeps per g, with the floor of P^{-1}
    gp_inv = module._p_inverse_image(g)
    dev = _deviation(module, mat_g, g.c, r)
    if dev is not None:
        raise PreconditionViolated(
            f"val(Mat(g) - Id) = {dev} < r = {r}; raise the level of g"
        )

    t_pow = ring.monomial(p, cap, 1, 0, r * (p - 1))
    q_g = gp_inv.scale_series(t_pow)
    q_val = q_g.val_floor()
    t_neg_r = ring.monomial(p, cap, 1, 0, -r)
    f0 = ((frob_mat * gp_inv) - module._tau_chain.mat(0)).scale_series(t_neg_r)

    x = f0
    iterations = 0
    residual = None
    history = []
    while iterations < MAX_DESCENT_ITERATIONS:
        nxt = f0 + (frob_mat * x.frobenius()).mul(q_g, prec)
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
    t_neg_r = ring.monomial(module.p, module.cap, 1, 0, -report.r)
    direct = (mat_of(module, g) - module._tau_chain.mat(0)).scale_series(t_neg_r)
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
    The module's chain builds every Mat(g), each level from the one below.
    When a target p^lambda = q p^s (a `PPow`, or a rational q) is supplied,
    the status records whether the fitted exponent equals it, compared
    exactly by `PPow.cmp`; a target <= 0 raises ValueError.

    A sample counts only when a known entry term attains the difference's
    floor; a difference whose floor is an entry's cap vanished to
    precision, and a level of such samples ends `holder.fit_levels`."""
    if plam is not None:
        plam = PPow.of(plam)
    fam = holder.SubgroupFamily(holder.FamilyKind.TAU, k)
    p = module.p
    ident = module._tau_chain.mat(0)

    def measure(g):
        return (v_tau(e for row in (mat_of(module, g) - ident).rows for e in row),)

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
    """For each basis vector (scaled by s = t^(1/p^n) when n >= 1), measure
    val((g-1) x) under both the basis valuation and the lattice valuation
    over the tau family at base level k, g = tau^(m p^(k+i)) for
    m = 1..p-1 and i = 0..i_max, and fit the exponents.  The module's chain
    builds every Mat(g).  Column j of D = Mat(g) g(s) - s Id is (g-1) s e_j, and
    of W^{-1} D its lattice coordinates: these columns are the
    `holder.fit_levels` tracks, and one that vanishes ends the sweep.  A
    column counts only when a known term attains its floor
    (`v_tau`), as a `matrix_sh_test` sample does.
    Without a lattice the lattice levels and fit are None."""
    p, d, cap, prec = module.p, module.d, module.cap, module.prec
    if n < 0:
        raise ValueError(f"need n >= 0 to scale by t^(1/p^n), got n={n}")
    if n > cap:
        # refused before p^n is built: n may have any number of digits
        raise errors.CapExceeded(f"scaling by t^(1/p^{n}) needs denominator p^{n} > p^{cap}")
    fam = holder.SubgroupFamily(holder.FamilyKind.TAU, k)
    scalar = ring.one(p, cap) if n == 0 else ring.monomial(p, cap, 1, 0, Fraction(1, p**n))
    # s Id cut at prec: the cut after the scaling brings the caps of the
    # module's Id, prec + val(s) once scaled, back to prec
    scaled = module._tau_chain.mat(0).scale_series(scalar).truncate(prec)
    w_inv = module.lattice_inverse() if module.lattice is not None else None

    def measure(g):
        diff = mat_of(module, g).scale_series(galois.act(g, scalar, prec)) - scaled
        mats = (diff,) if w_inv is None else (diff, w_inv * diff)
        return [v_tau(col) for mat in mats for col in zip(*mat.rows)]

    levels = holder.fit_levels(measure, fam, p, i_max)
    return tuple(
        ModuleShBasisReport(j, vt, vtd, holder.fit_exponent(vt, p), vtd and holder.fit_exponent(vtd, p))
        for j, (vt, vtd) in enumerate(zip(levels[:d], levels[d:] or (None,) * d))
    )


# -- module file format -----------------------------------------------

_HEADER_KEYS = ("p", "d", "prec", "cap")


def module_to_text(module: PhiTauModule) -> str:
    lines = [f"p={module.p} d={module.d} prec={module.prec} cap={module.cap}"]
    for name, mat in (("P", module.frob), ("tau", module.mat_tau), ("lattice", module.lattice)):
        if mat is not None:
            lines.append(f"[{name}]")
            lines.extend(ring.format_series(e) for row in mat.rows for e in row)
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
