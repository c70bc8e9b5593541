import contextlib
import dataclasses
import io
import operator
from fractions import Fraction

import pytest

from tilted import cli, galois, holder, phitau, ring, selftest
from tilted.errors import NonConvergence, ParseError, PrecisionRequired, PreconditionViolated
from tilted.holder import PPow, Status
from tilted.phitau import MatSeries

P = 3
CAP = 6
I2 = MatSeries.identity(2, P)


def s(text):
    return ring.parse_series(text, P, CAP)


def one_by_one(entry, prec):
    b = MatSeries.from_rows([[entry]])
    binv = MatSeries.from_rows([[ring.invert(entry, prec)]])
    return phitau.basechange_from_matrix(b, binv, prec)


@pytest.fixture(scope="module")
def mod_1pt():
    return one_by_one(s("1+t"), 24)


@pytest.fixture(scope="module")
def mod_d2():
    return phitau.basechange_generate(2, seed=4, complexity=2, p=P, prec=24)


def oracle_det(m):
    """The plain recursive cofactor expansion along the first row."""
    d = m.d
    if d == 1:
        return m.rows[0][0]
    acc = None
    for j in range(d):
        minor = MatSeries.from_rows(
            [[m.rows[i][l] for l in range(d) if l != j] for i in range(1, d)]
        )
        term = m.rows[0][j] * oracle_det(minor)
        if j % 2 == 1:
            term = -term
        acc = term if acc is None else acc + term
    return acc


def oracle_adjugate(m):
    d = m.d
    if d == 1:
        return MatSeries.from_rows([[ring.one(m.p, m.cap).truncate(m.rows[0][0].prec)]])
    cof = [
        [
            oracle_det(
                MatSeries.from_rows(
                    [[m.rows[a][b] for b in range(d) if b != j] for a in range(d) if a != i]
                )
            )
            for j in range(d)
        ]
        for i in range(d)
    ]
    cof = [[-c if (i + j) % 2 else c for j, c in enumerate(row)] for i, row in enumerate(cof)]
    return MatSeries.from_rows([[cof[j][i] for j in range(d)] for i in range(d)])


def oracle_inverse(det, adj, prec):
    return adj.scale_series(ring.invert(det, prec)).truncate(prec)


def count_products(monkeypatch):
    """The list that every matrix product from now on appends to: `*`
    and the chain's cut products both go through `MatSeries.mul`."""
    calls = []
    mul = MatSeries.mul

    def counting(a, b, prec=None):
        calls.append(a)
        return mul(a, b, prec)

    monkeypatch.setattr(MatSeries, "mul", counting)
    return calls


def text(m):
    return [[(str(e), e.prec) for e in row] for row in m.rows]


ORACLE_PREC = 10


def oracle_matrices(d, p):
    mod = phitau.basechange_generate(d, seed=10 * d + p, complexity=2, p=p, prec=ORACLE_PREC)
    return {
        "lattice": mod.lattice,
        "frob": mod.frob.truncate(ORACLE_PREC),
        "acted": mod.frob.act(galois.tau(1), ORACLE_PREC),
    }


class TestSharedMinors:
    @pytest.mark.parametrize("p", [2, 3, 5])
    @pytest.mark.parametrize("d", range(1, 7))
    def test_matches_recursive_expansion(self, d, p):
        for kind, m in oracle_matrices(d, p).items():
            det, adj = oracle_det(m), oracle_adjugate(m)
            got = m.det()
            assert (str(got), got.prec) == (str(det), det.prec), kind
            assert text(m.adjugate()) == text(adj), kind
            want = oracle_inverse(det, adj, ORACLE_PREC)
            assert text(m.inverse(ORACLE_PREC)) == text(want), kind

    def test_product_count(self, monkeypatch):
        # every series product is one pair of the kernel ring.dot
        calls = []
        dot = ring.dot

        def counting(pairs, **kwargs):
            pairs = list(pairs)
            calls.extend(pairs)
            return dot(pairs, **kwargs)

        m = phitau.basechange_generate(7, seed=7, complexity=2, p=P, prec=12).frob.truncate(12)
        monkeypatch.setattr(ring, "dot", counting)
        m.det()
        # 2^7 minors on suffix rows, k products for each of size k >= 2
        assert len(calls) == 7 * 2**6 - 7
        calls.clear()
        m.inverse(12)
        # the recursive expansion takes about 69,000
        assert len(calls) <= 2500


class TestMatSeries:
    def test_inverse(self, mod_d2):
        m = mod_d2.frob
        prod = m * m.inverse(20)
        ident = MatSeries.identity(2, P, CAP, Fraction(20))
        assert (prod - ident).truncate(20).is_zero()

    def test_refuses_an_operand_of_another_d(self):
        # unchecked, the sum zipped a 2 x 2 matrix out of a 2 x 2 and a
        # 3 x 3 one, and the product gave three rows of two entries
        two, three = MatSeries.identity(2, P, CAP), MatSeries.identity(3, P, CAP)
        for a, b in ((two, three), (three, two)):
            for combine in (operator.add, operator.sub, operator.mul, MatSeries.mul):
                with pytest.raises(ValueError, match="cannot meet"):
                    combine(a, b)
        assert (two + two).d == (two - two).d == (two * two).d == 2

    def test_det_multiplicative(self, mod_d2):
        a, b = mod_d2.frob, mod_d2.mat_tau
        lhs = (a * b).det()
        rhs = a.det() * b.det()
        assert ring.eq_to_prec(lhs, rhs)

    def test_d_is_the_row_count(self, mod_d2):
        rows = mod_d2.frob.rows
        m = MatSeries.from_rows(rows)
        assert m.d == len(rows) == 2
        assert repr(m) == f"MatSeries(d=2, rows={rows!r})"
        assert [f.name for f in dataclasses.fields(MatSeries) if f.init] == ["rows"]
        # a stated d could disagree with the rows: MatSeries(3, rows).inverse()
        # ended in IndexError
        with pytest.raises(TypeError):
            MatSeries(3, rows)
        prod = m * MatSeries(rows).inverse(20)
        assert (prod - MatSeries.identity(2, P, CAP, Fraction(20))).truncate(20).is_zero()


class TestModuleConstruction:
    @pytest.mark.parametrize("p, cap", [(4, 6), (1, 6), (9, 6), (3, -1), (3, 65)])
    def test_generate_rejects_bad_ring(self, p, cap):
        with pytest.raises(ValueError, match=f"p={p}" if cap == 6 else "cap"):
            phitau.basechange_generate(1, 0, p=p, cap=cap)

    @pytest.mark.parametrize(
        "d, complexity, match",
        [(0, 2, "d=0"), (phitau.MAX_DIM + 1, 2, "d=13"), (2, -1, "got -1"), (2, phitau.MAX_COMPLEXITY + 1, "got 21")],
    )
    def test_generate_rejects_sizes_that_cannot_finish(self, d, complexity, match):
        with pytest.raises(ValueError, match=match):
            phitau.basechange_generate(d, 0, complexity=complexity)

    def test_largest_sizes_generate(self):
        mod = phitau.basechange_generate(phitau.MAX_DIM, 0, complexity=phitau.MAX_COMPLEXITY)
        assert mod.d == phitau.MAX_DIM

    @pytest.mark.parametrize("method", [MatSeries.det, MatSeries.adjugate, MatSeries.inverse])
    def test_minors_refuse_a_dimension_above_the_cap(self, method):
        # 2^13 column masks are refused before they are laid out
        with pytest.raises(ValueError, match="dimension must be 1..12, got d=13"):
            method(MatSeries.identity(phitau.MAX_DIM + 1, P))

    def test_closed_form_frobenius(self, mod_1pt):
        assert ring.eq_to_prec(mod_1pt.frob.rows[0][0], s("1+2*t+t^{2}"))

    def test_closed_form_tau(self, mod_1pt):
        lhs = mod_1pt.mat_tau.rows[0][0] * s("1+t")
        assert ring.eq_to_prec(lhs, s("1+t+u*t"))

    def test_rejects_u_in_frobenius(self):
        frob = MatSeries.from_rows([[s("1+u")]])
        tau_m = MatSeries.identity(1, P, CAP)
        with pytest.raises(PreconditionViolated):
            phitau.make_module(frob, tau_m, 12)

    def test_rejects_wrong_cocycle(self):
        frob = MatSeries.from_rows([[s("1+t")]])
        tau_m = MatSeries.from_rows([[s("1+u*t")]])
        with pytest.raises(PreconditionViolated):
            phitau.make_module(frob, tau_m, 12)

    # unchecked, a 3 x 3 or ragged Mat(tau) on a d = 2 module PASSes the
    # cocycle check on what `zip` keeps of it, a 3 x 3 lattice and an
    # empty P end in IndexError, and another p or cap fails only inside a
    # later product
    @pytest.mark.parametrize(
        "frob, tau_m, lattices, match",
        [
            (I2, MatSeries.identity(3, P), (), "d x d"),
            (I2, I2, (MatSeries.identity(3, P),), "d x d"),
            (I2, I2, (I2, MatSeries.identity(1, P)), "d x d"),
            (I2, MatSeries.from_rows([[s("1"), s("0")], [s("1")]]), (), "d x d"),
            (MatSeries.from_rows([]), MatSeries.from_rows([]), (), "d=0"),
            (I2, MatSeries.identity(2, 5), (), "p=3"),
            (I2, MatSeries.identity(2, P, CAP - 1), (), "cap=6"),
            (MatSeries.identity(3, P), I2, (), "d=3"),
            (I2, I2, (None, I2), "lattice_inv needs its lattice"),
        ],
        ids=["tau 3x3", "lattice 3x3", "inverse 1x1", "ragged tau", "d=0", "p=5", "cap-1", "P 3x3", "orphan inverse"],
    )
    def test_rejects_mismatched_shapes(self, frob, tau_m, lattices, match):
        with pytest.raises(ValueError, match=match):
            phitau.make_module(frob, tau_m, 12, *lattices)

    def test_record_reads_d_p_cap_off_p(self, mod_d2):
        # stored apart from P, a hand-built d, p or cap made descend,
        # cocycle_check and module_sh_test answer for another module
        assert [f.name for f in dataclasses.fields(phitau.PhiTauModule)] == [
            "frob",
            "mat_tau",
            "prec",
            "lattice",
            "lattice_inv",
        ]
        assert (mod_d2.d, mod_d2.p, mod_d2.cap) == (2, P, CAP)
        m = mod_d2
        with pytest.raises(TypeError):
            phitau.PhiTauModule(2, 3, 4, m.prec, m.frob, m.mat_tau, m.lattice, m.lattice_inv)
        for name, value in (("d", 3), ("p", 2), ("cap", 4)):
            with pytest.raises(TypeError):
                dataclasses.replace(m, **{name: value})

    @pytest.mark.parametrize(
        "changes, match",
        [
            ({"frob": MatSeries.identity(3, P)}, "d x d for P's d=3"),
            ({"mat_tau": MatSeries.identity(2, 5)}, "p=3"),
            ({"lattice": MatSeries.from_rows([[s("1")]])}, "d x d"),
            ({"lattice": None}, "lattice_inv needs its lattice"),
            ({"prec": 0}, "prec=0"),
        ],
        ids=["P 3x3", "tau p=5", "lattice 1x1", "orphan inverse", "prec 0"],
    )
    def test_replace_keeps_the_record_rules(self, mod_d2, changes, match):
        with pytest.raises(ValueError, match=match):
            dataclasses.replace(mod_d2, **changes)


class TestCocycle:
    @pytest.mark.parametrize("c", [1, 2, 3, 5, -1])
    def test_generated_modules(self, mod_d2, c):
        ok, _ = phitau.cocycle_check(mod_d2, galois.tau(c))
        assert ok

    def test_mat_of_additivity(self, mod_d2):
        # Mat(tau^5) = Mat(tau^2) * tau^2(Mat(tau^3))
        m2 = phitau.mat_of(mod_d2, galois.tau(2))
        m3 = phitau.mat_of(mod_d2, galois.tau(3))
        lhs = phitau.mat_of(mod_d2, galois.tau(5))
        rhs = m2 * m3.act(galois.tau(2))
        assert (lhs - rhs).truncate(mod_d2.prec).is_zero()

    def test_gamma_acts_trivially(self, mod_d2):
        g = galois.GroupElem(2, 4)
        assert phitau.mat_of(mod_d2, g) == phitau.mat_of(mod_d2, galois.tau(2))


# B = (t^e) with val(P) = e(p-1) >= p-1: the trivial module in disguise
TRIVIAL_LARGE_P = [(3, 9), (3, 12), (5, 5)]


def trivial_along(p, e):
    """The base change of the trivial 1 x 1 module along B = (t^e), prec 24."""
    b = MatSeries.from_rows([[ring.monomial(p, CAP, 1, 0, e)]])
    binv = MatSeries.from_rows([[ring.monomial(p, CAP, 1, 0, -e)]])
    return phitau.basechange_from_matrix(b, binv, 24)


def oracle_integral_twist(module):
    """The twist's d, p, cap, prec, P, Mat(tau), W and W^-1, built by hand,
    each listed, as the twist built its record before the record read d,
    p and cap off P."""
    p, cap = module.p, module.cap
    s_ = -(module.frob.val_floor() // (p - 1))
    if s_ == 0:
        return module_values(module)
    t_up = ring.monomial(p, cap, 1, 0, s_ * (p - 1))
    frob = module.frob.scale_series(t_up)
    unit = galois.eps_pow(s_, p, cap, module.prec)
    mat_tau = module.mat_tau.scale_series(unit).truncate(module.prec)
    lattice = lattice_inv = None
    if module.lattice is not None:
        t_dn = ring.monomial(p, cap, 1, 0, -s_)
        lattice = module.lattice.scale_series(t_dn)
        if module.lattice_inv is not None:
            lattice_inv = module.lattice_inv.scale_series(ring.monomial(p, cap, 1, 0, s_))
    return (module.d, p, cap, module.prec, frob, mat_tau, lattice, lattice_inv)


def module_values(mod):
    return (mod.d, mod.p, mod.cap, mod.prec, mod.frob, mod.mat_tau, mod.lattice, mod.lattice_inv)


class TestTwist:
    @pytest.mark.parametrize(
        "drop",
        [{}, {"lattice": None, "lattice_inv": None}, {"lattice_inv": None}],
        ids=["full", "no lattice", "no inverse"],
    )
    def test_matches_the_hand_built_twist(self, drop):
        twisted = 0
        for d in range(1, 7):
            for seed in range(10):
                mod = phitau.basechange_generate(d, seed=seed, p=P, prec=24)
                mod = dataclasses.replace(mod, **drop)
                tw = phitau.integral_twist(mod)
                assert module_values(tw) == oracle_integral_twist(mod), (d, seed)
                twisted += tw is not mod
        # both branches run: some modules are twisted and some are not
        assert 0 < twisted < 60

    def test_makes_integral(self):
        mod = one_by_one(s("t^{-1}+1"), 24)
        assert mod.frob.val_floor() < 0
        tw = phitau.integral_twist(mod)
        assert tw.frob.val_floor() >= 0
        ok, _ = phitau.cocycle_check(tw, galois.tau(1))
        assert ok

    def test_noop_when_integral(self, mod_1pt):
        assert phitau.integral_twist(mod_1pt) is mod_1pt

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_puts_val_below_p_minus_1(self, p):
        for d in (1, 2, 3):
            for seed in range(4):
                mod = phitau.basechange_generate(d, seed=seed, p=p, prec=24)
                assert 0 <= phitau.integral_twist(mod).frob.val_floor() < p - 1

    @pytest.mark.parametrize("p, e", TRIVIAL_LARGE_P, ids=str)
    def test_lowers_large_val(self, p, e):
        # P = t^(e(p-1)): the twist by t^(-e) makes P = Id, so the trivial
        # module descends at r = 1, where P = t^(e(p-1)) needs r = e(p-1) + 1
        # and runs out of precision
        mod = trivial_along(p, e)
        assert phitau.integral_twist(mod).frob.val_floor() == 0
        rep, matches = phitau.descend(mod, 6)
        assert (rep.r, rep.c, rep.reached, matches) == (1, 1, True, True)


class TestDescent:
    def test_closed_form(self, mod_1pt):
        rep = phitau.descend_fixed_point(mod_1pt, galois.tau(1), 1, 12)
        want = ring.u_var(P) * ring.invert(s("1+t"), 12)
        assert ring.eq_to_prec(rep.h.rows[0][0], want.truncate(12))
        assert phitau.descent_matches_direct(mod_1pt, galois.tau(1), rep, 12)

    def test_gain_per_step(self, mod_d2):
        mod = phitau.integral_twist(mod_d2)
        r = phitau.minimal_descent_radius(mod)
        level = phitau.minimal_descent_level(mod, r)
        rep = phitau.descend_fixed_point(mod, galois.tau(P**level), r, 10)
        pairs = zip(rep.residual_history, rep.residual_history[1:])
        assert all(b - a >= rep.q_val for a, b in pairs if a is not None and b is not None)

    def test_levels_share_one_chain(self, monkeypatch):
        mod = phitau.integral_twist(phitau.basechange_generate(2, seed=5, p=P, prec=24))
        r = phitau.minimal_descent_radius(mod)
        calls = count_products(monkeypatch)
        level = phitau.minimal_descent_level(mod, r)
        # Mat(tau^(3^(l+1))) from Mat(tau^(3^l)): a square and a product
        assert level >= 2
        assert len(calls) == 2 * level

    def test_rejects_small_radius(self, mod_1pt):
        with pytest.raises(PreconditionViolated):
            phitau.descend_fixed_point(mod_1pt, galois.tau(1), 0, 8)

    def test_rejects_low_level(self):
        mod = one_by_one(s("t^{2}+t^{3}"), 24)
        r = phitau.minimal_descent_radius(mod)
        assert r > 1
        with pytest.raises(PreconditionViolated):
            phitau.descend_fixed_point(mod, galois.tau(1), r, 8)

    def test_matches_direct_only_where_known(self):
        # radius 9: prec 24 runs out at residual 6, so H is known only to
        # O(6)..O(9), and nothing is certified at target 12
        mod = phitau.integral_twist(phitau.basechange_generate(5, seed=5, p=P, prec=24))
        r = phitau.minimal_descent_radius(mod)
        g = galois.tau(P ** phitau.minimal_descent_level(mod, r))
        rep = phitau.descend_fixed_point(mod, g, r, 12)
        assert (r, rep.residual_val) == (9, 6)
        assert not phitau.descent_matches_direct(mod, g, rep, 12)
        assert phitau.descent_matches_direct(mod, g, rep, 6)

    def test_inverts_p_once(self, mod_d2, tmp_path, monkeypatch):
        path = tmp_path / "mod.txt"
        path.write_text(phitau.module_to_text(mod_d2))
        calls = []
        inverse = MatSeries.inverse

        def counting(m, prec=None):
            calls.append(m)
            return inverse(m, prec)

        monkeypatch.setattr(MatSeries, "inverse", counting)
        # P^-1 gives the radius, and g(P^-1) = (g.P)^-1 serves the descent
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.dispatch(["module", "descend", str(path)]) == 0
        assert len(calls) == 1
        # the module keeps P^-1: a second call on it inverts nothing
        twisted = phitau.integral_twist(mod_d2)
        r = phitau.minimal_descent_radius(twisted)
        g = galois.tau(P ** phitau.minimal_descent_level(twisted, r))
        mod = dataclasses.replace(twisted)
        calls.clear()
        phitau.descend_fixed_point(mod, g, r, 10)
        assert len(calls) == 1
        calls.clear()
        phitau.descend_fixed_point(mod, g, r, 10)
        assert phitau.minimal_descent_radius(mod) == r
        assert len(calls) == 0

    @pytest.mark.parametrize("p, d_max", [(2, 3), (3, 6), (5, 3)])
    def test_q_g_gains_at_least_one(self, p, d_max):
        # P is pure-t, so g keeps the floor of P^{-1}, and the radius puts
        # val(P^{-1}) >= 1 - r: val(Q_g) = val(P^{-1}) + r(p-1) >= 1 + r(p-2)
        for d in range(1, d_max + 1):
            for seed in range(10):
                mod = phitau.basechange_generate(d, seed=seed, p=p, prec=24)
                rep, _ = phitau.descend(mod, 6)
                twisted = phitau.integral_twist(mod)
                floor = twisted.frob.truncate(twisted.prec).inverse(twisted.prec).val_floor()
                assert rep.q_val == floor + rep.r * (p - 1) >= 1 + rep.r * (p - 2)

    @pytest.mark.parametrize("p", [2, 3, 5])
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_acted_inverse_keeps_floor(self, p, d):
        # the descent takes (g.P)^{-1} as g(P^{-1}) and reads the radius
        # precondition's floor off it
        for seed in range(3):
            mod = phitau.integral_twist(phitau.basechange_generate(d, seed=seed, p=p, prec=24))
            frob = mod.frob.truncate(mod.prec)
            p_inv = frob.inverse(mod.prec)
            floor = p_inv.val_floor()
            for c in (1, 2, p, -1):
                g = galois.tau(c)
                acted = frob.act(g, mod.prec).inverse(mod.prec)
                assert acted.val_floor() == floor
                assert formatted(p_inv.act(g, mod.prec)) == formatted(acted)


def formatted(m):
    return [[ring.format_series(e) for e in row] for row in m.rows]


def spread_module():
    """B = diag(t^-1, t^2, 1, 1): descent radius 7, and prec 24 runs out
    at residual 11, short of target 12."""
    exps = (-1, 2, 0, 0)

    def diag(sign):
        return MatSeries.from_rows(
            [
                [
                    ring.monomial(P, CAP, 1, 0, sign * exps[a]) if a == b else ring.zero(P, CAP)
                    for b in range(4)
                ]
                for a in range(4)
            ]
        )

    return phitau.basechange_from_matrix(diag(1), diag(-1), 24)


def five_calls(mod, target):
    """The descent assembled from the public steps, each with its own
    inverse of P and its own chain."""
    tw = phitau.integral_twist(mod)
    r = phitau.minimal_descent_radius(tw)
    g = galois.tau(P ** phitau.minimal_descent_level(tw, r))
    rep = phitau.descend_fixed_point(tw, g, r, target)
    return rep, phitau.descent_matches_direct(tw, g, rep, target)


def summary(rep, matches):
    return (
        rep.r,
        rep.c,
        rep.iterations,
        rep.residual_history,
        rep.residual_val,
        rep.reached,
        rep.q_val,
        formatted(rep.h),
        matches,
    )


class TestDescend:
    @pytest.mark.parametrize("case", selftest.DESCENT_CASES + ["spread"], ids=str)
    def test_matches_five_calls(self, case):
        if case == "spread":
            mod, target = spread_module(), 11
        else:
            seed, d = case
            mod, target = phitau.basechange_generate(d, seed=seed, p=P, prec=24), 12
        assert summary(*phitau.descend(mod, target)) == summary(*five_calls(mod, target))

    def test_short_descent_raises(self):
        # the five calls return the report short of target 12; `descend`
        # raises on it, and certifies at the residual reached
        rep, _ = five_calls(spread_module(), 12)
        assert (rep.r, rep.residual_val, rep.reached) == (7, 11, False)
        with pytest.raises(NonConvergence, match="residual 11 < target 12 after"):
            phitau.descend(spread_module(), 12)
        rep, matches = phitau.descend(spread_module(), 11)
        assert rep.reached and matches

    def test_one_inverse_one_chain(self, monkeypatch):
        mod = phitau.basechange_generate(2, seed=5, p=P, prec=24)
        inverses, composes = [], []
        inverse, compose = MatSeries.inverse, phitau._TauChain._compose

        def counting_inverse(m, prec=None):
            inverses.append(m)
            return inverse(m, prec)

        def counting_compose(chain, *args):
            composes.append(args)
            return compose(chain, *args)

        monkeypatch.setattr(MatSeries, "inverse", counting_inverse)
        monkeypatch.setattr(phitau._TauChain, "_compose", counting_compose)
        rep, matches = phitau.descend(mod, 12)
        assert (rep.r, rep.c, matches) == (5, 9, True)
        assert (len(inverses), len(composes)) == (1, 4)
        # the five public calls read the one P^-1 and chain of the twisted
        # module they share, as `descend` does
        inverses.clear()
        composes.clear()
        assert summary(*five_calls(mod, 12)) == summary(rep, matches)
        assert (len(inverses), len(composes)) == (1, 4)


class TestValuations:
    def test_v_tau_certifies(self):
        # only a cap sets the floor 1: nothing is certified
        assert phitau.v_tau((s("O(1)"), s("t^{5}"))) is None
        # a known term wins a tie with a cap
        assert phitau.v_tau((s("O(5)"), s("t^{5}"))) == 5
        # the exact zero is skipped
        zero = ring.zero(P, CAP)
        assert phitau.v_tau((zero, s("u*t^{2} + O(9)"))) == Fraction(7, 2)
        assert phitau.v_tau((zero, zero)) is None
        assert phitau.v_tau(()) is None

    def test_gap_bound_attained(self):
        # W = t^2: the gap 2 is attained at e_0
        mod = one_by_one(s("t^{-2}"), 24)
        const, witness = phitau.equiv_constant(mod)
        assert const == 2 and [ring.format_series(e) for e in witness] == ["1"]
        assert phitau.v_tau(witness) - phitau.v_tilde(mod, witness) == 2

    def test_gap_attained_at_a_lattice_column(self):
        # W = t^-2: the gap 2 is attained at x = W e_0 = t^-2
        mod = one_by_one(s("t^{2}"), 24)
        const, witness = phitau.equiv_constant(mod)
        assert const == 2 and [ring.format_series(e) for e in witness] == ["t^{-2} + O(24)"]
        assert phitau.v_tilde(mod, witness) - phitau.v_tau(witness) == 2

    def test_trivial_lattice_no_gap(self, mod_1pt):
        coords = (s("t+u"),)
        vt = phitau.v_tau(coords)
        vtd = phitau.v_tilde(mod_1pt, coords)
        assert vt == 1
        assert abs(vt - vtd) <= phitau.equiv_constant(mod_1pt)[0]

    def test_constant_needs_a_lattice(self):
        mod = phitau.make_module(I2, I2, 24)
        with pytest.raises(PreconditionViolated, match="no lattice"):
            phitau.equiv_constant(mod)

    def test_file_lattice_inverted_once(self, mod_d2, monkeypatch):
        text = phitau.module_to_text(mod_d2)
        calls = []
        inverse = MatSeries.inverse

        def counting(m, prec=None):
            calls.append(m)
            return inverse(m, prec)

        monkeypatch.setattr(MatSeries, "inverse", counting)
        coords = (s("t"), s("u*t^{2}"))
        readers = [
            phitau.equiv_constant,
            lambda mod: phitau.module_sh_test(mod, 0, i_max=2),
            lambda mod: phitau.v_tilde(mod, coords),
        ]
        # whichever reads W^-1 first inverts W; the module keeps W^-1, so
        # every later reader on it inverts nothing
        for first in readers:
            mod = phitau.module_from_text(text)
            assert mod.lattice_inv is None
            calls.clear()
            first(mod)
            assert calls == [mod.lattice]
            calls.clear()
            for reader in readers:
                reader(mod)
            assert calls == []

    @pytest.mark.parametrize("coords", [("t",), ("t", "t", "t^{-5}")], ids=["short", "long"])
    def test_refuses_a_vector_of_the_wrong_length(self, mod_d2, coords):
        # unchecked, the short vector ended in IndexError, and v_tilde read
        # the long one as (t, t) and gave 1
        x = tuple(s(c) for c in coords)
        with pytest.raises(ValueError, match="takes 2 coordinates"):
            phitau.module_act(mod_d2, galois.tau(), x)
        with pytest.raises(ValueError, match="takes 2 coordinates"):
            phitau.v_tilde(mod_d2, x)

    def test_lattice_valuation_invariant(self, mod_d2):
        coords = (s("t"), s("u*t^{2}"))
        vtd = phitau.v_tilde(mod_d2, coords)
        moved = phitau.module_act(mod_d2, galois.tau(2), coords)
        assert phitau.v_tilde(mod_d2, moved) == vtd


class TestModuleSh:
    @pytest.mark.parametrize("fn", [phitau.matrix_sh_test, phitau.module_sh_test])
    @pytest.mark.parametrize("i_max", [0, -1])
    def test_needs_two_levels(self, mod_d2, fn, i_max):
        with pytest.raises(ValueError, match="i_max"):
            fn(mod_d2, 1, i_max=i_max)

    def test_every_fit_needs_three_levels(self, mod_d2):
        # with two levels a fit has one candidate, which is always consistent
        fam = holder.SubgroupFamily(holder.FamilyKind.TAU, 0)
        calls = [
            lambda: holder.sh_estimate(s("t"), fam, 1),
            lambda: holder.nonmembership_witness(s("t"), fam, PPow(2, Fraction(1, 2)), 1),
            lambda: phitau.matrix_sh_test(mod_d2, 0, i_max=1),
            lambda: phitau.module_sh_test(mod_d2, 0, i_max=1),
        ]
        messages = set()
        for call in calls:
            with pytest.raises(ValueError) as exc:
                call()
            messages.add(str(exc.value))
        assert messages == {"need i_max >= 2 to compare level differences, got i_max=1"}

    @pytest.mark.parametrize("fn", [phitau.matrix_sh_test, phitau.module_sh_test])
    def test_rejects_negative_base_level(self, mod_d2, fn):
        with pytest.raises(ValueError, match="base level"):
            fn(mod_d2, -1)

    def test_cap_is_not_a_level(self):
        # Mat(tau^25) = 1 + O(17): the difference at level 2 is only a cap
        mod = phitau.basechange_generate(1, seed=0, p=5, prec=18)
        assert str(phitau.mat_of(mod, galois.tau(25)).rows[0][0]) == "1 + O(17)"
        one = ring.one(5, mod.cap)
        levels = [
            min((phitau.mat_of(mod, galois.tau(m * 5**i)).rows[0][0] - one).val() for m in range(1, 5))
            for i in (0, 1)
        ]
        assert levels == [Fraction(5, 4), Fraction(25, 4)]
        # levels 0 and 1 moved, so precision ran out: not a degenerate orbit
        with pytest.raises(PrecisionRequired, match="vanish to precision at level 2 of 0..2"):
            phitau.matrix_sh_test(mod, 0, i_max=2)

    def test_column_capped_below_its_known_terms(self):
        # the lattice column of j = 1 at level 2 of this sweep: its known
        # term has valuation 35/6, but O(5) certifies only >= 5
        col = (s("O(5)"), s("u^{3}*t^{4/3} + O(19/3)"))
        assert phitau.v_tau(col) is None
        mod = phitau.basechange_generate(2, seed=5, p=P, prec=6)
        with pytest.raises(PrecisionRequired, match="vanish to precision at level 2 of 0..2"):
            phitau.module_sh_test(mod, 0, n=1)

    def test_target_compares_exactly(self):
        # the fit is 3/2; q sqrt(3) with q = float(sqrt(3)/2) is not 3/2
        mod = phitau.basechange_generate(1, seed=3, p=P, prec=50)
        near = PPow(Fraction(0.8660254037844387), Fraction(1, 2))
        rep = phitau.matrix_sh_test(mod, 0, plam=near, i_max=2)
        assert rep.plam_hat == Fraction(3, 2) and near.cmp(rep.plam_hat, P) == 1
        assert rep.status is Status.FAIL
        rep = phitau.matrix_sh_test(mod, 0, plam=PPow(Fraction(1, 2), 1), i_max=2)
        assert rep.status is Status.PASS

    @pytest.mark.parametrize("plam", [0, Fraction(-3, 2)])
    def test_rejects_nonpositive_target(self, mod_d2, plam):
        with pytest.raises(ValueError, match="q > 0"):
            phitau.matrix_sh_test(mod_d2, 0, plam=plam)

    def test_rejects_negative_n(self, mod_d2):
        with pytest.raises(ValueError, match="n >= 0"):
            phitau.module_sh_test(mod_d2, 0, n=-1)

    @pytest.mark.parametrize("fn", [phitau.matrix_sh_test, phitau.module_sh_test])
    def test_one_chain_per_sweep(self, mod_d2, fn, monkeypatch):
        mod = dataclasses.replace(mod_d2)
        w_inv = mod.lattice_inverse()
        lattice_products = 6 if fn is phitau.module_sh_test else 0
        calls = count_products(monkeypatch)
        fn(mod, 0, i_max=2)
        # tau^(m 3^i), m = 1, 2, i = 0..2: Mat(tau^2) from Mat(tau), then
        # each level's generator and its double from the level below; one
        # Mat(g) per element took 15 products.  module_sh_test adds one
        # W^-1 D per element for the lattice valuations
        assert sum(a is not w_inv for a in calls) == 5
        assert len(calls) == 5 + lattice_products
        # a second sweep on the module reads the levels the first built
        calls.clear()
        fn(mod, 0, i_max=2)
        assert sum(a is not w_inv for a in calls) == 0
        assert len(calls) == lattice_products

    def test_without_lattice(self, mod_d2):
        text = phitau.module_to_text(mod_d2).split("[lattice]")[0]
        bare = phitau.module_from_text(text)
        for got, want in zip(phitau.module_sh_test(bare, 0), phitau.module_sh_test(mod_d2, 0)):
            assert (got.tau_levels, got.tau_fit) == (want.tau_levels, want.tau_fit)
            assert got.tilde_levels is None and got.tilde_fit is None


class TestFileFormat:
    def test_roundtrip(self, mod_d2):
        text = phitau.module_to_text(mod_d2)
        back = phitau.module_from_text(text)
        assert back.frob == mod_d2.frob
        assert back.mat_tau == mod_d2.mat_tau
        assert back.lattice == mod_d2.lattice

    def test_header_required(self):
        with pytest.raises(ParseError):
            phitau.module_from_text("p=3 d=1 prec=12\n[P]\n1\n[tau]\n1\n")

    @pytest.mark.parametrize(
        "header, message",
        [
            pytest.param(h, "^header: ", id=h)
            for h in ["p=4 d=1 prec=12 cap=6", "p=3 d=1 prec=12 cap=65", "p=3 d=1 prec=0 cap=6", "p=3 d=1 prec=-1 cap=6"]
        ]
        + [
            # a field that is no integer is named, as a bad prec is
            pytest.param(h, f"^bad header {field}$", id=h)
            for h, field in [
                ("p=x d=1 prec=12 cap=6", "p=x"),
                ("p=3 d=1.5 prec=12 cap=6", r"d=1\.5"),
                ("p=3 d=1 prec=12 cap=", "cap="),
                ("p=3 d=1 prec=12 cap=6/1", "cap=6/1"),
            ]
        ],
    )
    def test_header_rules_of_ring_and_module(self, header, message):
        # p and cap go through ring.check_ring, prec through make_module
        with pytest.raises(ParseError, match=message):
            phitau.module_from_text(header + "\n[P]\n1\n[tau]\n1\n")

    def test_truncated_matrix(self):
        with pytest.raises(ParseError):
            phitau.module_from_text("p=3 d=2 prec=12 cap=6\n[P]\n1\n")

    def test_sections_in_order(self):
        with pytest.raises(ParseError):
            phitau.module_from_text("p=3 d=1 prec=12 cap=6\n[tau]\n1\n[P]\n1\n")

    @pytest.mark.parametrize(
        "text",
        [
            "p=3 d=1 prec=12 cap=6\n",
            "p=3 d=0 prec=12 cap=6\n[P]\n[tau]\n",
            "p=9 d=1 prec=12 cap=6\n[P]\n1\n[tau]\n1\n",
            "p=0 d=1 prec=12 cap=6\n[P]\n1\n[tau]\n1\n",
            "p=3 d=1 prec=12 cap=-2\n[P]\n1\n[tau]\n1\n",
        ],
        ids=["header-only", "d=0", "p=9", "p=0", "cap=-2"],
    )
    def test_bad_header(self, text):
        with pytest.raises(ParseError):
            phitau.module_from_text(text)
