"""A `PhiTauModule` keeps its tau chain, P cut at its precision, P^{-1},
W^{-1}, and g.P and g(P^{-1}) per group element g, once built.

The memo must not change a result: every call on a module that earlier
calls have filled gives what the same call gives on a fresh copy of the
module (`dataclasses.replace`, which keeps the fields and none of the
memo), series and O(.) caps alike.  The memo must not keep a module
alive either: it refers to no module, so a module is freed by reference
counting, also one that a CLI call loads.  And the calls of one command
share the levels they build, the Id they subtract, the negative powers
they invert and the images of P and P^{-1} under each g they act with;
an action that an approximate g cannot make is refused on every call."""

import contextlib
import dataclasses
import gc
import io
import random
import weakref

import pytest

from tilted import cli, galois, phitau, ring, selftest
from tilted.errors import TiltedError

PREC = 24


def outcome(fn, *args):
    try:
        return repr(fn(*args))
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"


def module_calls(mod, rng):
    """(name, call) pairs that read the memo: Mat(tau^c) for c > 0, c < 0,
    c = 0 and c above the fixed level, the cocycle check (with tau, whose
    g.P `make_module` kept, and with an approximate element, refused at
    p = 2, 3), the action, both sweeps and the descent shells.  The
    descent's r, c and report come from a fresh copy, so that no call's
    argument depends on the memo."""
    p = mod.p
    approx = galois.inverse(galois.gamma(p + 1), p, nacc=2)
    copy = dataclasses.replace(mod)
    try:
        r = phitau.minimal_descent_radius(copy)
        g = galois.tau(p ** phitau.minimal_descent_level(copy, r))
        report = phitau.descend_fixed_point(copy, g, r, 8)
    except TiltedError:
        r, g, report = 1, galois.tau(1), None
    coords = selftest.sample_coords(mod, rng)
    calls = [
        (f"mat_of {c}", lambda m, c=c: phitau.mat_of(m, galois.tau(c)))
        for c in (1, 2, p + 1, p**2, -1, -p, 0, p**40 + 1, rng.randrange(p**30, p**60))
    ]
    calls += [
        ("cocycle tau", lambda m: phitau.cocycle_check(m, galois.tau(1))),
        ("cocycle tau^2", lambda m: phitau.cocycle_check(m, galois.tau(2))),
        ("cocycle approx", lambda m: phitau.cocycle_check(m, approx)),
        ("cocycle tau gamma", lambda m: phitau.cocycle_check(m, galois.GroupElem(1, p + 1))),
        ("act", lambda m: phitau.module_act(m, galois.GroupElem(p + 2, 1), coords)),
        ("matrix sh", lambda m: phitau.matrix_sh_test(m, 0, i_max=2)),
        ("module sh", lambda m: phitau.module_sh_test(m, 1, n=1, i_max=2)),
        ("radius", phitau.minimal_descent_radius),
        ("level", lambda m: phitau.minimal_descent_level(m, r)),
        ("fixed point", lambda m: phitau.descend_fixed_point(m, g, r, 8)),
        ("fixed point approx", lambda m: phitau.descend_fixed_point(m, approx, r, 8)),
        ("descend", lambda m: phitau.descend(m, 8)),
    ]
    if report is not None:
        calls.append(("direct", lambda m: phitau.descent_matches_direct(m, g, report, 8)))
    if mod.lattice is not None:
        calls.append(("lattice inverse", lambda m: m.lattice_inverse()))
        calls.append(("v_tilde", lambda m: phitau.v_tilde(m, coords)))
    return calls


def memo_modules(p):
    """Integral modules of d = 1..3, with W^{-1} given and without it, and
    one read from a file (p = 3 only)."""
    mods = {}
    for d in (1, 2, 3):
        mod = phitau.integral_twist(phitau.basechange_generate(d, seed=d + p, p=p, prec=PREC))
        mods[f"d={d}"] = mod
        mods[f"d={d} no W^-1"] = dataclasses.replace(mod, lattice_inv=None)
    if p == 3:
        mods["file"] = phitau.module_from_text(phitau.module_to_text(mods["d=2"]))
    return mods


@pytest.mark.parametrize("p", [2, 3, 5])
def test_call_order_does_not_matter(p):
    rng = random.Random(p)
    for name, mod in memo_modules(p).items():
        calls = module_calls(mod, rng)
        order = [rng.choice(calls) for _ in range(2 * len(calls))]
        for call_name, call in order:
            want = outcome(call, dataclasses.replace(mod))
            assert outcome(call, mod) == want, (name, call_name)
        assert mod._tau_chain.units, name


def test_memo_leaves_fields_equality_and_hash():
    mod = phitau.basechange_generate(2, seed=4, p=3, prec=24)
    copy = dataclasses.replace(mod)
    phitau.descend(mod, 8)
    phitau.module_sh_test(mod, 0, i_max=2)
    assert mod == copy and hash(mod) == hash(copy) and repr(mod) == repr(copy)
    assert [f.name for f in dataclasses.fields(mod)] == [f.name for f in dataclasses.fields(copy)]
    kept = {"_tau_chain", "_frob_cut", "_frob_images", "_p_inverse", "_p_inverse_images"}
    assert kept <= set(vars(mod)) and not kept & set(vars(copy))


@contextlib.contextmanager
def gc_off():
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def test_queried_module_is_freed_without_gc():
    mod = phitau.basechange_generate(2, seed=4, p=3, prec=24)
    mod = phitau.integral_twist(dataclasses.replace(mod, lattice_inv=None))
    phitau.descend(mod, 8)
    phitau.module_sh_test(mod, 0, i_max=2)
    phitau.mat_of(mod, galois.tau(3**40 + 2))
    phitau.cocycle_check(mod, galois.GroupElem(2, 4))
    assert {
        "_tau_chain",
        "_frob_cut",
        "_frob_images",
        "_p_inverse",
        "_p_inverse_images",
        "_lattice_inverse",
    } <= set(vars(mod))
    ref = weakref.ref(mod)
    with gc_off():
        del mod
        assert ref() is None


@pytest.fixture
def module_file(tmp_path):
    path = tmp_path / "d2.mod"
    path.write_text(phitau.module_to_text(phitau.basechange_generate(2, seed=4, p=3, prec=24)))
    return str(path)


@pytest.mark.parametrize("command", [["check"], ["descend"], ["sh", "--n", "1"]])
def test_cli_module_is_freed_without_gc(module_file, command, monkeypatch):
    refs = []
    load = phitau.module_from_text

    def loading(text):
        mod = load(text)
        refs.append(weakref.ref(mod))
        return mod

    monkeypatch.setattr(phitau, "module_from_text", loading)
    with gc_off():
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.dispatch(["module", command[0], module_file, *command[1:]]) in (0, 2)
        assert len(refs) == 1 and refs[0]() is None


def test_module_check_shares_levels(module_file, monkeypatch):
    # powers 1, 2 and 3 at p = 3: Mat(tau^2) from Mat(tau), and Mat(tau^3)
    # from Mat(tau^2), which a chain per call built again
    composes = []
    compose = phitau._TauChain._compose

    def counting(chain, *args):
        composes.append(args)
        return compose(chain, *args)

    monkeypatch.setattr(phitau._TauChain, "_compose", counting)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.dispatch(["module", "check", module_file]) == 0
    assert len(composes) == 2


@pytest.fixture
def twisted():
    """An integral module on which descend(twisted, 12, c=-1) succeeds."""
    return phitau.integral_twist(phitau.basechange_generate(2, seed=4, p=3, prec=PREC))


@pytest.fixture
def counted(monkeypatch, twisted):
    """Counts of the matrix inversions, Id builds, chain compositions and
    matrix group actions made after `twisted` is built."""
    counts = dict.fromkeys(("inverse", "identity", "compose", "act"), 0)
    for key, cls, name in (
        ("inverse", phitau.MatSeries, "inverse"),
        ("identity", phitau.MatSeries, "identity"),
        ("compose", phitau._TauChain, "_compose"),
        ("act", phitau.MatSeries, "act"),
    ):
        fn = getattr(cls, name)

        def counting(*args, fn=fn, key=key, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(cls, name, counting)
    return counts


@pytest.mark.parametrize("c", [-1, -3, -5, 0])
def test_nonpositive_powers_are_kept(c, twisted, counted):
    first = phitau.mat_of(twisted, galois.tau(c))
    built = dict(counted)
    assert built["inverse" if c else "identity"] == 1
    assert phitau.mat_of(twisted, galois.tau(c)) is first
    assert counted == built


def test_nonpositive_powers_match_their_definition():
    for p in (2, 3, 5):
        for name, mod in memo_modules(p).items():
            prec = mod.prec
            for c in (-1, -p, -(p + 2)):
                want = phitau.mat_of(mod, galois.tau(-c)).inverse(prec).act(galois.tau(c), prec)
                assert repr(phitau.mat_of(mod, galois.tau(c))) == repr(want), (name, c)
            one, zero = ring.one(p, mod.cap).truncate(prec), ring.zero(p, mod.cap, prec)
            ident = phitau.MatSeries.from_rows(
                [[one if i == j else zero for j in range(mod.d)] for i in range(mod.d)]
            )
            assert repr(phitau.mat_of(mod, galois.tau(0))) == repr(ident), name


def test_descend_inverts_negative_power_once(twisted, counted):
    # P^-1 is built first, so every inversion left is the chain's: the
    # fixed point and the direct check read one Mat(tau^-1)
    assert phitau.integral_twist(twisted) is twisted
    twisted._p_inverse
    counted["inverse"] = 0
    report, matches = phitau.descend(twisted, 12, c=-1)
    assert report.reached and matches
    assert counted["inverse"] == 1
    assert counted["identity"] == 1


def test_subtracting_id_builds_it_once_per_module(twisted, counted):
    # the level search, the fixed point, the direct check and both sweeps
    # subtract the module's one Id
    phitau.descend(twisted, 12)
    phitau.matrix_sh_test(twisted, 0, i_max=2)
    phitau.module_sh_test(twisted, 0, n=1, i_max=2)
    assert counted["identity"] == 1


def test_module_check_acts_on_p_once_per_element(module_file, counted):
    # one action on P for each of c = 1, 2, 3 (make_module's check keeps
    # tau.P, and the check for c = 1 reads it again) and one for each of
    # the two chain compositions, so tau(P) is computed once
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.dispatch(["module", "check", module_file]) == 0
    assert counted["act"] == 5


@pytest.mark.parametrize("c, a", [(1, 1), (3, 1), (-1, 1), (2, 4), (0, 4)])
def test_second_cocycle_check_acts_on_nothing(c, a, twisted, counted):
    g = galois.GroupElem(c, a)
    first = phitau.cocycle_check(twisted, g)
    built = dict(counted)
    assert phitau.cocycle_check(twisted, g) == first
    assert counted == built


def test_second_fixed_point_acts_on_nothing(twisted, counted):
    r = phitau.minimal_descent_radius(twisted)
    g = galois.tau(3 ** phitau.minimal_descent_level(twisted, r))
    first = phitau.descend_fixed_point(twisted, g, r, 8)
    built = dict(counted)
    assert built["act"] >= 1
    assert phitau.descend_fixed_point(twisted, g, r, 8) == first
    assert counted == built
