"""Command-line interface.

Subcommands: eval, val, act, sh-test, sh-estimate, deperfect,
module (gen | check | descend | sh), newton, selftest.

Exit codes: 0 on success or a passing test, 1 when a test fails or a
counterexample is found, 2 when the result is inconclusive, 3 on usage
or parse errors.  Exit 2 is the `errors.Inconclusive` family: a cap, a
precision or a group accuracy ran out before anything was certified or
refuted (an exponent beyond the denominator cap, a difference or an
inverse that vanished to precision; for a fit, `holder.fit_levels` raises
DegenerateOrbit at level 0 and PrecisionRequired at a later level).
Every other `TiltedError` exits 1.  The input rules live in the library,
which raises ValueError or ParseError (exit 3): p and cap in
`ring.check_ring`, which every command that takes --cap reaches before
any work (`newton` checks its own p), and the fit horizon, three levels
(--imax >= 2), in `holder.check_fit_horizon`, run by `holder.fit_levels`.

Every series command (eval, val, act, sh-test, sh-estimate, deperfect)
reads its x through `_series`, which cuts it at --prec.  Output is JSON
on stdout with a "schema" field; rationals are rendered as "a/b" strings
so that results are exact and byte-stable.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from fractions import Fraction

from . import galois, holder, newton, phitau, ring
from .errors import Inconclusive, ParseError, TiltedError
from .holder import FamilyKind, PPow, Status, SubgroupFamily

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 3

SCHEMA = 1


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _frac(q) -> str | None:
    return None if q is None else str(Fraction(q))


def _ppow(b: PPow) -> str:
    if b.s == 0:
        return _frac(b.q)
    return f"{_frac(b.q)}*p^{{{_frac(b.s)}}}"


_GROUP_RE = re.compile(r"tau(?:\^(-?\d+))?|gamma_(-?\d+)")


def parse_group(text: str) -> galois.GroupElem:
    """Literals like "tau", "tau^3", "gamma_4", "tau^2*gamma_4"."""
    g = galois.IDENTITY
    for part in text.replace(" ", "").split("*"):
        m = _GROUP_RE.fullmatch(part)
        if not m:
            raise ParseError(f"bad group element {part!r}")
        if m.group(2) is not None:
            g = galois.compose(g, galois.gamma(int(m.group(2))))
        else:
            g = galois.compose(g, galois.tau(int(m.group(1) or 1)))
    return g


# the braces around the p-exponent come both or neither
_PPOW_RE = re.compile(r"(-?\d+(?:/\d+)?)(?:\*p\^(\{)?(-?\d+(?:/\d+)?)(?(2)\}))?")


def parse_ppow(text: str) -> PPow:
    """Exponent literals "3/2", "3/2*p^{1/2}" or "3/2*p^2"."""
    m = _PPOW_RE.fullmatch(text.replace(" ", ""))
    if not m:
        raise ParseError(f"bad exponent {text!r}")
    try:
        return PPow(Fraction(m.group(1)), Fraction(m.group(3) or 0))
    except ZeroDivisionError:
        raise ParseError(f"zero denominator in exponent {text!r}") from None


def _emit(obj) -> None:
    sys.stdout.write(json.dumps({"schema": SCHEMA, **obj}) + "\n")


def _series_obj(x) -> dict:
    return {
        "series": ring.format_series(x),
        "val": _frac(x.val()),
        "prec": _frac(x.prec),
    }


def _fraction(text) -> Fraction:
    """The argparse type of every rational option: a bad literal, a zero
    denominator included, is a usage error and never a traceback."""
    try:
        return Fraction(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid Fraction value: {text!r}") from None
    except ZeroDivisionError:
        raise argparse.ArgumentTypeError(f"zero denominator in {text!r}") from None


def _add_ring_args(sub, prec_default=None):
    sub.add_argument("--p", type=int, default=3, help="the prime (default 3)")
    sub.add_argument(
        "--cap", type=int, default=ring.DEFAULT_DENOM_CAP,
        help="exponent denominator cap: denominators divide p^cap",
    )
    sub.add_argument(
        "--prec", type=_fraction, default=prec_default,
        help="precision cap as a rational valuation",
    )


def _command(sub, name, run, help):
    """The parser of the command `name`, whose body `dispatch` calls as
    `run(args)`."""
    s = sub.add_parser(name, help=help)
    s.set_defaults(run=run)
    return s


def _series_parser(sub, name, run, help, *first):
    """The parser of a series command: the positionals `first`, each a
    (name, help) pair, then x and the ring options."""
    s = _command(sub, name, run, help)
    for dest, text in first:
        s.add_argument(dest, help=text)
    s.add_argument("x")
    _add_ring_args(s)
    return s


def _series(args):
    """The x of a series command, cut at --prec."""
    return ring.parse_series(args.x, args.p, args.cap).truncate(args.prec)


def _family(args) -> SubgroupFamily:
    kind = FamilyKind.TAU if args.family == "tau" else FamilyKind.GAMMA
    return SubgroupFamily(kind, args.k)


_STATUS_EXIT = {
    Status.PASS: EXIT_OK,
    Status.FAIL: EXIT_FAIL,
    Status.INCONCLUSIVE: EXIT_INCONCLUSIVE,
}


@functools.cache
def _build_parser() -> _Parser:
    """The argument parser, built at the first `dispatch` and reused:
    `parse_args` returns a fresh Namespace and every default is
    immutable, so no call sees another's arguments."""
    parser = _Parser(prog="tilted")
    sub = parser.add_subparsers(dest="command", required=True)

    _series_parser(sub, "eval", _cmd_eval, "parse a series and print its canonical form")
    _series_parser(sub, "val", _cmd_val, "valuation of a series")
    _series_parser(
        sub, "act", _cmd_act, "apply a group element to a series",
        ("g", 'group element, e.g. "tau^2*gamma_4"'),
    )

    s = _series_parser(sub, "sh-test", _cmd_sh_test, "certify a continuity bound on an orbit")
    s.add_argument("--family", choices=("tau", "gamma"), default="tau")
    s.add_argument("--k", type=int, default=0, help="base subgroup level")
    s.add_argument("--plambda", required=True, help='exponent, e.g. "3/2" or "3/2*p^{1/2}"')
    s.add_argument("--mu", type=_fraction, required=True)
    s.add_argument("--imax", type=int, default=3)
    s.add_argument(
        "--refute", action="store_true",
        help="look for a nonmembership witness instead of certifying",
    )

    s = _series_parser(sub, "sh-estimate", _cmd_sh_estimate, "fit the orbit exponent from level minima")
    s.add_argument("--family", choices=("tau", "gamma"), default="tau")
    s.add_argument("--k", type=int, default=0)
    s.add_argument("--imax", type=int, default=3)

    _series_parser(sub, "deperfect", _cmd_deperfect, "least Frobenius power landing in kappa((t))")

    m = sub.add_parser("module", help="(phi,tau)-module operations")
    msub = m.add_subparsers(dest="module_command", required=True)

    s = _command(msub, "gen", _cmd_module_gen, "generate a base-change test module")
    s.add_argument("--d", type=int, default=2)
    s.add_argument("--seed", type=int, default=0)
    _add_ring_args(s, prec_default=Fraction(24))
    s.add_argument("--out", help="write the module file here instead of stdout")

    s = _command(msub, "check", _cmd_module_check, "verify the cocycle identity")
    s.add_argument("file")
    s.add_argument("--c", type=int, action="append", help="tau powers to test (repeatable)")

    s = _command(msub, "descend", _cmd_module_descend, "recover Mat(g) = Id + t^r H by iteration")
    s.add_argument("file")
    s.add_argument("--c", type=int, help="tau power (default: minimal adequate level)")
    s.add_argument("--r", type=int, help="radius (default: minimal adequate)")
    s.add_argument("--target", type=_fraction, default=Fraction(12))

    s = _command(msub, "sh", _cmd_module_sh, "orbit exponents of the basis vectors")
    s.add_argument("file")
    s.add_argument("--k", type=int, default=0)
    s.add_argument("--n", type=int, default=0, help="scale coordinates by t^(1/p^n)")
    s.add_argument("--imax", type=int, default=2)

    s = _command(sub, "newton", _cmd_newton, "Newton polygon of a Kummer tower step")
    s.add_argument("--p", type=int, default=3)
    s.add_argument("--eK", type=int, default=1)
    s.add_argument("--n", type=int, default=0)

    s = _command(sub, "selftest", _cmd_selftest, "run the acceptance criteria")
    s.add_argument("--only", action="append", help="criterion identifier (repeatable)")

    return parser


# -- command bodies ---------------------------------------------------


def _cmd_eval(args) -> int:
    _emit(_series_obj(_series(args)))
    return EXIT_OK


def _cmd_val(args) -> int:
    x = _series(args)
    _emit({"val": _frac(x.val()), "floor": _frac(x.val_floor())})
    return EXIT_OK


def _cmd_act(args) -> int:
    x = _series(args)
    _emit(_series_obj(galois.act(parse_group(args.g), x)))
    return EXIT_OK


def _cmd_sh_test(args) -> int:
    x = _series(args)
    fam = _family(args)
    plam = parse_ppow(args.plambda)
    if args.refute:
        rep = holder.nonmembership_witness(x, fam, plam, args.imax)
        _emit(
            {
                "refuted": rep.refuted,
                "levels": [_frac(v) for v in rep.levels],
                "plambda": _ppow(rep.plam),
                "first_decrease": rep.first_decrease,
            }
        )
        # a found witness is the success of this query
        return EXIT_OK if rep.refuted else EXIT_FAIL
    verdict = holder.sh_test(x, fam, plam, args.mu, args.imax)
    _emit(
        {
            "status": verdict.status.value,
            "margins": [
                {
                    "i": lm.i,
                    "observed": _frac(lm.observed),
                    "floor": _frac(lm.observed_floor),
                    "bound": _ppow(lm.bound),
                    "mu": _frac(lm.mu),
                }
                for lm in verdict.margins
            ],
        }
    )
    return _STATUS_EXIT[verdict.status]


def _cmd_sh_estimate(args) -> int:
    est = holder.sh_estimate(_series(args), _family(args), args.imax)
    _emit(
        {
            "plambda_hat": _frac(est.plam_hat),
            "mu_hat": _frac(est.mu_hat),
            "consistent": est.consistent,
            "levels": [_frac(v) for v in est.levels],
        }
    )
    return EXIT_OK if est.consistent else EXIT_INCONCLUSIVE


def _cmd_deperfect(args) -> int:
    _emit({"level": holder.deperfection_level(_series(args))})
    return EXIT_OK


def _cmd_module_gen(args) -> int:
    mod = phitau.basechange_generate(args.d, seed=args.seed, p=args.p, cap=args.cap, prec=args.prec)
    text = phitau.module_to_text(mod)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        _emit({"out": args.out, "d": mod.d, "p": mod.p, "seed": args.seed})
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _load_module(path):
    with open(path) as fh:
        return phitau.module_from_text(fh.read())


def _cmd_module_check(args) -> int:
    mod = _load_module(args.file)
    powers = args.c or [1, 2, 3]
    results = []
    all_ok = True
    for c in powers:
        ok, floor = phitau.cocycle_check(mod, galois.tau(c))
        results.append({"c": c, "ok": ok, "residual_floor": _frac(floor)})
        all_ok = all_ok and ok
    _emit({"ok": all_ok, "checks": results})
    return EXIT_OK if all_ok else EXIT_FAIL


def _cmd_module_descend(args) -> int:
    rep, matches = phitau.descend(_load_module(args.file), args.target, r=args.r, c=args.c)
    _emit(
        {
            "r": rep.r,
            "c": rep.c,
            "iterations": rep.iterations,
            "q_val": _frac(rep.q_val),
            "residual": _frac(rep.residual_val),
            "matches_direct": matches,
            "h": [[ring.format_series(e) for e in row] for row in rep.h.rows],
        }
    )
    return EXIT_OK if matches else EXIT_FAIL


def _levels(levels):
    return None if levels is None else [_frac(v) for v in levels]


def _fit(fit):
    if fit is None:
        return None
    plam, mu, consistent = fit
    return {"plambda": _frac(plam), "mu": _frac(mu), "consistent": consistent}


def _cmd_module_sh(args) -> int:
    mod = _load_module(args.file)
    reports = phitau.module_sh_test(mod, args.k, n=args.n, i_max=args.imax)
    consistent = True
    out = []
    for rep in reports:
        consistent = consistent and rep.tau_fit[2] and (rep.tilde_fit is None or rep.tilde_fit[2])
        out.append(
            {
                "j": rep.j,
                "basis_levels": _levels(rep.tau_levels),
                "lattice_levels": _levels(rep.tilde_levels),
                "basis_fit": _fit(rep.tau_fit),
                "lattice_fit": _fit(rep.tilde_fit),
            }
        )
    _emit({"consistent": consistent, "vectors": out})
    return EXIT_OK if consistent else EXIT_INCONCLUSIVE


def _cmd_newton(args) -> int:
    ok, slope, polygon = newton.verify_elementary(args.p, args.eK, args.n)
    _emit(
        {
            "elementary": ok,
            "slope": _frac(slope),
            "expected_slope": _frac(
                -Fraction(newton.ramification_break(args.p, args.eK, args.n), args.p**args.n)
            ),
            "vertices": [{"k": v.k, "v": _frac(v.v)} for v in polygon.vertices],
            "segments": [
                {"slope": _frac(s.slope), "length": s.length} for s in polygon.segments
            ],
            "dropped": [v.k for v in polygon.dropped],
        }
    )
    return EXIT_OK if ok else EXIT_FAIL


def _cmd_selftest(args) -> int:
    # imported here: no other command needs the criteria's module
    from . import selftest

    results = selftest.run(set(args.only) if args.only else None)
    _emit(
        {
            "passed": all(r.passed for r in results),
            "results": [
                {"id": r.ident, "title": r.title, "passed": r.passed, "detail": r.detail}
                for r in results
            ],
        }
    )
    return EXIT_OK if all(r.passed for r in results) else EXIT_FAIL


def dispatch(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    try:
        return args.run(args)
    except (ParseError, ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except Inconclusive as exc:
        sys.stderr.write(f"inconclusive: {exc}\n")
        return EXIT_INCONCLUSIVE
    except TiltedError as exc:
        sys.stderr.write(f"failed: {exc}\n")
        return EXIT_FAIL


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
