import contextlib
import io
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tilted import cli, errors, galois, phitau, ring
from tilted.errors import Inconclusive, ParseError


def run(capsys, *argv):
    code = cli.dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, _ = run(capsys, *argv)
    return code, json.loads(out)


class TestLiterals:
    def test_group_parse(self):
        g = cli.parse_group("tau^2*gamma_4")
        assert (g.c, g.a) == (2, 4)
        assert cli.parse_group("tau") == galois.tau(1)
        assert cli.parse_group("gamma_-2").a == -2

    def test_group_parse_composes_left_to_right(self):
        g = cli.parse_group("gamma_4*tau")
        assert (g.c, g.a) == (4, 4)

    def test_group_rejects(self):
        with pytest.raises(ParseError):
            cli.parse_group("sigma^2")

    def test_ppow_parse(self):
        b = cli.parse_ppow("3/2*p^{1/2}")
        assert (b.q, b.s) == (Fraction(3, 2), Fraction(1, 2))
        assert cli.parse_ppow("5").s == 0

    def test_ppow_rejects(self):
        with pytest.raises(ParseError):
            cli.parse_ppow("p^x")


class TestBasicCommands:
    def test_eval(self, capsys):
        code, obj = run_json(capsys, "eval", "t^2+u+t")
        assert code == 0
        assert obj == {"schema": 1, "series": "t + u + t^{2}", "val": "1", "prec": None}

    def test_val(self, capsys):
        code, obj = run_json(capsys, "val", "u^{1/3}")
        assert code == 0
        assert obj["val"] == "1/2"

    def test_act(self, capsys):
        code, obj = run_json(capsys, "act", "tau", "t", "--prec", "4")
        assert code == 0
        assert obj["series"] == "t + u*t + O(4)"

    def test_parse_error_is_exit_3(self, capsys):
        code, out, err = run(capsys, "eval", "%%%")
        assert code == 3 and out == "" and "error" in err

    def test_zero_denominator_is_exit_3(self, capsys):
        code, out, err = run(capsys, "eval", "t^{1/0}")
        assert code == 3 and out == "" and err.startswith("error:")

    def test_usage_error_is_exit_3(self, capsys):
        code, _, _ = run(capsys, "no-such-command")
        assert code == 3

    @pytest.mark.parametrize(
        "argv",
        [
            ["eval", "t", "--p", "1"],
            ["eval", "t", "--p", "0"],
            ["eval", "t", "--p", "4"],
            ["eval", "t", "--p", "-3"],
            ["newton", "--p", "9"],
            ["eval", "t", "--cap", "-1"],
            ["eval", "t", "--cap", "65"],
            ["module", "gen", "--p", "1"],
        ],
        ids=lambda argv: " ".join(argv),
    )
    def test_bad_p_or_cap_is_exit_3(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 3 and out == "" and err.startswith("error:")

    def test_cap_exceeded_is_exit_2(self, capsys):
        code, out, err = run(capsys, "eval", "t^{1/2187}")
        assert code == 2 and out == ""
        assert err == "inconclusive: exponent 1/2187 needs denominator p^7 > p^6\n"

    def test_deterministic_output(self, capsys):
        _, out1, _ = run(capsys, "act", "tau^2*gamma_4", "t+u", "--prec", "9")
        _, out2, _ = run(capsys, "act", "tau^2*gamma_4", "t+u", "--prec", "9")
        assert out1 == out2


class TestShCommands:
    def test_pass(self, capsys):
        code, obj = run_json(capsys, "sh-test", "t", "--plambda", "3/2", "--mu", "1")
        assert code == 0 and obj["status"] == "pass"

    def test_fail(self, capsys):
        code, obj = run_json(capsys, "sh-test", "t", "--plambda", "3/2", "--mu", "2")
        assert code == 1 and obj["status"] == "fail"

    def test_inconclusive(self, capsys):
        code, obj = run_json(
            capsys, "sh-test", "t+O(3)", "--plambda", "3/2", "--mu", "1"
        )
        assert code == 2 and obj["status"] == "inconclusive"

    @pytest.mark.parametrize("plambda", ["-1*p^{1/2}", "0", "-3/2"])
    def test_nonpositive_plambda_is_exit_3(self, capsys, plambda):
        code, out, err = run(
            capsys, "sh-test", "t", f"--plambda={plambda}", "--mu", "0"
        )
        assert code == 3 and out == "" and err.startswith("error:")

    def test_negative_imax_is_exit_3(self, capsys):
        code, out, err = run(
            capsys, "sh-test", "t", "--plambda", "3/2", "--mu", "1", "--imax", "-1"
        )
        assert code == 3 and out == "" and err.startswith("error:")

    @pytest.mark.parametrize("imax", ["0", "-1"])
    def test_refute_without_two_levels_is_exit_3(self, capsys, imax):
        code, out, err = run(
            capsys, "sh-test", "t", "--plambda", "3/2", "--mu", "1", "--refute", "--imax", imax
        )
        assert code == 3 and out == "" and err.startswith("error:")

    def test_refute(self, capsys):
        code, obj = run_json(
            capsys, "sh-test", "t", "--plambda", "3/2*p^{1/2}", "--mu", "0", "--refute"
        )
        assert code == 0 and obj["refuted"] is True

    def test_estimate(self, capsys):
        code, obj = run_json(capsys, "sh-estimate", "t^{1/3}")
        assert code == 0
        assert obj["plambda_hat"] == "1/2" and obj["consistent"] is True

    def test_estimate_degenerate_is_exit_2(self, capsys):
        code, _, err = run(capsys, "sh-estimate", "u")
        assert code == 2 and "inconclusive" in err

    def test_deperfect(self, capsys):
        code, obj = run_json(capsys, "deperfect", "t^{1/9}")
        assert code == 0 and obj["level"] == 2

    def test_deperfect_cuts_at_prec(self, capsys):
        # x is cut at --prec as in every series command: both terms lie at
        # valuation >= 1, so x is O(1), as `eval` prints it
        argv = ["t + t^{10/9}", "--prec", "1"]
        assert run_json(capsys, "eval", *argv)[1]["series"] == "O(1)"
        assert run_json(capsys, "deperfect", *argv) == (0, {"schema": 1, "level": 0})


class TestModuleCommands:
    @pytest.fixture
    def module_file(self, tmp_path, capsys):
        path = tmp_path / "m.mod"
        code, _ = run_json(
            capsys, "module", "gen", "--d", "2", "--seed", "4", "--out", str(path)
        )
        assert code == 0
        return str(path)

    def test_gen_stdout(self, capsys):
        code, out, _ = run(capsys, "module", "gen", "--d", "1", "--seed", "3")
        assert code == 0
        assert out.startswith("p=3 d=1 prec=24 cap=6\n[P]\n")

    def test_seed_is_read_from_argv_only(self, capsys, monkeypatch):
        _, base, _ = run(capsys, "module", "gen", "--d", "1", "--seed", "0")
        monkeypatch.setenv("TILTED_SEED", "3")
        _, out, _ = run(capsys, "module", "gen", "--d", "1", "--seed", "0")
        assert out == base

    def test_check(self, capsys, module_file):
        code, obj = run_json(capsys, "module", "check", module_file, "--c", "2")
        assert code == 0 and obj["ok"] is True

    @pytest.mark.parametrize(
        "text",
        [
            "p=3 d=2 prec=24 cap=6\n",
            "p=3 d=0 prec=24 cap=6\n[P]\n[tau]\n",
            "p=1 d=1 prec=24 cap=6\n[P]\n1\n[tau]\n1\n",
            "p=3 d=1 prec=24 cap=65\n[P]\n1\n[tau]\n1\n",
        ],
        ids=["header-only", "d=0", "p=1", "cap=65"],
    )
    def test_bad_module_file_is_exit_3(self, capsys, tmp_path, text):
        path = tmp_path / "bad.mod"
        path.write_text(text)
        code, out, err = run(capsys, "module", "check", str(path))
        assert code == 3 and out == "" and err.startswith("error:")

    def test_check_missing_file(self, capsys):
        code, _, _ = run(capsys, "module", "check", "/no/such/file")
        assert code == 3

    def test_descend(self, capsys, module_file):
        code, obj = run_json(capsys, "module", "descend", module_file, "--target", "8")
        assert code == 0 and obj["matches_direct"] is True

    @pytest.mark.parametrize(
        "text",
        [
            "p=3 d=1 prec=24 cap=6\n[P]\nt^{18}\n[tau]\n1 + u^{9} + O(15)\n[lattice]\nt^{-9}\n",
            "p=3 d=1 prec=24 cap=6\n[P]\nt^{24}\n[tau]\n1 + u^{3} + O(12)\n[lattice]\nt^{-12}\n",
            "p=5 d=1 prec=24 cap=6\n[P]\nt^{20}\n[tau]\n1 + u^{5} + O(19)\n[lattice]\nt^{-5}\n",
        ],
        ids=["B=t^9 p=3", "B=t^12 p=3", "B=t^5 p=5"],
    )
    def test_descend_lowers_large_val(self, capsys, tmp_path, text):
        # the trivial module along B = (t^e), so P = t^(e(p-1)): the twist
        # lowers P to Id, and the descent certifies at r = 1 (a twist that
        # only raised P left r = e(p-1) + 1, and the run exited 2)
        path = tmp_path / "trivial.mod"
        path.write_text(text)
        code, obj = run_json(capsys, "module", "descend", str(path), "--target", "6")
        assert code == 0
        assert (obj["r"], obj["c"], obj["matches_direct"]) == (1, 1, True)

    def test_descend_short_of_target_is_exit_2(self, capsys, tmp_path):
        # B = diag(t^-1, t^2, 1, 1) spreads the exponents: the descent
        # radius is 7, and prec 24 runs out before residual 12
        p, cap, exps = 3, 6, (-1, 2, 0, 0)

        def diag(sign):
            return phitau.MatSeries.from_rows(
                [
                    [
                        ring.monomial(p, cap, 1, 0, sign * exps[a]) if a == b else ring.zero(p, cap)
                        for b in range(4)
                    ]
                    for a in range(4)
                ]
            )

        mod = phitau.basechange_from_matrix(diag(1), diag(-1), 24)
        assert phitau.minimal_descent_radius(phitau.integral_twist(mod)) == 7
        path = tmp_path / "spread.mod"
        path.write_text(phitau.module_to_text(mod))
        code, out, err = run(capsys, "module", "descend", str(path), "--target", "12")
        assert code == 2 and out == ""
        assert err.startswith("inconclusive:") and "residual 11 < target 12" in err

    @pytest.mark.parametrize(
        "option", [["--target", "0"], ["--target", "-3"], ["--r", "0"], ["--r", "-2"]], ids=" ".join
    )
    def test_descend_out_of_range_is_exit_3(self, capsys, module_file, option):
        # val(H) >= 0 always holds, so a target <= 0 would certify nothing
        code, out, err = run(capsys, "module", "descend", module_file, *option)
        assert code == 3 and out == "" and err.startswith("error:")

    @pytest.fixture
    def seed5_file(self, tmp_path, capsys):
        # Mat(tau^27) - Id has floor 23, an O(.) cap no known term attains
        path = tmp_path / "m5.mod"
        code, _ = run_json(capsys, "module", "gen", "--d", "2", "--seed", "5", "--out", str(path))
        assert code == 0
        return str(path)

    @pytest.mark.parametrize(
        "option", [["--r", "24"], ["--r", "30"], ["--c", "27", "--r", "30"]], ids=" ".join
    )
    def test_descend_vanished_to_precision_is_exit_2(self, capsys, seed5_file, option):
        code, out, err = run(capsys, "module", "descend", seed5_file, *option)
        assert code == 2 and out == ""
        assert err.startswith("inconclusive:") and "vanishes to precision" in err

    def test_descend_known_term_below_radius_is_exit_1(self, capsys, seed5_file):
        code, out, err = run(capsys, "module", "descend", seed5_file, "--c", "9", "--r", "30")
        assert code == 1 and out == ""
        assert err == "failed: val(Mat(g) - Id) = 27/2 < r = 30; raise the level of g\n"

    def test_sh(self, capsys, module_file):
        code, obj = run_json(capsys, "module", "sh", module_file)
        assert code == 0 and obj["consistent"] is True
        fit = obj["vectors"][0]["basis_fit"]
        assert fit["plambda"] == "3/2"

    @pytest.mark.parametrize("imax", ["0", "-1"])
    def test_sh_without_two_levels_is_exit_3(self, capsys, module_file, imax):
        code, out, err = run(capsys, "module", "sh", module_file, "--imax", imax)
        assert code == 3 and out == "" and err.startswith("error:")

    @pytest.mark.parametrize("option", ["--k", "--n"])
    def test_sh_negative_k_or_n_is_exit_3(self, capsys, module_file, option):
        code, out, err = run(capsys, "module", "sh", module_file, option, "-1")
        assert code == 3 and out == "" and err.startswith("error:")

    def test_sh_without_lattice(self, capsys, module_file, tmp_path):
        with open(module_file) as fh:
            text = fh.read()
        path = tmp_path / "bare.mod"
        path.write_text(text.split("[lattice]")[0])
        code, obj = run_json(capsys, "module", "sh", str(path))
        _, want = run_json(capsys, "module", "sh", module_file)
        assert code == 0 and obj["consistent"] is True
        for vec, full in zip(obj["vectors"], want["vectors"]):
            assert vec["lattice_levels"] is None and vec["lattice_fit"] is None
            assert vec["basis_levels"] == full["basis_levels"]
            assert vec["basis_fit"] == full["basis_fit"]

    def test_sh_vanished_to_precision_is_exit_2(self, capsys, tmp_path):
        # a basis vector that tau fixes to precision refutes nothing, so
        # `module sh` is inconclusive there: over the generated grid every
        # run passes or exits 2, and `--d 1 --seed 1` (P = 1) exits 2
        path = str(tmp_path / "m.mod")
        codes = {}
        for d in range(1, 7):
            for seed in range(10):
                run(capsys, "module", "gen", "--d", str(d), "--seed", str(seed), "--out", path)
                code, out, err = run(capsys, "module", "sh", path)
                assert code in (0, 2), (d, seed, err)
                if code == 2:
                    assert out == "" and err.startswith("inconclusive:"), (d, seed, err)
                codes[d, seed] = code
        assert codes[1, 1] == 2 and set(codes.values()) == {0, 2}

    def test_sh_column_known_only_to_its_cap_is_exit_2(self, capsys, tmp_path):
        # at level 2 a lattice column is (O(5), u^{3}*t^{4/3} + O(19/3)):
        # only >= 5 is certified, so nothing is fitted at 35/6
        path = str(tmp_path / "m.mod")
        run(capsys, "module", "gen", "--d", "2", "--seed", "5", "--p", "3", "--prec", "6", "--out", path)
        code, out, err = run(capsys, "module", "sh", path, "--n", "1")
        assert (code, out) == (2, "")
        assert err == "inconclusive: orbit differences vanish to precision at level 2 of 0..2\n"


class TestZeroDenominators:
    """A zero denominator in any rational argument or module header is a
    usage error (exit 3), not a ZeroDivisionError traceback."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["eval", "t", "--prec", "1/0"],
            ["val", "t", "--prec", "1/0"],
            ["act", "tau", "t", "--prec", "1/0"],
            ["sh-test", "t", "--plambda", "3/2", "--mu", "1", "--prec", "1/0"],
            ["sh-estimate", "t", "--prec", "1/0"],
            ["deperfect", "t", "--prec", "1/0"],
            ["sh-test", "t", "--plambda", "3/2", "--mu", "1/0"],
            ["sh-test", "t", "--plambda", "1/0", "--mu", "0"],
            ["sh-test", "t", "--plambda", "3/2*p^{1/0}", "--mu", "0"],
            ["module", "gen", "--prec", "1/0"],
        ],
        ids=lambda argv: " ".join(argv),
    )
    def test_option_is_exit_3(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 3 and out == "" and err.startswith("error:") and "zero denominator" in err

    def test_descend_target_is_exit_3(self, capsys, tmp_path):
        path = tmp_path / "m.mod"
        path.write_text(phitau.module_to_text(phitau.basechange_generate(1, seed=1)))
        code, out, err = run(capsys, "module", "descend", str(path), "--target", "1/0")
        assert code == 3 and out == "" and err.startswith("error:") and "zero denominator" in err

    def test_module_header_prec_is_exit_3(self, capsys, tmp_path):
        path = tmp_path / "m.mod"
        path.write_text("p=3 d=1 prec=1/0 cap=6\n[P]\n1\n[tau]\n1\n")
        code, out, err = run(capsys, "module", "check", str(path))
        assert code == 3 and out == "" and err == "error: bad header prec=1/0\n"

    def test_module_header_int_is_exit_3(self, capsys, tmp_path):
        path = tmp_path / "m.mod"
        path.write_text("p=x d=1 prec=12 cap=6\n[P]\n1\n[tau]\n1\n")
        code, out, err = run(capsys, "module", "check", str(path))
        assert code == 3 and out == "" and err == "error: bad header p=x\n"

    def test_other_bad_rational_keeps_its_message(self, capsys):
        code, _, err = run(capsys, "eval", "t", "--prec", "abc")
        assert code == 3 and err == "error: argument --prec: invalid Fraction value: 'abc'\n"

    def test_ppow_literal(self):
        with pytest.raises(ParseError, match="zero denominator"):
            cli.parse_ppow("3/2*p^{1/0}")


class TestParserReuse:
    """`dispatch` builds its argparse tree once per process; back-to-back
    calls must not see each other's options."""

    def test_import_builds_no_parser(self):
        src = str(Path(cli.__file__).resolve().parents[1])
        out = subprocess.run(
            [sys.executable, "-c", "import tilted.cli as c; print(c._build_parser.cache_info().currsize)"],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            check=True,
        ).stdout
        assert out == "0\n"

    def test_parser_is_built_once(self, capsys):
        run(capsys, "eval", "t")
        assert cli._build_parser() is cli._build_parser()

    def test_append_option_does_not_carry_over(self, capsys, tmp_path):
        path = tmp_path / "m.mod"
        path.write_text(phitau.module_to_text(phitau.basechange_generate(1, seed=1)))
        _, first = run_json(capsys, "module", "check", str(path), "--c", "2")
        _, second = run_json(capsys, "module", "check", str(path))
        assert [c["c"] for c in first["checks"]] == [2]
        assert [c["c"] for c in second["checks"]] == [1, 2, 3]

    def test_flag_does_not_carry_over(self, capsys):
        argv = ["sh-test", "t", "--plambda", "3/2*p^{1/2}", "--mu", "0"]
        _, refuted = run_json(capsys, *argv, "--refute")
        code, verdict = run_json(capsys, *argv)
        assert "refuted" in refuted and "status" not in refuted
        assert code == 1 and verdict["status"] == "fail" and "refuted" not in verdict

    def test_selftest_selection_does_not_carry_over(self, capsys):
        _, first = run_json(capsys, "selftest", "--only", "refutation")
        _, second = run_json(capsys, "selftest", "--only", "deperfection")
        assert [r["id"] for r in first["results"]] == ["refutation"]
        assert [r["id"] for r in second["results"]] == ["deperfection"]

    def test_prime_does_not_carry_over(self, capsys):
        _, at5 = run_json(capsys, "eval", "4", "--p", "5")
        _, at3 = run_json(capsys, "eval", "4")
        assert (at5["series"], at3["series"]) == ("4", "1")


class TestModuleEntryPoint:
    """``python -m tilted`` in a fresh process, which a hang cannot stall:
    the orbit sweeps refuse expansions too large to make, and print
    exponents too long for str() by their size, at exit 2 in well under
    the timeout."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["sh-test", "t", "--plambda", "3/2", "--mu", "1", "--imax", "1000000"],
             "exact expansion of (1+u)^177147 is too large"),
            (["sh-test", "t", "--plambda", "3/2", "--mu", "1", "--k", "1000000"],
             "exact expansion of (1+u)^m, m of more than 4300 digits, is too large"),
            (["sh-estimate", "t", "--k", "1000000"],
             "exact expansion of (1+u)^m, m of more than 4300 digits, is too large"),
            (["sh-test", "t^{-1}", "--plambda", "3/2", "--mu", "1", "--imax", "3"],
             "eps_pow with negative exponent needs a cap"),
        ],
    )
    def test_refusals_exit_2(self, argv, message):
        src = str(Path(cli.__file__).resolve().parents[1])
        run = subprocess.run(
            [sys.executable, "-m", "tilted", *argv],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            timeout=30,
        )
        message = message.replace("4300", str(sys.get_int_max_str_digits()))
        assert (run.returncode, run.stdout, run.stderr) == (2, "", f"inconclusive: {message}\n")

    def test_generator_expansion_certifies(self):
        # level 10's generator expands (1+u)^59049, which is made, and its
        # value holds for the whole level; sample m = 2's (1+u)^118098
        # would be refused
        argv = ["sh-test", "t", "--plambda", "3/2", "--mu", "1", "--k", "10", "--imax", "0"]
        run = TestHostileArgv.tilted(argv)
        assert run.returncode == 0 and run.stderr == "", run.stderr
        report = json.loads(run.stdout)
        assert report["status"] == "pass"
        assert [m["observed"] for m in report["margins"]] == ["177149/2"]


PSI_12 = "318665857834031151167461"  # 399165290221 * 798330580441
PSI_13 = "3317044064679887385961981"


class TestHostileArgv:
    """Inputs that could pass vacuously, take the wrong exit or run
    without bound, each in a fresh ``python -m tilted`` under a timeout:
    the exit code of the 0/1/2/3 contract, nothing on stdout, and one
    stderr line with that exit's prefix, never a traceback.  An argv
    word ``@name`` is the path of the module file `files` wrote."""

    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("hostile")
        texts = {
            # det P truncated to O(2) has no known term
            "prec2": phitau.module_to_text(phitau.basechange_generate(2, seed=0, prec=2)),
            "prec0": "p=3 d=1 prec=0 cap=6\n[P]\n1\n[tau]\n1\n",
            "d2": phitau.module_to_text(phitau.basechange_generate(2, seed=4)),
            # identity P and Mat(tau) at d = 24: a determinant has 2^24 minors
            "d24": "p=3 d=24 prec=24 cap=6\n" + "".join(
                f"[{name}]\n" + "".join("1\n" if i % 25 == 0 else "0\n" for i in range(24 * 24))
                for name in ("P", "tau")
            ),
        }
        for name, text in texts.items():
            (root / f"{name}.mod").write_text(text)
        return {f"@{name}": str(root / f"{name}.mod") for name in texts}

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["eval", "t", "--p", PSI_12], 3),
            (["eval", "t", "--p", PSI_13], 3),
            (["act", "gamma_2", "u^{-1}+O(1)"], 2),
            # refused before any row: (1+u)^(4*300000) is past the exact-power limit
            (["act", "gamma_4", "u^{300000}"], 2),
            # refused before any row: the inverse of the exact w^50000 has a tail
            (["act", "gamma_2", "u^{-50000}"], 2),
            (["module", "descend", "@prec2"], 2),
            (["module", "gen", "--prec", "0"], 3),
            (["module", "gen", "--complexity", "2"], 3),
            # refused before a d x d matrix or 2^d minors are formed
            (["module", "gen", "--d", "24"], 3),
            (["module", "check", "@d24"], 3),
            (["module", "check", "@prec0"], 3),
            (["sh-test", "t", "--plambda", "3/2*p^{1/2", "--mu", "0"], 3),
            (["sh-test", "t", "--plambda", "3/2*p^1/2}", "--mu", "0"], 3),
            (["newton", "--p", PSI_12], 3),
            (["newton", "--n", "100000"], 3),
            (["newton", "--n", "10000000"], 3),
            (["module", "sh", "@d2", "--imax", "1"], 3),
            # the chain builds its 3000 levels in a loop, not by recursion
            (["module", "sh", "@d2", "--k", "3000", "--imax", "2"], 2),
            # the chain stops at its fixed generator, far below level 30000
            (["module", "sh", "@d2", "--k", "30000", "--imax", "2"], 2),
            # c is read only below the fixed generator, not by its 300001 digits
            (["module", "sh", "@d2", "--k", "300000", "--imax", "2"], 2),
            # refused before p^100000 is built
            (["module", "sh", "@d2", "--n", "100000"], 2),
            (["sh-test", "t", "--plambda", "2", "--mu", "0", "--imax", "1", "--refute"], 3),
            # refused on the level 10^8 alone, before p^(10^8) is built
            (["sh-estimate", "t", "--k", "100000000", "--imax", "3"], 2),
            (
                ["sh-test", "t", "--plambda", "3/2", "--mu", "0", "--k", "100000000", "--imax", "3", "--refute"],
                2,
            ),
            # refused by the sign of t^-1's exponent, before p^(10^8) is built
            (["sh-estimate", "t^{-1}", "--k", "100000000", "--imax", "3"], 2),
            # level 1 vanishes to precision: nothing was refuted
            (["sh-test", "t+O(5)", "--plambda", "2", "--mu", "0", "--imax", "2", "--refute"], 2),
        ],
        ids=lambda v: " ".join(v) if isinstance(v, list) else str(v),
    )
    def test_exit_contract(self, files, argv, code):
        run = self.tilted([files.get(a, a) for a in argv])
        prefix = {2: "inconclusive: ", 3: "error: "}[code]
        assert run.returncode == code, run.stderr
        assert run.stdout == "" and "Traceback" not in run.stderr
        assert run.stderr.startswith(prefix) and run.stderr.count("\n") == 1

    @pytest.mark.parametrize("command, key", [("check", "ok"), ("descend", "matches_direct")])
    def test_huge_tau_power(self, files, command, key):
        # Mat(tau^(3^500)) takes 500 chain levels, built in a loop
        run = self.tilted(["module", command, files["@d2"], "--c", str(3**500)])
        assert run.returncode == 0 and run.stderr == "", run.stderr
        assert json.loads(run.stdout)[key] is True

    def test_tau_power_of_many_digits(self, files):
        # c has 8,500 base-3 digits: the chain composes them digit by digit
        # up to its fixed generator, and all those above it in one product
        c = random.Random(8500).randrange(3**8499, 3**8500)
        run = self.tilted(["module", "check", files["@d2"], "--c", str(c)])
        assert run.returncode == 0 and run.stderr == "", run.stderr
        assert json.loads(run.stdout)["ok"] is True

    def test_gamma_on_an_exact_power_of_dense_digits(self):
        # 39365 is 1222222222 in base 3: w^39365 is formed digit by digit,
        # not as the sum of its 39366 Lucas rows
        run = self.tilted(["act", "gamma_2", "u^{39365}"])
        assert run.returncode == 0 and run.stderr == "", run.stderr
        assert json.loads(run.stdout)["series"].startswith("2*u^{39365} + 2*u^{39366} + ")

    def test_capped_huge_level_passes(self):
        # each sample's shift p^(10^6 + 1) lies far past O(20), so no level
        # moves, and every bound lies below the certified floor 20
        argv = ["sh-test", "t+O(20)", "--plambda", "3/2", "--mu", "1", "--k", "1000000", "--imax", "2"]
        run = self.tilted(argv)
        assert run.returncode == 0 and run.stderr == "", run.stderr
        report = json.loads(run.stdout)
        assert report["status"] == "pass"
        assert [(m["observed"], m["floor"]) for m in report["margins"]] == [(None, "20")] * 3

    @pytest.mark.parametrize("exponent, code, status", [("100000000", 1, "fail"), ("-100000000", 0, "pass")])
    def test_huge_integer_exponent(self, exponent, code, status):
        # p^|e| >= 2^|e| decides each comparison before p^(10^8) is built
        run = self.tilted(["sh-test", "t", "--plambda", f"3/2*p^{{{exponent}}}", "--mu", "0", "--imax", "1"])
        assert run.returncode == code and run.stderr == "", run.stderr
        assert json.loads(run.stdout)["status"] == status

    def test_fractional_exponent_with_a_large_denominator(self):
        # num/den of each comparison is reduced before both sides are
        # raised to the power b = 10^6 of the exponent's denominator
        run = self.tilted(["sh-test", "t", "--plambda", "3/2*p^{1/1000000}", "--mu", "0", "--imax", "1"])
        assert run.returncode == 0 and run.stderr == "", run.stderr
        assert json.loads(run.stdout)["status"] == "pass"

    def test_dead_levels_end_in_time(self):
        cases = [
            # tau: every level from 3 on has vanished below O(20) with its
            # bound past the floor: level 3 makes the verdict inconclusive,
            # and the rest need no comparison
            ["t+O(20)", "--mu", "1"],
            # gamma: level 2's generator leaves no known term below O(20),
            # so no later level acts
            ["u+O(20)", "--family", "gamma", "--k", "1", "--mu", "0"],
        ]
        for argv in cases:
            run = self.tilted(["sh-test", *argv, "--plambda", "3/2", "--imax", "100000"])
            assert run.returncode == 2 and run.stderr == "", (argv, run.stderr)
            report = json.loads(run.stdout)
            assert report["status"] == "inconclusive"
            last = report["margins"][-1]
            assert (last["i"], last["observed"], last["floor"]) == (100000, None, "20")

    @staticmethod
    def tilted(argv):
        """A fresh ``python -m tilted *argv`` from this tree, under the
        class's 30 s timeout."""
        src = str(Path(cli.__file__).resolve().parents[1])
        return subprocess.run(
            [sys.executable, "-m", "tilted", *argv],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            timeout=30,
        )

    def test_inconclusive_family(self):
        # exactly these exit 2; every other TiltedError exits 1
        family = {c for c in vars(errors).values() if isinstance(c, type) and issubclass(c, Inconclusive)}
        assert family == {
            Inconclusive, errors.CapExceeded, errors.PrecisionRequired,
            errors.InsufficientGroupAccuracy, errors.DegenerateOrbit, errors.NonConvergence,
        }


class TestNewtonCommand:
    def test_elementary(self, capsys):
        code, obj = run_json(capsys, "newton", "--p", "5", "--eK", "1", "--n", "1")
        assert code == 0 and obj["elementary"] is True
        assert obj["slope"] == obj["expected_slope"]
        assert obj["dropped"] == [0]


class TestSelftestCommand:
    def test_selected_criteria(self, capsys):
        code, obj = run_json(
            capsys, "selftest", "--only", "refutation", "--only", "deperfection"
        )
        assert code == 0 and obj["passed"] is True
        assert sorted(r["id"] for r in obj["results"]) == ["deperfection", "refutation"]

    def test_unknown_criterion(self, capsys):
        code, _, _ = run(capsys, "selftest", "--only", "bogus")
        assert code == 3

    def test_selftest_is_imported_by_its_command_only(self):
        # every other command, and the CLI's own import, skip the module
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run(
            [sys.executable, "-c", "import sys, tilted.cli; print('tilted.selftest' in sys.modules)"],
            env=env, capture_output=True, text=True, check=True, timeout=30,
        ).stdout
        assert out == "False\n"
        run = subprocess.run(
            [sys.executable, "-m", "tilted", "selftest", "--only", "refutation"],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert run.returncode == 0, run.stderr
        assert json.loads(run.stdout)["passed"] is True


@pytest.fixture(scope="module")
def fuzz_module_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "m.mod"
    path.write_text(phitau.module_to_text(phitau.basechange_generate(2, seed=4)))
    return str(path)


SMALL = st.integers(-3, 3).map(str)


@settings(max_examples=150, deadline=None)
@given(
    st.one_of(
        st.tuples(st.just("module sh"), SMALL | st.sampled_from(["400", "3000"]), SMALL, SMALL),
        st.tuples(st.sampled_from(["t", "u", "t^{1/3}+u*t", "t+O(4)"]), SMALL, SMALL),
    )
)
def test_dispatch_never_raises(fuzz_module_file, case):
    if case[0] == "module sh":
        _, k, n, imax = case
        argv = ["module", "sh", fuzz_module_file, "--k", k, "--n", n, "--imax", imax]
    else:
        x, imax, k = case
        argv = ["sh-test", x, "--plambda", "3/2", "--mu", "1", "--refute", "--imax", imax, "--k", k]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert cli.dispatch(argv) in (0, 1, 2, 3)
