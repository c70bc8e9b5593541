"""Golden outputs of the README command-line examples.

The expected strings were captured from the Fraction-exponent ring core
that preceded the integer one; any change to the series text form, a
precision cap or the JSON layout shows up here as a byte difference.
"""

import pytest

from tilted import cli

GOLDEN = [
    (
        ["eval", "t^2+u+t"],
        '{"schema": 1, "series": "t + u + t^{2}", "val": "1", "prec": null}\n',
    ),
    (["val", "u^{1/3}"], '{"schema": 1, "val": "1/2", "floor": "1/2"}\n'),
    (
        ["act", "tau^2*gamma_4", "t^{1/3}", "--prec", "9"],
        '{"schema": 1, "series": "t^{1/3} + 2*u^{1/3}*t^{1/3} + u^{2/3}*t^{1/3} + O(9)", '
        '"val": "1/3", "prec": "9"}\n',
    ),
    (
        ["sh-test", "t", "--plambda", "3/2", "--mu", "1"],
        '{"schema": 1, "status": "pass", "margins": ['
        '{"i": 0, "observed": "5/2", "floor": "5/2", "bound": "3/2", "mu": "1"}, '
        '{"i": 1, "observed": "11/2", "floor": "11/2", "bound": "3/2*p^{1}", "mu": "1"}, '
        '{"i": 2, "observed": "29/2", "floor": "29/2", "bound": "3/2*p^{2}", "mu": "1"}, '
        '{"i": 3, "observed": "83/2", "floor": "83/2", "bound": "3/2*p^{3}", "mu": "1"}]}\n',
    ),
    (
        ["sh-test", "t", "--plambda", "3/2*p^{1/2}", "--mu", "0", "--refute"],
        '{"schema": 1, "refuted": true, "levels": ["5/2", "11/2", "29/2", "83/2"], '
        '"plambda": "3/2*p^{1/2}", "first_decrease": 0}\n',
    ),
    (
        ["sh-estimate", "t^{1/9}"],
        '{"schema": 1, "plambda_hat": "1/6", "mu_hat": "1/9", "consistent": true, '
        '"levels": ["5/18", "11/18", "29/18", "83/18"]}\n',
    ),
    (["deperfect", "t^{1/9}"], '{"schema": 1, "level": 2}\n'),
    # a cap off the key lattice prints sharpened to ceil(prec*(p-1)*p^cap)
    # / ((p-1)*p^cap), which cuts the same terms: 1/7 -> 209/1458 at p = 3
    (
        ["eval", "u + t + O(1/7)", "--p", "3"],
        '{"schema": 1, "series": "O(209/1458)", "val": null, "prec": "209/1458"}\n',
    ),
    (
        ["newton", "--p", "3", "--eK", "2", "--n", "1"],
        '{"schema": 1, "elementary": true, "slope": "-10/9", "expected_slope": "-10/9", '
        '"vertices": [{"k": 1, "v": "20/9"}, {"k": 3, "v": "0"}], '
        '"segments": [{"slope": "-10/9", "length": 2}], "dropped": [0]}\n',
    ),
]

MODULE_TEXT = """\
p=3 d=2 prec=24 cap=6
[P]
1 + 2*t^{2} + t^{4}
2*t + t^{3} + 2*t^{5} + t^{7}
t + 2*t^{3}
1 + t^{4} + 2*t^{6}
[tau]
1 + u*t^{2} + O(24)
u*t + u*t^{3} + u^{2}*t^{3} + O(24)
2*u*t + O(24)
1 + 2*u*t^{2} + 2*u^{2}*t^{2} + O(24)
[lattice]
1 + 2*t^{2}
2*t
t
1
"""

SH_VECTOR = (
    '"basis_levels": ["5/2", "11/2", "29/2"], "lattice_levels": ["5/2", "11/2", "29/2"], '
    '"basis_fit": {"plambda": "3/2", "mu": "1", "consistent": true}, '
    '"lattice_fit": {"plambda": "3/2", "mu": "1", "consistent": true}}'
)

MODULE_GOLDEN = [
    (
        ["check"],
        '{"schema": 1, "ok": true, "checks": ['
        '{"c": 1, "ok": true, "residual_floor": "24"}, '
        '{"c": 2, "ok": true, "residual_floor": "24"}, '
        '{"c": 3, "ok": true, "residual_floor": "24"}]}\n',
    ),
    (
        ["descend", "--target", "10"],
        '{"schema": 1, "r": 1, "c": 1, "iterations": 2, "q_val": "2", "residual": "43/2", '
        '"matches_direct": true, "h": [["u*t + O(10)", "u + u*t^{2} + u^{2}*t^{2} + O(10)"], '
        '["2*u + O(10)", "2*u*t + 2*u^{2}*t + O(10)"]]}\n',
    ),
    (
        ["sh"],
        '{"schema": 1, "consistent": true, "vectors": [{"j": 0, '
        + SH_VECTOR
        + ', {"j": 1, '
        + SH_VECTOR
        + "]}\n",
    ),
]


def run(capsys, argv):
    code = cli.dispatch(argv)
    return code, capsys.readouterr().out


@pytest.mark.parametrize("argv,want", GOLDEN, ids=[" ".join(a) for a, _ in GOLDEN])
def test_readme_example(capsys, argv, want):
    assert run(capsys, argv) == (0, want)


def test_module_gen(capsys, tmp_path):
    assert run(capsys, ["module", "gen", "--d", "2", "--seed", "4"]) == (0, MODULE_TEXT)
    path = str(tmp_path / "m.mod")
    code, out = run(capsys, ["module", "gen", "--d", "2", "--seed", "4", "--out", path])
    assert code == 0
    assert out == '{"schema": 1, "out": "%s", "d": 2, "p": 3, "seed": 4}\n' % path
    with open(path) as fh:
        assert fh.read() == MODULE_TEXT


@pytest.mark.parametrize(
    "sub,want", MODULE_GOLDEN, ids=[" ".join(s) for s, _ in MODULE_GOLDEN]
)
def test_module_example(capsys, tmp_path, sub, want):
    path = tmp_path / "m.mod"
    path.write_text(MODULE_TEXT)
    assert run(capsys, ["module", sub[0], str(path), *sub[1:]]) == (0, want)
