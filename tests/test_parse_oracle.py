"""`ring.parse_series` against the token-list parser it replaced, kept
here verbatim as the oracle.  On every input both must give the same
series (repr, terms and precision cap) or raise the same exception type
with the same message and position."""

import random
import re
from fractions import Fraction

import pytest
from conftest import series_strategy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tilted import phitau, ring
from tilted.errors import CapExceeded, ParseError
from tilted.ring import (
    DEFAULT_DENOM_CAP,
    PerfSeries,
    check_ring,
    exponent_units,
    key_bound,
    make_series,
    mono_of,
)

# -- the oracle parser ------------------------------------------------

_TOKEN_RE = re.compile(r"\s*(\d+|[ut*+^{}()/O-])")


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        tokens.append((m.group(1), m.start(1)))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, text):
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i][0] if self.i < len(self.tokens) else None

    def next(self):
        if self.i >= len(self.tokens):
            raise ParseError("unexpected end of input")
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, want):
        tok, pos = self.next()
        if tok != want:
            raise ParseError(f"expected {want!r}, found {tok!r}", pos)
        return tok

    def rational(self) -> Fraction:
        sign = 1
        if self.peek() == "-":
            self.next()
            sign = -1
        tok, pos = self.next()
        if not tok.isdigit():
            raise ParseError(f"expected digits, found {tok!r}", pos)
        num = int(tok)
        den = 1
        if self.peek() == "/":
            self.next()
            tok, pos = self.next()
            if not tok.isdigit():
                raise ParseError(f"expected digits, found {tok!r}", pos)
            den = int(tok)
            if den == 0:
                raise ParseError("zero denominator", pos)
        return Fraction(sign * num, den)

    def atom(self):
        tok, pos = self.next()
        if tok not in ("u", "t"):
            raise ParseError(f"expected 'u' or 't', found {tok!r}", pos)
        exp = Fraction(1)
        if self.peek() == "^":
            self.next()
            if self.peek() == "{":
                self.next()
                exp = self.rational()
                self.expect("}")
            else:
                exp = self.rational()
        return tok, exp

    def term(self, p, cap):
        """Returns (coeff, eu, et) for one term."""
        coeff = 1
        eu = Fraction(0)
        et = Fraction(0)
        saw_anything = False
        if self.peek() is not None and self.peek().isdigit():
            coeff = int(self.next()[0])
            saw_anything = True
            if self.peek() == "*":
                self.next()
            elif self.peek() in ("u", "t"):
                pos = self.tokens[self.i][1]
                raise ParseError("missing '*' between coefficient and atom", pos)
            else:
                return coeff, eu, et
        while self.peek() in ("u", "t"):
            var, exp = self.atom()
            saw_anything = True
            if var == "u":
                eu += exp
            else:
                et += exp
            if self.peek() == "*":
                self.next()
            else:
                break
        if not saw_anything:
            tok = self.peek()
            raise ParseError(f"expected a term, found {tok!r}")
        return coeff, eu, et


def oracle_parse_series(text: str, p: int, cap: int = DEFAULT_DENOM_CAP) -> PerfSeries:
    """Parse the series grammar:

    series := term ('+' term)* ['+' 'O(' rational ')'] | 'O(' rational ')'
    term   := coeff ['*' atom {'*' atom}] | atom {'*' atom}
    atom   := ('u'|'t') ['^' '{' rational '}']
    """
    check_ring(p, cap)
    parser = _Parser(text)
    acc = {}
    prec = None
    if parser.peek() is None:
        raise ParseError("empty series literal")
    while True:
        if parser.peek() == "O":
            parser.next()
            parser.expect("(")
            prec = parser.rational()
            parser.expect(")")
            if parser.peek() is not None:
                tok, pos = parser.next()
                raise ParseError(f"trailing input after O(...): {tok!r}", pos)
            break
        coeff, eu, et = parser.term(p, cap)
        m = mono_of(exponent_units(eu, p, cap), exponent_units(et, p, cap), p)
        acc[m] = acc.get(m, 0) + coeff
        if parser.peek() is None:
            break
        parser.expect("+")
    return make_series(p, cap, acc, key_bound(prec, p, cap))



# -- inputs -----------------------------------------------------------

WHITESPACE = ["", "", "", " ", "  ", "\t", "\n"]
# every character a token may hold, whitespace, a non-ASCII decimal
# digit, and characters no token begins with
NOISE = "ut*+^{}()/O-0123456789 \n\t٣%x²."


def _ws(rng):
    return rng.choice(WHITESPACE)


def _digits(rng, p):
    n = rng.choice([0, 1, 1, 2, 3, p, p * p, 2 * p + 1, 12, 2186])
    s = str(n)
    if rng.random() < 0.05:
        s = s.translate(str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩"))
    return s


def _rational(rng, p):
    out = _ws(rng) + ("-" + _ws(rng) if rng.random() < 0.3 else "") + _digits(rng, p)
    if rng.random() < 0.6:
        den = rng.choice([1, p, p**2, p**3, p**7, 2, 4, 3, 9, 2187, 0])
        out += _ws(rng) + "/" + _ws(rng) + str(den)
    return out


def _atom(rng, p):
    out = _ws(rng) + rng.choice("ut")
    r = rng.random()
    if r < 0.5:
        out += _ws(rng) + "^" + _ws(rng) + "{" + _rational(rng, p) + _ws(rng) + "}"
    elif r < 0.7:
        out += _ws(rng) + "^" + _rational(rng, p)
    return out


def _term(rng, p):
    atoms = [_atom(rng, p) for _ in range(rng.choice([0, 1, 1, 2, 3]))]
    if not atoms or rng.random() < 0.4:
        atoms.insert(0, _ws(rng) + _digits(rng, p))
    return (_ws(rng) + "*").join(atoms)


def valid_literal(rng, p):
    """A literal of the grammar, with whitespace between its tokens and
    exponents that may be off the p^cap lattice."""
    terms = [_term(rng, p) for _ in range(rng.choice([0, 1, 1, 2, 3, 5]))]
    if not terms or rng.random() < 0.4:
        terms.append(_ws(rng) + "O" + _ws(rng) + "(" + _rational(rng, p) + _ws(rng) + ")")
    return (_ws(rng) + "+").join(terms)


def mutated_literal(rng, p):
    """A literal with a few characters inserted, deleted or replaced."""
    s = list(valid_literal(rng, p))
    for _ in range(rng.randint(1, 3)):
        i = rng.randint(0, len(s))
        r = rng.random()
        if r < 0.4 or not s:
            s.insert(i, rng.choice(NOISE))
        elif r < 0.7:
            del s[min(i, len(s) - 1)]
        else:
            s[min(i, len(s) - 1)] = rng.choice(NOISE)
    return "".join(s)


def outcome(parse, text, p, cap):
    try:
        x = parse(text, p, cap)
    except Exception as exc:  # noqa: BLE001 - the type is what is compared
        return ("raised", type(exc), str(exc), getattr(exc, "position", None))
    return ("parsed", repr(x), x.terms, x.prec)


def assert_same(text, p, cap):
    want = outcome(oracle_parse_series, text, p, cap)
    got = outcome(ring.parse_series, text, p, cap)
    assert got == want, f"{text!r} at p={p}, cap={cap}"


# -- differential tests -----------------------------------------------


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("cap", [0, 2, 6])
def test_random_valid_literals(p, cap):
    rng = random.Random(f"valid-{p}-{cap}")
    for _ in range(300):
        assert_same(valid_literal(rng, p), p, cap)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("cap", [0, 2, 6])
def test_random_malformed_literals(p, cap):
    rng = random.Random(f"malformed-{p}-{cap}")
    for _ in range(300):
        assert_same(mutated_literal(rng, p), p, cap)


@pytest.mark.parametrize(
    "text",
    [
        # whitespace before every token, and after the last one
        " 2 * u ^ { - 1 / 3 } * t ^ 2 + O ( 7 / 2 )",
        "t ",
        "t\n",
        "t\t+ u",
        " ",
        "",
        "u^ - 1/3",
        "t + O(3) ",
        # off-lattice atoms that sum onto the lattice, or do not
        "u^{1/2}*u^{1/2}",
        "t^{1/2187}*t^{2186/2187}",
        "t^{1/2187}",
        "t^{2/4}",
        "u^{1/2}*t^{1/2187}",
        # zero denominators
        "t^{1/0}",
        "t^1/0",
        "O(1/0)",
        "t^{1/0",
        # O(...) that is not last, or not closed
        "O(3) + t",
        "t + O(3) + t",
        "O(3",
        "O 3)",
        "t + O",
        # a missing '*', dangling '*' and '+', and other breaks
        "2 t",
        "2t",
        "2*",
        "t*",
        "t*+t",
        "t+",
        "+t",
        "t++t",
        "u^{1/x}",
        "u^{1/}",
        "u^-{1}",
        "u^{1",
        "u^12/x",
        "u^1^2",
        "u t",
        "t}",
        # non-ASCII digits and characters no token begins with
        "٣*t",
        "t^{١/٣}",
        "t^²",
        "t + %",
        "t %",
        "t^{1/2187} + %",
        # one step off the canonical " + "-joined shape, and its edges
        "u+t",
        "2 * u^{1/3}",
        "t + O(24) ",
        "u + O(24) + t",
        "O(24)",
        "u^{1/2}*u^{1/2} + O(3)",
        "0",
        # coefficients, atoms and '+' with whitespace, signs, denominators
        # and non-ASCII digits inside them
        "t^{3}/9",
        "t^3/9",
        "u^-3*t",
        "2 *\tt ^ 2 + 1",
        "٣ * u^{٣}",
    ],
)
@pytest.mark.parametrize("p", [2, 3])
def test_listed_inputs(text, p):
    assert_same(text, p, DEFAULT_DENOM_CAP)


def test_quirks_kept():
    assert ring.parse_series("u^{1/2}*u^{1/2}", 3) == ring.u_var(3)
    assert ring.parse_series("t^{1/2187}*t^{2186/2187}", 3) == ring.t_var(3)
    with pytest.raises(CapExceeded):
        ring.parse_series("t^{1/2187}", 3)
    with pytest.raises(ValueError, match="denominator 2 is not a power of 3"):
        ring.parse_series("t^{2/4}", 3)
    for text in ("t ", "t\n"):
        with pytest.raises(ParseError, match=re.escape("(at position 1)")):
            ring.parse_series(text, 3)
    assert str(ring.parse_series("u^ - 1/3", 3)) == "u^{-1/3}"
    assert ring.parse_series("٣*t", 3).is_zero()


def test_long_whitespace_runs_stay_linear():
    # a backtracking regex would take time cubic in the run length here
    for text in ("u^" + " " * 20000 + "x", "t" + " " * 20000 + "+t", "2" + " " * 20000 + "t"):
        assert_same(text, 3, DEFAULT_DENOM_CAP)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("cap", [0, 2, 6])
def test_format_parse_round_trip(p, cap):
    rng = random.Random(f"round-trip-{p}-{cap}")
    scale = p**cap
    for _ in range(200):
        units = {
            (rng.randint(-3 * scale, 3 * scale), rng.randint(-3 * scale, 3 * scale)): rng.randint(1, p - 1)
            for _ in range(rng.randint(0, 5))
        }
        acc = {mono_of(a, b, p): c for (a, b), c in units.items()}
        prec = rng.choice([None, Fraction(rng.randint(-9, 40), rng.choice([1, 2, 3, p]))])
        x = make_series(p, cap, acc, key_bound(prec, p, cap))
        text = ring.format_series(x)
        assert ring.parse_series(text, p, cap) == x
        assert ring.format_series(oracle_parse_series(text, p, cap)) == text


def test_digit_limit_outcomes():
    # a digit run int() refuses sends the text on to the scanner, whose
    # check for a stray character still comes first
    with pytest.raises(ParseError, match=re.escape("unexpected character '§' (at position 5004)")):
        ring.parse_series("1" * 5000 + " + u§", 3)
    with pytest.raises(ValueError, match=re.escape("Exceeds the limit (4300 digits)")) as info:
        ring.parse_series("1" * 5000, 3)
    assert type(info.value) is ValueError


# -- the canonical reader ---------------------------------------------
# Every literal `format_series` writes is read by the split reader alone:
# the scanner is made to fail, and the text must still read back exactly.


def _scan_unreachable(text, p, cap):
    raise AssertionError(f"the scanner read {text!r}")


def assert_reads_back(x):
    text = ring.format_series(x)
    assert ring.parse_series(text, x.p, x.cap) == x, text


CANONICAL_SERIES = st.sampled_from([2, 3, 5]).flatmap(
    lambda p: st.sampled_from([None, Fraction(7, 2), Fraction(-2, 3)]).flatmap(
        lambda prec: series_strategy(p=p, prec=prec)
    )
)


@settings(max_examples=300, deadline=None)
@given(CANONICAL_SERIES)
@example(ring.zero(3))
@example(ring.constant(4, 5))
@example(ring.zero(2, prec=Fraction(-5, 2)))
@example(ring.monomial(5, 6, 3, Fraction(-1, 25), Fraction(2, 5)))
def test_canonical_literals_skip_the_scanner(x):
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(ring, "_scan", _scan_unreachable)
        assert_reads_back(x)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("seed", [1, 2])
def test_module_entries_skip_the_scanner(d, seed, monkeypatch):
    module = phitau.basechange_generate(d, seed)
    lines = phitau.module_to_text(module).splitlines()
    mats = [m for m in (module.frob, module.mat_tau, module.lattice) if m is not None]
    entries = [e for mat in mats for row in mat.rows for e in row]
    assert [ring.format_series(e) for e in entries] == [ln for ln in lines[1:] if not ln.startswith("[")]
    monkeypatch.setattr(ring, "_scan", _scan_unreachable)
    for e in entries:
        assert_reads_back(e)
