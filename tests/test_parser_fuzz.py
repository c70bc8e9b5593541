"""Hypothesis fuzz straight on the literal parsers.

`cli.dispatch` maps ParseError, ValueError and every other TiltedError to
an exit code; anything else (ZeroDivisionError, IndexError, TypeError,
KeyError, ...) would end the CLI in a traceback.  So on arbitrary text a
parser may only return or raise one of the mapped exceptions."""

from hypothesis import given, settings
from hypothesis import strategies as st

from tilted import cli, phitau, ring
from tilted.errors import TiltedError

MAPPED = (TiltedError, ValueError)

SERIES_CHARS = "ut*+^{}()/O-0123456789 \n٣%"
PPOW_CHARS = "p*^{}/-0123456789 x"
GROUP_CHARS = "taugm_^*-0123456789 "

SERIES_TEXT = st.text(SERIES_CHARS, max_size=24)
FIELD_VALUE = st.one_of(
    st.sampled_from(["0", "1", "2", "3", "5", "6", "24", "-1", "65", "1/0", "3/2", "x", ""]),
    st.text("0123456789/-", max_size=4),
)
LINE = st.one_of(
    st.sampled_from(["[P]", "[tau]", "[lattice]", "1", "t", "1 + t + O(24)", "2*u*t + O(24)"]),
    SERIES_TEXT,
)


def only_mapped(parse, *args):
    try:
        parse(*args)
    except MAPPED:
        pass


@settings(max_examples=400, deadline=None)
@given(SERIES_TEXT, st.sampled_from([2, 3, 5, 7]), st.sampled_from([0, 2, 6]))
def test_parse_series(text, p, cap):
    only_mapped(ring.parse_series, text, p, cap)


@settings(max_examples=300, deadline=None)
@given(st.text(PPOW_CHARS, max_size=16))
def test_parse_ppow(text):
    only_mapped(cli.parse_ppow, text)


@settings(max_examples=300, deadline=None)
@given(st.text(GROUP_CHARS, max_size=16))
def test_parse_group(text):
    only_mapped(cli.parse_group, text)


HEADER = st.one_of(
    st.builds(
        "p={} d={} prec={} cap={}".format,
        st.sampled_from(["2", "3", "4", "x"]),
        st.sampled_from(["1", "0", "2"]),
        FIELD_VALUE,
        st.sampled_from(["0", "6", "65"]),
    ),
    st.lists(
        st.tuples(st.sampled_from(["p", "d", "prec", "cap", "x", ""]), FIELD_VALUE), max_size=5
    ).map(lambda fields: " ".join(f"{key}={value}" if key else value for key, value in fields)),
)
ENTRY = st.one_of(st.sampled_from(["1", "2", "1 + O(24)", "t", "u*t + O(24)"]), SERIES_TEXT)
# a d = 1 body whose entries are drawn, or a list of arbitrary lines
BODY = st.one_of(
    st.tuples(st.just("[P]"), ENTRY, st.just("[tau]"), ENTRY).map(list),
    st.lists(LINE, max_size=10),
)


@settings(max_examples=300, deadline=None)
@given(HEADER, BODY)
def test_module_from_text(header, body):
    only_mapped(phitau.module_from_text, "\n".join([header, *body]))
