"""The CLI's input readers against the text-stream readers they replace.

``_read_csv_rows`` and ``cli._read_json`` decode a file's bytes once, with
``core._decode_text``, where they used to read them through
``io.TextIOWrapper``.  The references below are those readers, verbatim, so
the same rows, element types, exceptions and messages are checked on bytes
built from every character the two could treat differently.
"""

import inspect
import io
import json
import os
import subprocess
import sys
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

import ridgekit
from ridgekit.core import _decode_text, _read_csv_rows, _read_number


def _reference_csv_rows(data, name):
    rows = []
    text = io.TextIOWrapper(io.BytesIO(data)).read().replace(",", " ")
    for line in text.split("\n"):
        fields = line.split("#", 1)[0].split()
        if fields:
            rows.append(tuple(map(_read_number, fields)))
    if not rows:
        raise ValueError(f"no data rows in {name}")
    return rows


def _reference_json(data):
    return json.load(io.TextIOWrapper(io.BytesIO(data)))


def _typed(value):
    """A value with the type of every number in it, so that 1 and
    Fraction(1) or 1.0 differ."""
    if isinstance(value, (list, tuple)):
        return [type(value).__name__, [_typed(v) for v in value]]
    if isinstance(value, dict):
        return {k: _typed(v) for k, v in value.items()}
    return [type(value).__name__, value]


def _outcome(read, data):
    try:
        return "value", _typed(read(data))
    except Exception as exc:     # compared by type and message
        return "error", type(exc).__name__, str(exc)


_BOM = "\ufeff".encode()
_ARABIC_THREE = "\u0663".encode()
_INVALID_UTF8 = [b"\xff", b"\x80", b"\xc3", b"\xe2\x82"]
_CSV_PIECES = st.sampled_from(
    [d.encode() for d in "0123456789+-/.eE_,\t #"]
    + [b"\n", b"\r\n", b"\r", _BOM, _ARABIC_THREE, *_INVALID_UTF8])
_JSON_PIECES = st.sampled_from(
    [c.encode() for c in '0123456789-.eE[]{}:," \t']
    + [b'"a"', b'"\r"', b"true", b"null", b"\n", b"\r\n", b"\r", _BOM,
       _ARABIC_THREE, *_INVALID_UTF8])


@settings(max_examples=500, deadline=None)
@given(st.lists(_CSV_PIECES, max_size=40).map(b"".join))
def test_csv_rows_match_the_text_stream_reader(data):
    assert (_outcome(lambda d: _read_csv_rows(d, "f.csv"), data)
            == _outcome(lambda d: _reference_csv_rows(d, "f.csv"), data))


@settings(max_examples=500, deadline=None)
@given(st.lists(_JSON_PIECES, max_size=30).map(b"".join))
def test_json_matches_the_text_stream_reader(data):
    ours = _outcome(lambda d: json.loads(_decode_text(d)), data)
    assert ours == _outcome(_reference_json, data)


def test_csv_line_ends_comments_and_types():
    lf = b"0,0\n1,1/2\n2.5,3\n"
    crlf = b"# a set\r\n0, 0\r\n1,\t1/2 # half\r\n2.5,3\r\n"
    cr = b"0 0\r1 1/2\r2.5 3"
    rows = [(0, 0), (1, Fraction(1, 2)), (Fraction(5, 2), 3)]
    for data in (lf, crlf, cr):
        got = _read_csv_rows(data, "f.csv")
        assert got == rows == _reference_csv_rows(data, "f.csv")
        assert [list(map(type, row)) for row in got] == [
            [int, int], [int, Fraction], [Fraction, int]]


# In a C locale with UTF-8 mode off the text encoding is ASCII, so U+0663
# fails to decode in both readers; with UTF-8 mode on, TextIOWrapper reads
# UTF-8 while locale.getencoding() still names ASCII, and both readers read
# it as the digit 3
_LOCALE_SCRIPT = """
import codecs, io, json, locale, sys
from ridgekit.core import _decode_text, _read_csv_rows, _read_number
""" + inspect.getsource(_reference_csv_rows) + """
data = "1,\\u0663\\n".encode()
expect_ascii = sys.argv[1] == "ascii"
assert (codecs.lookup(locale.getpreferredencoding(False)).name
        == ("ascii" if expect_ascii else "utf-8"))
assert codecs.lookup(locale.getencoding()).name == "ascii"

def outcome(read):
    try:
        return "value", repr(read(data))
    except Exception as exc:
        return "error", type(exc).__name__, str(exc)

ours = outcome(lambda d: _read_csv_rows(d, "f.csv"))
assert ours == outcome(lambda d: _reference_csv_rows(d, "f.csv")), ours
assert outcome(lambda d: json.loads(_decode_text(d))) == outcome(
    lambda d: json.load(io.TextIOWrapper(io.BytesIO(d))))
if expect_ascii:
    assert ours[:2] == ("error", "UnicodeDecodeError"), ours
else:
    assert ours == ("value", "[(1, 3)]"), ours
"""


def _run_in_c_locale(utf8_mode, expect):
    src = os.path.dirname(os.path.dirname(os.path.abspath(ridgekit.__file__)))
    env = dict(os.environ, PYTHONUTF8=utf8_mode, PYTHONCOERCECLOCALE="0",
               LC_ALL="C")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _LOCALE_SCRIPT, expect],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_ascii_locale_fails_the_same_way():
    _run_in_c_locale("0", "ascii")


def test_utf8_mode_in_c_locale_reads_utf8():
    _run_in_c_locale("1", "utf-8")
