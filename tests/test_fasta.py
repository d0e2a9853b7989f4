"""FASTA parsing: the per-record parser against the per-line one it replaced."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memlight.fasta import FastaRecord, parse_fasta

_FOLD = bytes.maketrans(b"abcdefghijklmnopqrstuvwxyz", b"ABCDEFGHIJKLMNOPQRSTUVWXYZ")
_WHITESPACE = b" \t\n\r\x0b\x0c"


def parse_fasta_by_line(data):
    """The reference: one pass over data.splitlines(), each line stripped."""
    records = []
    name = None
    chunks = []
    for line in data.splitlines():
        line = line.strip()
        if not line or line.startswith(b";"):
            continue
        if line.startswith(b">"):
            if name is not None:
                records.append(FastaRecord(name, b"".join(chunks).translate(_FOLD, _WHITESPACE)))
            name = line[1:].split()[0].decode() if line[1:].split() else ""
            chunks = []
        elif name is not None:
            chunks.append(line)
        else:
            raise ValueError("sequence data before the first FASTA header")
    if name is not None:
        records.append(FastaRecord(name, b"".join(chunks).translate(_FOLD, _WHITESPACE)))
    return records


def outcome(parse, data):
    try:
        return parse(data)
    except ValueError as exc:  # UnicodeDecodeError included
        return type(exc), str(exc)


# pieces that make headers, comments, blank and indented lines, every line
# break, whitespace inside lines, lower case, bytes that are not UTF-8 and
# '>' or ';' inside a line
PIECES = [b">", b";", b">r1", b"> r2 desc", b">\xff", b"ACGT", b"acg", b"N", b"x>y;",
          b" ", b"\t", b"\x0b", b"\x0c", b"\n", b"\r", b"\r\n", b"\x1c", b"\x85"]


@given(st.lists(st.sampled_from(PIECES), max_size=40))
@settings(max_examples=400, deadline=None)
def test_parse_equals_the_per_line_parser(pieces):
    data = b"".join(pieces)
    assert outcome(parse_fasta, data) == outcome(parse_fasta_by_line, data)


@given(st.binary(max_size=200))
@settings(max_examples=200, deadline=None)
def test_parse_equals_the_per_line_parser_on_any_bytes(data):
    assert outcome(parse_fasta, data) == outcome(parse_fasta_by_line, data)


@pytest.mark.parametrize("data,expected", [
    (b">a desc\nAC gt\r\n;note\n  >b\rTT\n\n", [("a", b"ACGT"), ("b", b"TT")]),
    (b"\n; lead\n>only\nA>C;\n", [("only", b"A>C;")]),
    (b"", []),
])
def test_parse_examples(data, expected):
    assert parse_fasta(data) == expected


@pytest.mark.parametrize("data,message", [
    (b"ACGT\n>a\nAC\n", "sequence data before the first FASTA header"),
    (b">\nAC\n", "FASTA record with empty id"),
    (b">a\n>b\nAC\n", "FASTA record 'a' has an empty sequence"),
])
def test_parse_errors(data, message):
    with pytest.raises(ValueError, match=message):
        parse_fasta(data)
