"""FASTA parsing, the per-record parser against the per-line one it
replaced, and the readers that turn text and pattern files into bytes."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memlight.fasta import FastaRecord, parse_fasta, read_patterns, read_raw, read_text

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


@pytest.mark.parametrize("data,expected", [
    (b"AC\n", b"AC"), (b"AC\r\n", b"AC"), (b"AC", b"AC"), (b"\n", b""),
    (b"AC\r", b"AC\r"), (b"AC\n\n", b"AC\n"), (b"AC\r\n\r\n", b"AC\r\n"),
    (b"AC\n\r", b"AC\n\r"),
])
def test_read_raw_strips_one_trailing_newline(tmp_path, data, expected):
    path = tmp_path / "p.raw"
    path.write_bytes(data)
    assert read_raw(path) == expected


def test_read_text_joins_records_with_the_smallest_unused_byte(tmp_path):
    path = tmp_path / "t.fa"
    path.write_bytes(b">a\n\x00\x01A\n>b\n\x02C\n")
    assert read_text(path, False, True) == (b"\x00\x01A\x03\x02C", b"\x03")
    path.write_bytes(b">a\nAC\ngt\n")
    assert read_text(path, False, True) == (b"ACGT", b"")
    assert read_text(path, False, False) == (b"ACGT", b"")
    assert read_text(path, True, False) == (b">a\nAC\ngt", b"")


def test_read_text_refuses_several_records_without_concat_sep(tmp_path):
    path = tmp_path / "t.fa"
    path.write_bytes(b">a\nAC\n>b\nGT\n>c\nTT\n")
    with pytest.raises(ValueError, match=r"t\.fa holds 3 FASTA records; index them all "
                                         r"with --concat-sep"):
        read_text(path, False, False)


def test_read_patterns_names_each_pattern(tmp_path):
    path = tmp_path / "reads.fa"
    path.write_bytes(b">r1 first\nacgt\n>r2\nNN\n")
    assert read_patterns(path, False) == [("r1", b"ACGT"), ("r2", b"NN")]
    assert read_patterns(path, True) == [("reads", b">r1 first\nacgt\n>r2\nNN")]


# one-line sequences as FASTA reading leaves them: no whitespace, no a-z,
# and not starting with a header or comment mark
SEQUENCES = st.binary(min_size=1, max_size=30).map(lambda b: b.translate(_FOLD, _WHITESPACE))


@given(st.lists(SEQUENCES.filter(lambda b: b and b[:1] not in b">;"), min_size=1, max_size=6))
@settings(max_examples=200, deadline=None)
def test_read_text_splits_back_into_its_records(tmp_path_factory, records):
    path = tmp_path_factory.mktemp("fasta") / "t.fa"
    path.write_bytes(b"".join(b">r%d\n%s\n" % (i, r) for i, r in enumerate(records)))
    text, separator = read_text(path, False, True)
    assert (text.split(separator) if separator else [text]) == records
    assert len(separator) == (len(records) > 1)
    if separator:
        assert separator[0] == min(set(range(256)) - set(b"".join(records)))
