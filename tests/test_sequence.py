import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from memlight import (Alphabet, ForeignSymbolError, MemRecord, Pattern, Text,
                      build_alphabet, split_by_foreign_chars)


def test_build_alphabet_assigns_codes_in_byte_order():
    alphabet = build_alphabet(b"GATTAGATACAT")
    assert alphabet.symbols == b"ACGT"
    assert alphabet.size == 4
    assert list(alphabet.encode_bytes(b"ACGT")) == [0, 1, 2, 3]


def test_build_alphabet_single_symbol():
    assert build_alphabet(b"AAAA").size == 1


def test_build_alphabet_binary_at_scale():
    rng = np.random.default_rng(0)
    bits = rng.integers(0, 2, size=1_000_000, dtype=np.uint8) + ord("0")
    assert build_alphabet(bits.tobytes()).size == 2


@given(st.binary(min_size=1, max_size=600))
def test_build_alphabet_holds_exactly_the_bytes_present(raw):
    assert build_alphabet(raw).symbols == bytes(sorted(set(raw)))


def test_build_alphabet_rejects_empty():
    with pytest.raises(ValueError, match="empty text"):
        build_alphabet(b"")


@given(st.binary(min_size=1, max_size=300))
def test_encode_decode_roundtrip(raw):
    alphabet = build_alphabet(raw)
    assert alphabet.decode(alphabet.encode_bytes(raw)) == raw


def test_encode_rejects_foreign_byte():
    alphabet = build_alphabet(b"ACGT")
    with pytest.raises(ForeignSymbolError, match="split"):
        alphabet.encode_bytes(b"GATN")


def test_text_rejects_empty():
    with pytest.raises(ValueError):
        Text.from_bytes(b"")


def _delete_symbols():
    del Alphabet(b"AC").symbols


@pytest.mark.parametrize("call, error, message", [
    (lambda: Alphabet(b""), ValueError, "^empty alphabet$"),
    (lambda: Text(Alphabet(b"AC"), b""), ValueError, "^empty text$"),
    (_delete_symbols, AttributeError, "^cannot delete field 'symbols'$"),
])
def test_named_construction_errors(call, error, message):
    with pytest.raises(error, match=message):
        call()


@pytest.mark.parametrize("kind", [Text, Pattern])
def test_codes_are_taken_as_bytes_only(kind):
    alphabet = Alphabet(b"ACGT")
    code_bytes = alphabet.encode_bytes(b"GATTACA")
    seq = kind(alphabet, code_bytes)
    assert seq.code_bytes == code_bytes
    assert seq.to_raw() == b"GATTACA"
    assert seq.data.tolist() == list(code_bytes)
    assert not seq.data.flags.writeable
    # a bytearray could change after the check; other forms are not converted
    for codes in (list(code_bytes), bytearray(code_bytes), memoryview(code_bytes),
                  np.frombuffer(code_bytes, dtype=np.uint8)):
        with pytest.raises(TypeError, match="codes must be bytes"):
            kind(alphabet, codes)


def test_codes_outside_the_alphabet_are_rejected():
    alphabet = Alphabet(b"AC")
    with pytest.raises(ValueError, match="text contains codes outside"):
        Text(alphabet, b"\x00\x02")
    with pytest.raises(ValueError, match="pattern contains codes outside"):
        Pattern(alphabet, b"\x02")
    with pytest.raises(ValueError):
        alphabet.decode(b"\x02")


def test_pattern_may_be_empty():
    alphabet = build_alphabet(b"AC")
    assert Pattern.from_bytes(b"", alphabet).m == 0


@pytest.mark.parametrize("raw,expected", [
    (b"GATNNACAT", [(0, b"GAT"), (5, b"ACAT")]),
    (b"TACAT", [(0, b"TACAT")]),
    (b"NNN", []),
    (b"", []),
    (b"NGATN", [(1, b"GAT")]),
])
def test_split_by_foreign_chars(raw, expected):
    alphabet = build_alphabet(b"GATTAGATACAT")
    got = [(off, sub.to_raw()) for off, sub in split_by_foreign_chars(raw, alphabet)]
    assert got == expected


@given(st.binary(max_size=200))
def test_split_tiles_the_kept_positions_exactly(raw):
    alphabet = build_alphabet(b"ACGT")
    pieces = split_by_foreign_chars(raw, alphabet)
    rebuilt = bytearray(b"\x00" * len(raw))
    covered = set()
    for off, sub in pieces:
        piece = sub.to_raw()
        assert piece  # maximal runs are non-empty
        # maximality: neighbours are foreign or out of range
        if off > 0:
            assert raw[off - 1] not in b"ACGT"
        end = off + len(piece)
        if end < len(raw):
            assert raw[end] not in b"ACGT"
        rebuilt[off:end] = piece
        covered.update(range(off, end))
    expected = {k for k in range(len(raw)) if raw[k] in b"ACGT"}
    assert covered == expected
    for k in covered:
        assert rebuilt[k] == raw[k]


def test_mem_record_rejects_empty_match():
    with pytest.raises(ValueError):
        MemRecord(0, 0)


def test_mem_record_end_is_exclusive():
    mem = MemRecord(3, 4)
    assert mem.end == 7
    assert mem.span == (3, 4)
