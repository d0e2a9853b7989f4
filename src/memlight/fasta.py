"""Minimal FASTA reading: headers, sequences, blank lines and ';' comments."""

from __future__ import annotations

import re
from pathlib import Path
from typing import NamedTuple


class _RecordFields(NamedTuple):
    id: str
    sequence: bytes


class FastaRecord(_RecordFields):
    __slots__ = ()

    def __new__(cls, id: str, sequence: bytes):
        if not id:
            raise ValueError("FASTA record with empty id")
        if not sequence:
            raise ValueError(f"FASTA record {id!r} has an empty sequence")
        return super().__new__(cls, id, sequence)


# a sequence is its lines with ASCII whitespace removed and a-z folded to
# A-Z, as BWA and Bowtie 2 read soft-masked references
_FOLD = bytes.maketrans(b"abcdefghijklmnopqrstuvwxyz", b"ABCDEFGHIJKLMNOPQRSTUVWXYZ")
_WHITESPACE = b" \t\n\r\x0b\x0c"


# a header or comment line: a line break, blanks, then '>' or ';' and the
# rest of the line; compiled on first use, so a `--raw` query never pays
_MARKED_LINE = rb"\n[ \t\x0b\x0c]*([>;])([^\n]*)"


def _sequence(pieces: list[bytes]) -> bytes:
    return b"".join(pieces).translate(_FOLD, _WHITESPACE)


def parse_fasta(data: bytes) -> list[FastaRecord]:
    """The records of FASTA data, each sequence without whitespace and in
    upper case.

    Lines end at LF, CR or CRLF, as bytes.splitlines ends them.  With every
    line break made an LF, and one put before the first line, one regular
    expression finds the header and comment lines; the bytes between them
    are the sequences, each folded and stripped by one translate.
    """
    data = b"\n" + data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    # the bytes before the first marked line, then for each marked line its
    # mark, the rest of the line and the bytes up to the next one; a header
    # past the end closes the last record
    parts = re.split(_MARKED_LINE, data) + [b">", b"", b""]
    records = []
    name = None
    pieces = [parts[0]]  # the current record's bytes, comment lines cut out
    for mark, line, after in zip(parts[1::3], parts[2::3], parts[3::3]):
        if mark == b">":
            if name is not None:
                records.append(FastaRecord(name, _sequence(pieces)))
            elif _sequence(pieces):
                raise ValueError("sequence data before the first FASTA header")
            words = line.split()
            name = words[0].decode() if words else ""
            pieces = []
        pieces.append(after)
    return records


def read_fasta(path) -> list[FastaRecord]:
    return parse_fasta(Path(path).read_bytes())
