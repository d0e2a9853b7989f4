"""Reading texts and patterns as the CLI reads them: minimal FASTA (headers,
sequences, blank lines and ';' comments), or with `raw` a file's bytes."""

from __future__ import annotations

import re
from pathlib import Path
from typing import NamedTuple

from .sequence import BYTES


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


def read_raw(path) -> bytes:
    """The file's bytes minus one trailing newline, as `--raw` promises."""
    data = Path(path).read_bytes()
    for end in (b"\r\n", b"\n"):
        if data.endswith(end):
            return data[: -len(end)]
    return data


def read_text(path, raw: bool, concat_sep: bool) -> tuple[bytes, bytes]:
    """The text to index and the record separator it holds, if any.

    A FASTA text is its one record, or with `concat_sep` all its records
    joined by one byte value: the smallest that no record uses.  There is
    always one, since no record holds a line break.  Several records without
    `concat_sep` are a usage error, not a text of the first one.
    """
    if raw:
        return read_raw(path), b""
    sequences = [r.sequence for r in read_fasta(path)]
    if len(sequences) < 2:
        return b"".join(sequences), b""
    if not concat_sep:
        raise ValueError(f"{Path(path)} holds {len(sequences)} FASTA records; "
                         "index them all with --concat-sep")
    separator = BYTES.translate(None, b"".join(sequences))[:1]
    return separator.join(sequences), separator


def read_patterns(path, raw: bool) -> list[tuple[str, bytes]]:
    """Each pattern's id and bytes: the records of a FASTA file, or with
    `raw` the file's bytes as one pattern named by the file's stem."""
    if raw:
        return [(Path(path).stem, read_raw(path))]
    return [(r.id, r.sequence) for r in read_fasta(path)]
