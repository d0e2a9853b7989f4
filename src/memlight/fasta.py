"""Minimal FASTA reading: headers, sequences, blank lines and ';' comments."""

from __future__ import annotations

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


def _sequence(chunks: list[bytes]) -> bytes:
    return b"".join(chunks).translate(_FOLD, _WHITESPACE)


def parse_fasta(data: bytes) -> list[FastaRecord]:
    """The records of FASTA data, each sequence without whitespace and in
    upper case."""
    records = []
    name = None
    chunks: list[bytes] = []
    for line in data.splitlines():
        line = line.strip()
        if not line or line.startswith(b";"):
            continue
        if line.startswith(b">"):
            if name is not None:
                records.append(FastaRecord(name, _sequence(chunks)))
            name = line[1:].split()[0].decode() if line[1:].split() else ""
            chunks = []
        elif name is not None:
            chunks.append(line)
        else:
            raise ValueError("sequence data before the first FASTA header")
    if name is not None:
        records.append(FastaRecord(name, _sequence(chunks)))
    return records


def read_fasta(path) -> list[FastaRecord]:
    return parse_fasta(Path(path).read_bytes())
