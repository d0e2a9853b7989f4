"""FM-index over a text: counting backward search, locating, and serialization.

The index stores the BWT of text plus sentinel as one byte per row, with
the sentinel's row kept as a row index, and a sampled suffix array for
locating; cumulative symbol counts and blocked per-symbol rank checkpoints
are derived from the BWT when the index is built or loaded.  Backward
search reports how many characters of a query prefix matched, which is the
single primitive the deterministic MEM finder needs.
"""

from __future__ import annotations

import io
import os
import struct
import zlib
from array import array
from dataclasses import dataclass
from itertools import accumulate
from pathlib import Path

import numpy as np

from .sequence import Alphabet, Pattern, QueryStats, Text
from .suffixes import SuffixArray, build_suffix_structures

MAGIC = b"MEMLIDX3"
_OLD_MAGICS = (b"MEMLIDX1", b"MEMLIDX2")
# n, alphabet size, sample rate, sentinel row, separator count
_HEADER = struct.Struct("<5Q")
_SHIFT = 6
_BLOCK = 1 << _SHIFT  # BWT rows per rank checkpoint


class IndexFormatError(Exception):
    """A saved index could not be read back."""


@dataclass(frozen=True)
class BwtInterval:
    """Half-open row range in suffix order; width is the occurrence count."""

    lo: int
    hi: int
    depth: int = 0

    @property
    def width(self) -> int:
        return self.hi - self.lo


def _rank_checkpoints(codes: np.ndarray, sentinel_row: int, sigma: int) -> list[array]:
    """occ[c][b] counts symbol c in the first b * _BLOCK BWT rows.

    The sentinel row's filler byte is no symbol and is not counted.
    """
    nblocks = -(-codes.size // _BLOCK)
    key = np.arange(codes.size, dtype=np.int64) // _BLOCK * sigma + codes
    counts = np.bincount(key, minlength=nblocks * sigma).reshape(nblocks, sigma)
    counts[sentinel_row // _BLOCK, 0] -= 1
    occ = np.zeros((sigma, nblocks + 1), dtype=np.int64)
    np.cumsum(counts.T, axis=1, out=occ[:, 1:])
    return [array("q", column.tobytes()) for column in occ]


class FmIndex:
    """Immutable backward-search index; concurrent queries are safe.

    Query stats are owned by the caller and passed in explicitly, keeping
    the index itself stateless.  Construction validates the BWT and the
    suffix-array samples, so a file that loads cannot locate outside the text.

    `separators` are the alphabet bytes that join records of a concatenated
    text; callers splitting raw patterns treat them as foreign bytes.
    """

    def __init__(self, alphabet: Alphabet, bwt: bytes, sentinel_row: int,
                 sample_rate: int, marks: np.ndarray, sample_values: np.ndarray,
                 separators: bytes = b""):
        self.alphabet = alphabet
        self.n = len(bwt) - 1
        self.s = sample_rate
        self.sentinel_row = sentinel_row
        self.separators = bytes(separators)
        self._bwt = bytes(bwt)
        sigma = alphabet.size
        codes = np.frombuffer(self._bwt, dtype=np.uint8)
        if not 0 <= sentinel_row <= self.n:
            raise IndexFormatError("sentinel row lies outside the BWT")
        if codes[sentinel_row] != 0:
            raise IndexFormatError("the sentinel row must hold the filler byte 0")
        if int(codes.max()) >= sigma:
            raise IndexFormatError("BWT symbols out of range for the alphabet")
        if (bytes(sorted(set(self.separators))) != self.separators
                or not set(self.separators) <= set(alphabet.symbols)):
            raise IndexFormatError("record separators must be distinct alphabet bytes, ascending")
        self._occ = _rank_checkpoints(codes, sentinel_row, sigma)
        self._c = list(accumulate((column[-1] for column in self._occ), initial=1))
        self._marks = np.ascontiguousarray(marks, dtype=bool).tobytes()
        self._marks_cum = np.concatenate(
            ([0], np.cumsum(np.frombuffer(self._marks, dtype=np.uint8), dtype=np.int64))
        )
        self._samples = np.ascontiguousarray(sample_values, dtype=np.int64)
        if len(self._marks) != self.n + 1 or int(self._marks_cum[-1]) != self._samples.size:
            raise IndexFormatError("sample table does not match its row marks")
        if not np.array_equal(np.sort(self._samples),
                              np.arange(0, self.n + 1, sample_rate)):
            raise IndexFormatError(
                "suffix-array samples are not the multiples of the sample rate"
            )

    # -- queries ------------------------------------------------------------

    def rank(self, symbol: int, prefix_len: int) -> int:
        """Occurrences of symbol in the first prefix_len BWT rows.

        The single-step reference for the loop in backward_search_prefix.
        symbol must be a Python int: bytes.count would read a numpy scalar
        as the buffer of its bytes.
        """
        start = prefix_len & -_BLOCK
        count = (self._occ[symbol][prefix_len >> _SHIFT]
                 + self._bwt.count(symbol, start, prefix_len))
        if symbol == 0 and start <= self.sentinel_row < prefix_len:
            count -= 1  # the sentinel row's filler byte
        return count

    def backward_search_prefix(self, query, prefix_len: int,
                               stats: QueryStats | None = None) -> tuple[int, BwtInterval]:
        """Match the length-prefix_len prefix of the query right to left.

        Returns how many characters matched before the interval would have
        emptied, i.e. the length of the longest suffix of that prefix
        occurring in the text, with the interval of that suffix.  Every
        step counts as one backward step, including the failing one; a code
        outside the alphabet matches nothing.  The query is a Pattern or a
        sequence of codes; a list of ints is the fast path.
        """
        codes = query.data if isinstance(query, Pattern) else query
        if not 0 <= prefix_len <= len(codes):
            raise ValueError("prefix length out of range")
        if isinstance(codes, np.ndarray):
            codes = codes[:prefix_len].tolist()  # ints, not numpy scalars, for rank
        # rank(sym, k) inlined for both ends: checkpoint plus in-block tail
        count, occ, c = self._bwt.count, self._occ, self._c
        sigma, sentinel_row = len(occ), self.sentinel_row
        mask, shift = -_BLOCK, _SHIFT
        lo, hi, matched = 0, self.n + 1, 0
        for pos in range(prefix_len - 1, -1, -1):
            sym = codes[pos]
            if not 0 <= sym < sigma:
                break
            column, base = occ[sym], c[sym]
            lo_start, hi_start = lo & mask, hi & mask
            new_lo = base + column[lo >> shift] + count(sym, lo_start, lo)
            new_hi = base + column[hi >> shift] + count(sym, hi_start, hi)
            if sym == 0:  # the sentinel row's filler byte is no symbol
                new_lo -= lo_start <= sentinel_row < lo
                new_hi -= hi_start <= sentinel_row < hi
            if new_lo >= new_hi:
                break
            lo, hi = new_lo, new_hi
            matched += 1
        if stats is not None:
            stats.backward_steps += matched + (matched < prefix_len)
        return matched, BwtInterval(lo, hi, matched)

    def _lf(self, row: int) -> int:
        if row == self.sentinel_row:
            return 0
        sym = self._bwt[row]
        return self._c[sym] + self.rank(sym, row)

    def locate_all(self, iv: BwtInterval) -> list[int]:
        """Text positions of every row in the interval, ascending.

        Each row walks at most sample_rate steps to a marked row.  The
        sentinel row resolves to position n and is excluded.
        """
        marks, lf = self._marks, self._lf
        out = []
        for row in range(iv.lo, iv.hi):
            r, steps = row, 0
            while not marks[r]:
                r = lf(r)
                steps += 1
                if steps > self.n:
                    raise IndexFormatError("suffix-array samples are unreachable")
            pos = int(self._samples[self._marks_cum[r]]) + steps
            if pos > self.n:
                raise IndexFormatError("suffix-array samples point past the text")
            if pos != self.n:
                out.append(pos)
        return sorted(out)

    # -- serialization -------------------------------------------------------

    def to_bytes(self) -> bytes:
        marks = np.frombuffer(self._marks, dtype=np.uint8)
        parts = [MAGIC,
                 _HEADER.pack(self.n, self.alphabet.size, self.s,
                              self.sentinel_row, len(self.separators)),
                 self.alphabet.symbols,
                 self.separators,
                 self._bwt,
                 np.packbits(marks, bitorder="little").tobytes(),
                 self._samples.astype("<i8").tobytes()]
        body = b"".join(parts)
        return body + struct.pack("<I", zlib.crc32(body))

    def save(self, destination) -> None:
        Path(destination).write_bytes(self.to_bytes())

    @classmethod
    def from_bytes(cls, data: bytes) -> "FmIndex":
        return cls._read(io.BytesIO(data), len(data))

    @classmethod
    def load(cls, source) -> "FmIndex":
        with open(source, "rb") as stream:
            return cls._read(stream, os.fstat(stream.fileno()).st_size)

    @classmethod
    def _read(cls, stream, size: int) -> "FmIndex":
        """Parse an index of `size` bytes section by section.

        Each section is read into its own bytes object, so the BWT section
        becomes the index's BWT without a further copy.
        """
        magic = stream.read(8)
        if magic in _OLD_MAGICS:
            raise IndexFormatError(
                f"index is in the old {magic.decode()} format; "
                "rebuild it with `memlight index`"
            )
        if magic != MAGIC:
            raise IndexFormatError("not a memlight index")
        if size < 8 + _HEADER.size + 4:
            raise IndexFormatError("truncated index file")
        header = stream.read(_HEADER.size)
        n, sigma, s, sentinel_row, n_separators = _HEADER.unpack(header)
        if n < 1 or not 1 <= sigma <= 256 or s < 1 or n_separators > sigma:
            raise IndexFormatError("index header is inconsistent")
        nrows = n + 1
        sizes = (sigma, n_separators, nrows, -(-nrows // 8), (n // s + 1) * 8)
        expected = 8 + _HEADER.size + sum(sizes) + 4
        if size != expected:
            raise IndexFormatError(
                f"truncated index file: {size} bytes, expected {expected}"
            )
        crc = zlib.crc32(header, zlib.crc32(magic))
        sections = []
        for length in sizes:
            sections.append(stream.read(length))
            crc = zlib.crc32(sections[-1], crc)
        if struct.unpack("<I", stream.read(4))[0] != crc:
            raise IndexFormatError("index checksum mismatch")
        symbols, separators, bwt, packed, samples = sections
        marks = np.unpackbits(np.frombuffer(packed, dtype=np.uint8),
                              bitorder="little", count=nrows)
        return cls(Alphabet(symbols), bwt, sentinel_row, s, marks,
                   np.frombuffer(samples, dtype="<i8"), separators)


def build_fm(text: Text, sample_rate: int = 32, sa: SuffixArray | None = None,
             separators: bytes = b"") -> FmIndex:
    """FM-index of the text, built from its suffix array.

    `separators` names the alphabet bytes that join the records of a
    concatenated text; they are stored with the index.
    """
    if sample_rate < 1:
        raise ValueError("sample rate must be at least 1")
    if sa is None:
        sa = build_suffix_structures(text)
    bwt = text.data[sa.sa - 1]
    sentinel_row = int(np.argmin(sa.sa))  # the row of suffix 0
    bwt[sentinel_row] = 0
    marks = (sa.sa % sample_rate) == 0
    sample_values = sa.sa[marks]
    return FmIndex(text.alphabet, bwt.tobytes(), sentinel_row, sample_rate,
                   marks, sample_values, separators)


def invert_bwt(index: FmIndex) -> np.ndarray:
    """Reconstruct the text codes from the BWT; validates index consistency."""
    out = np.empty(index.n, dtype=np.uint8)
    row = 0
    for i in range(index.n - 1, -1, -1):
        if row == index.sentinel_row:
            raise IndexFormatError("the BWT walk reaches the sentinel before the text's start")
        sym = index._bwt[row]
        out[i] = sym
        row = index._c[sym] + index.rank(sym, row)
    return out
