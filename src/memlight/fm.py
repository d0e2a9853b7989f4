"""FM-index over a text: counting backward search, locating, and serialization.

The index stores the BWT of text plus sentinel and a sampled suffix array
for locating; cumulative symbol counts and blocked per-symbol rank
checkpoints are derived from the BWT when the index is built or loaded.
Backward search reports how many characters of a query prefix matched,
which is the single primitive the deterministic MEM finder needs.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .sequence import Alphabet, Pattern, QueryStats, Text
from .suffixes import SuffixArray, build_suffix_structures

MAGIC = b"MEMLIDX2"
_OLD_MAGIC = b"MEMLIDX1"
_HEADER = struct.Struct("<3Q")  # n, alphabet size, sample rate
_SENTINEL = -1
_BLOCK = 64


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


def _rank_checkpoints(bwt: np.ndarray, sigma: int) -> np.ndarray:
    """occ[b, c] counts symbol c in the first b * _BLOCK rows of the BWT."""
    nblocks = -(-bwt.size // _BLOCK)
    # one count per (block, symbol + 1); column 0 takes the sentinel
    key = np.arange(bwt.size, dtype=np.int64) // _BLOCK * (sigma + 1) + bwt + 1
    counts = np.bincount(key, minlength=nblocks * (sigma + 1)).reshape(nblocks, sigma + 1)
    occ = np.zeros((nblocks + 1, sigma), dtype=np.int64)
    np.cumsum(counts[:, 1:], axis=0, out=occ[1:])
    return occ


class FmIndex:
    """Immutable backward-search index; concurrent queries are safe.

    Query stats are owned by the caller and passed in explicitly, keeping
    the index itself stateless.  Construction validates the BWT and the
    suffix-array samples, so a file that loads cannot locate outside the text.
    """

    def __init__(self, alphabet: Alphabet, bwt: np.ndarray, sample_rate: int,
                 marks: np.ndarray, sample_values: np.ndarray):
        self.alphabet = alphabet
        self.n = bwt.size - 1
        self.s = sample_rate
        self._bwt = np.ascontiguousarray(bwt, dtype=np.int16)
        self._bwt.setflags(write=False)
        sigma = alphabet.size
        if int(self._bwt.max()) >= sigma or int(self._bwt.min()) < -1:
            raise IndexFormatError("BWT symbols out of range for the alphabet")
        self._occ = _rank_checkpoints(self._bwt, sigma)
        if int(self._occ[-1].sum()) != self.n:
            raise IndexFormatError("BWT must hold exactly one sentinel")
        c = np.empty(sigma + 1, dtype=np.int64)
        c[0] = 1  # row 0 is the sentinel suffix
        c[1:] = 1 + np.cumsum(self._occ[-1])
        self._c = c
        self._marks = np.ascontiguousarray(marks, dtype=bool)
        self._marks_cum = np.concatenate(
            ([0], np.cumsum(self._marks, dtype=np.int64))
        )
        self._samples = np.ascontiguousarray(sample_values, dtype=np.int64)
        if int(self._marks_cum[-1]) != self._samples.size:
            raise IndexFormatError("sample table does not match its row marks")
        if not np.array_equal(np.sort(self._samples),
                              np.arange(0, self.n + 1, sample_rate)):
            raise IndexFormatError(
                "suffix-array samples are not the multiples of the sample rate"
            )

    # -- queries ------------------------------------------------------------

    def rank(self, symbol: int, prefix_len: int) -> int:
        """Occurrences of symbol in the first prefix_len BWT rows."""
        blk = prefix_len // _BLOCK
        base = int(self._occ[blk, symbol])
        start = blk * _BLOCK
        if start == prefix_len:
            return base
        return base + int(np.count_nonzero(self._bwt[start:prefix_len] == symbol))

    def full_interval(self) -> BwtInterval:
        return BwtInterval(0, self.n + 1, 0)

    def backward_extend(self, iv: BwtInterval, symbol: int,
                        stats: QueryStats | None = None) -> BwtInterval:
        """Interval of symbol+current string; empty when it does not occur.

        Out-of-alphabet symbols yield an empty interval rather than an error,
        and every call counts as one backward step, including the failing one.
        """
        if stats is not None:
            stats.backward_steps += 1
        if not 0 <= symbol < self.alphabet.size:
            return BwtInterval(iv.lo, iv.lo, iv.depth + 1)
        base = self._c[symbol]
        lo = base + self.rank(symbol, iv.lo)
        hi = base + self.rank(symbol, iv.hi)
        return BwtInterval(int(lo), int(hi), iv.depth + 1)

    def backward_search_prefix(self, query, prefix_len: int,
                               stats: QueryStats | None = None) -> tuple[int, BwtInterval]:
        """Match the length-prefix_len prefix of the query right to left.

        Returns how many characters matched before the interval would have
        emptied, i.e. the length of the longest suffix of that prefix
        occurring in the text, with the interval of that suffix.
        """
        codes = query.data if isinstance(query, Pattern) else query
        if not 0 <= prefix_len <= len(codes):
            raise ValueError("prefix length out of range")
        iv = self.full_interval()
        matched = 0
        for pos in range(prefix_len - 1, -1, -1):
            nxt = self.backward_extend(iv, int(codes[pos]), stats)
            if nxt.lo >= nxt.hi:
                break
            iv = nxt
            matched += 1
        return matched, iv

    def _lf(self, row: int) -> int:
        sym = int(self._bwt[row])
        if sym < 0:
            return 0
        return int(self._c[sym]) + self.rank(sym, row)

    def locate_all(self, iv: BwtInterval) -> list[int]:
        """Text positions of every row in the interval, ascending.

        Each row walks at most sample_rate steps to a marked row.  The
        sentinel row resolves to position n and is excluded.
        """
        out = []
        for row in range(iv.lo, iv.hi):
            r, steps = row, 0
            while not self._marks[r]:
                r = self._lf(r)
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
        parts = [MAGIC,
                 _HEADER.pack(self.n, self.alphabet.size, self.s),
                 self.alphabet.symbols,
                 self._bwt.astype("<i2").tobytes(),
                 np.packbits(self._marks, bitorder="little").tobytes(),
                 self._samples.astype("<i8").tobytes()]
        body = b"".join(parts)
        return body + struct.pack("<I", zlib.crc32(body))

    def save(self, destination) -> None:
        Path(destination).write_bytes(self.to_bytes())

    @classmethod
    def from_bytes(cls, data: bytes) -> "FmIndex":
        if data[:8] == _OLD_MAGIC:
            raise IndexFormatError(
                "index is in the old MEMLIDX1 format; rebuild it with `memlight index`"
            )
        if data[:8] != MAGIC:
            raise IndexFormatError("not a memlight index")
        if len(data) < 8 + _HEADER.size + 4:
            raise IndexFormatError("truncated index file")
        n, sigma, s = _HEADER.unpack_from(data, 8)
        if n < 1 or not 1 <= sigma <= 256 or s < 1:
            raise IndexFormatError("index header is inconsistent")
        nrows = n + 1
        marks_bytes = -(-nrows // 8)
        n_samples = n // s + 1
        expected = 8 + _HEADER.size + sigma + nrows * 2 + marks_bytes + n_samples * 8 + 4
        if len(data) != expected:
            raise IndexFormatError(
                f"truncated index file: {len(data)} bytes, expected {expected}"
            )
        body, (crc,) = data[:-4], struct.unpack_from("<I", data, len(data) - 4)
        if zlib.crc32(body) != crc:
            raise IndexFormatError("index checksum mismatch")
        off = 8 + _HEADER.size
        alphabet = Alphabet(data[off : off + sigma])
        off += sigma
        bwt = np.frombuffer(data, dtype="<i2", count=nrows, offset=off)
        off += nrows * 2
        packed = np.frombuffer(data, dtype=np.uint8, count=marks_bytes, offset=off)
        marks = np.unpackbits(packed, bitorder="little", count=nrows).astype(bool)
        off += marks_bytes
        samples = np.frombuffer(data, dtype="<i8", count=n_samples, offset=off)
        return cls(alphabet, bwt.astype(np.int16), int(s), marks,
                   samples.astype(np.int64))

    @classmethod
    def load(cls, source) -> "FmIndex":
        return cls.from_bytes(Path(source).read_bytes())


def build_fm(text: Text, sample_rate: int = 32, sa: SuffixArray | None = None) -> FmIndex:
    """FM-index of the text, built from its suffix array."""
    if sample_rate < 1:
        raise ValueError("sample rate must be at least 1")
    if sa is None:
        sa = build_suffix_structures(text)
    ext = np.empty(text.n + 1, dtype=np.int16)
    ext[: text.n] = text.data
    ext[text.n] = _SENTINEL
    bwt = np.where(sa.sa > 0, ext[sa.sa - 1], _SENTINEL).astype(np.int16)
    marks = (sa.sa % sample_rate) == 0
    sample_values = sa.sa[marks]
    return FmIndex(text.alphabet, bwt, sample_rate, marks, sample_values)


def invert_bwt(index: FmIndex) -> np.ndarray:
    """Reconstruct the text codes from the BWT; validates index consistency."""
    out = np.empty(index.n, dtype=np.uint8)
    row = 0
    for i in range(index.n - 1, -1, -1):
        sym = int(index._bwt[row])
        out[i] = sym
        row = int(index._c[sym]) + index.rank(sym, row)
    return out
