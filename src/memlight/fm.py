"""FM-index over a text: counting backward search, locating, and serialization.

The index stores the BWT of text plus sentinel as one byte per row, with
the sentinel's row kept as a row index, and a sampled suffix array for
locating: a packed bitmap of the sampled rows and their text positions.
Cumulative symbol counts and blocked per-symbol rank checkpoints are
derived from the BWT on first use.  Backward search
reports how many characters of a query prefix matched, which is the single
primitive the deterministic MEM finder needs.

Loading and querying use the standard library only; building imports numpy.
"""

from __future__ import annotations

import io
import os
import struct
import zlib
from array import array
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, repeat
from operator import sub
from pathlib import Path
from typing import TYPE_CHECKING

from .sequence import Alphabet, Pattern, QueryStats

if TYPE_CHECKING:
    import numpy as np

    from .sequence import Text
    from .suffixes import SuffixArray

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


def _rows_holding(bwt: bytes, symbol: int, limit: int) -> list[int] | None:
    """Every row whose byte is symbol, or None when there are more than limit."""
    rows, find = [], bwt.find
    row = find(symbol)
    while row >= 0:
        if len(rows) == limit:
            return None
        rows.append(row)
        row = find(symbol, row + 1)
    return rows


def _rank_checkpoints(bwt: bytes, sentinel_row: int, sigma: int) -> list[array]:
    """occ[c][b] counts symbol c in the first b * _BLOCK BWT rows.

    The sentinel row's filler byte is no symbol and is not counted.  A
    symbol rarer than one per eight blocks (such as a record separator) is
    counted from its rows; the others block by block with bytes.count,
    except one, whose counts are what the rest leave of each block.
    """
    nrows = len(bwt)
    starts = range(0, nrows, _BLOCK)
    nblocks = len(starts)
    sentinel_block = sentinel_row >> _SHIFT
    occ: list[array | None] = [None] * sigma
    rest = [_BLOCK] * nblocks  # rows of each block no symbol has claimed yet
    rest[-1] = nrows - starts[-1]
    rest[sentinel_block] -= 1
    dense = []
    for symbol in range(sigma):
        rows = _rows_holding(bwt, symbol, nblocks // 8 + 1)
        if rows is None:
            dense.append(symbol)
            continue
        if symbol == 0:
            rows.remove(sentinel_row)
        column = occ[symbol] = array("q")
        for seen, row in enumerate(rows):
            # checkpoints up to row's block count the `seen` rows before it
            rest[row >> _SHIFT] -= 1
            column.extend(array("q", [seen]) * ((row >> _SHIFT) + 1 - len(column)))
        column.extend(array("q", [len(rows)]) * (nblocks + 1 - len(column)))
    for symbol in dense:
        if symbol == dense[-1]:
            counts = rest
        else:
            counts = list(map(bwt.count, repeat(symbol), starts,
                              range(_BLOCK, nrows + _BLOCK, _BLOCK)))
            if symbol == 0:
                counts[sentinel_block] -= 1
            rest = list(map(sub, rest, counts))
        occ[symbol] = array("q", accumulate(counts, initial=0))
    return occ


class FmIndex:
    """Immutable backward-search index; concurrent queries are safe.

    Query stats are owned by the caller and passed in explicitly, keeping
    the index itself stateless.  Construction validates the BWT and the
    suffix-array samples, so a file that loads cannot locate outside the text.

    `separators` are the alphabet bytes that join records of a concatenated
    text; callers splitting raw patterns treat them as foreign bytes.
    """

    def __init__(self, alphabet: Alphabet, bwt: bytes, sentinel_row: int,
                 sample_rate: int, marks: bytes, sample_values,
                 separators: bytes = b""):
        """`marks` is the packed bitmap of sampled rows, row r at bit r % 8 of
        byte r // 8, as saved; `sample_values` are their text positions in
        row order."""
        self.alphabet = alphabet
        self.n = len(bwt) - 1
        self.s = sample_rate
        self.sentinel_row = sentinel_row
        self.separators = bytes(separators)
        self._bwt = bytes(bwt)
        sigma = alphabet.size
        if not 0 <= sentinel_row <= self.n:
            raise IndexFormatError("sentinel row lies outside the BWT")
        if self._bwt[sentinel_row] != 0:
            raise IndexFormatError("the sentinel row must hold the filler byte 0")
        if self._bwt.translate(None, bytes(range(sigma))):
            raise IndexFormatError("BWT symbols out of range for the alphabet")
        if (bytes(sorted(set(self.separators))) != self.separators
                or not set(self.separators) <= set(alphabet.symbols)):
            raise IndexFormatError("record separators must be distinct alphabet bytes, ascending")
        # the marks stay packed: a marked row's sample is found from the
        # marks counted before its 64-row word, kept per word
        self._marks = bytes(marks)
        self._samples = array("q", sample_values)
        nrows = self.n + 1
        if len(self._marks) != -(-nrows // 8):
            raise IndexFormatError("sample table does not match its row marks")
        if self._marks[-1] >> (nrows - 8 * (len(self._marks) - 1)):
            raise IndexFormatError("row marks are set past the last BWT row")
        words = memoryview(self._marks + bytes(-len(self._marks) % 8)).cast("Q")
        self._mark_ranks = array("q", accumulate(map(int.bit_count, words), initial=0))
        if self._mark_ranks[-1] != len(self._samples):
            raise IndexFormatError("sample table does not match its row marks")
        if sorted(self._samples) != list(range(0, nrows, sample_rate)):
            raise IndexFormatError(
                "suffix-array samples are not the multiples of the sample rate"
            )

    # the checkpoints are built on first use: `memlight index` saves an
    # index without ever querying it
    @cached_property
    def _occ(self) -> list[array]:
        return _rank_checkpoints(self._bwt, self.sentinel_row, self.alphabet.size)

    @cached_property
    def _c(self) -> list[int]:
        return list(accumulate((column[-1] for column in self._occ), initial=1))

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
        sequence of codes; bytes or a list of ints is the fast path.
        """
        codes = query.code_bytes if isinstance(query, Pattern) else query
        if not 0 <= prefix_len <= len(codes):
            raise ValueError("prefix length out of range")
        if not isinstance(codes, (bytes, list)):
            codes = list(map(int, codes[:prefix_len]))  # ints, not numpy scalars, for count
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

    def locate_all(self, iv: BwtInterval) -> list[int]:
        """Text positions of every row in the interval, ascending.

        Each row walks at most sample_rate LF steps to a marked row.  The
        sentinel row resolves to position n and is excluded.
        """
        # LF(r) = C[sym] + rank(sym, r), with rank inlined as in
        # backward_search_prefix
        bwt, count, occ, c = self._bwt, self._bwt.count, self._occ, self._c
        marks, mark_ranks, samples = self._marks, self._mark_ranks, self._samples
        sentinel_row, n = self.sentinel_row, self.n
        mask, shift = -_BLOCK, _SHIFT
        out = []
        for row in range(iv.lo, iv.hi):
            r, steps = row, 0
            while not marks[r >> 3] >> (r & 7) & 1:
                if r == sentinel_row:
                    r = 0
                else:
                    sym = bwt[r]
                    start = r & mask
                    r_next = c[sym] + occ[sym][r >> shift] + count(sym, start, r)
                    if sym == 0 and start <= sentinel_row < r:
                        r_next -= 1  # the sentinel row's filler byte
                    r = r_next
                steps += 1
                if steps > n:
                    raise IndexFormatError("suffix-array samples are unreachable")
            # marks before r: those of earlier 64-row words, then r's own word
            word = r >> 6
            below = int.from_bytes(marks[word << 3 : (r >> 3) + 1], "little")
            sample = mark_ranks[word] + (below & ((1 << (r & 63)) - 1)).bit_count()
            pos = samples[sample] + steps
            if pos > n:
                raise IndexFormatError("suffix-array samples point past the text")
            if pos != n:
                out.append(pos)
        return sorted(out)

    # -- serialization -------------------------------------------------------

    def to_bytes(self) -> bytes:
        parts = [MAGIC,
                 _HEADER.pack(self.n, self.alphabet.size, self.s,
                              self.sentinel_row, len(self.separators)),
                 self.alphabet.symbols,
                 self.separators,
                 self._bwt,
                 self._marks,
                 struct.pack(f"<{len(self._samples)}q", *self._samples)]
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
        symbols, separators, bwt, marks, samples = sections
        return cls(Alphabet(symbols), bwt, sentinel_row, s, marks,
                   struct.unpack(f"<{len(samples) // 8}q", samples), separators)


def build_fm(text: Text, sample_rate: int = 32, sa: SuffixArray | None = None,
             separators: bytes = b"") -> FmIndex:
    """FM-index of the text, built from its suffix array.

    `separators` names the alphabet bytes that join the records of a
    concatenated text; they are stored with the index.
    """
    import numpy as np

    from .suffixes import build_suffix_structures

    if sample_rate < 1:
        raise ValueError("sample rate must be at least 1")
    if sa is None:
        sa = build_suffix_structures(text)
    bwt = text.data[sa.sa - 1]
    sentinel_row = int(np.argmin(sa.sa))  # the row of suffix 0
    bwt[sentinel_row] = 0
    marks = (sa.sa % sample_rate) == 0
    return FmIndex(text.alphabet, bwt.tobytes(), sentinel_row, sample_rate,
                   np.packbits(marks, bitorder="little").tobytes(),
                   sa.sa[marks].tolist(), separators)


def invert_bwt(index: FmIndex) -> np.ndarray:
    """Reconstruct the text codes from the BWT; validates index consistency."""
    import numpy as np

    out = np.empty(index.n, dtype=np.uint8)
    row = 0
    for i in range(index.n - 1, -1, -1):
        if row == index.sentinel_row:
            raise IndexFormatError("the BWT walk reaches the sentinel before the text's start")
        sym = index._bwt[row]
        out[i] = sym
        row = index._c[sym] + index.rank(sym, row)
    return out
