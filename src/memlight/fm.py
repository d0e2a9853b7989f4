"""FM-index over a text: counting backward search, locating, and serialization.

The index stores the BWT of text plus sentinel as one byte per row, with
the sentinel's row kept as a row index, and a sampled suffix array for
locating: a packed bitmap of the sampled rows and their text positions.
Rank is derived from the BWT on first use, as one bitmap of 64-row words
per symbol beside a running count per word (Jacobson's rank), so that a
backward step or an LF step is a count read plus one popcount for each end
of the interval.  The sentinel's row is in no bitmap and needs no
correction.  Backward search reports how many characters of a query prefix
matched, which is the single primitive the deterministic MEM finder needs.
It starts from a table, also built on first search, of the interval of
every k-mer of the text (k = 10 on binary text, 5 on DNA), so that the
first k steps of a search are one lookup.

Loading and querying use the standard library only; building imports numpy.
"""

from __future__ import annotations

import io
import os
import struct
import sys
import zlib
from array import array
from functools import cached_property, reduce
from itertools import accumulate
from operator import or_
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple

from .sequence import Alphabet, Pattern, QueryStats

if TYPE_CHECKING:
    import numpy as np

    from .sequence import Text
    from .suffixes import SuffixArray

MAGIC = b"MEMLIDX3"
_OLD_MAGICS = (b"MEMLIDX1", b"MEMLIDX2")
# n, alphabet size, sample rate, sentinel row, separator count
_HEADER = struct.Struct("<5Q")
# _BELOW[i] keeps the bits of a 64-row word's rows before row i
_BELOW = tuple((1 << i) - 1 for i in range(64))
_DIGIT_ROWS = 1 << 16  # BWT rows translated to binary digits at a time
_KMER_LANES = 1 << 10  # k is the largest with at most this many k-mers


class IndexFormatError(Exception):
    """A saved index could not be read back."""


class BwtInterval(NamedTuple):
    """Half-open row range in suffix order; width is the occurrence count."""

    lo: int
    hi: int

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


def _rank_bitmaps(bwt: bytes, sentinel_row: int,
                  sigma: int) -> tuple[list[array], list[array]]:
    """One 64-row bitmap and one count column per symbol.

    Bit i of words[c][w] is set when BWT row 64w + i holds symbol c, and
    cols[c][w] is C[c] plus the rows holding c before row 64w, so that
    C[c] + rank(c, k) is cols[c][k >> 6] plus a popcount inside word k >> 6.
    The sentinel row is in no bitmap, and one padding word lets row n + 1 be
    ranked.  Every pass over the BWT is a C-level call: a symbol rarer than
    one per eight words (such as a record separator) is set and counted
    from its rows; the common symbols' bitmaps are combined from bit planes
    of their indexes, each plane the BWT translated to binary digits and
    read by int(), and their counts are running popcounts.
    """
    nrows = len(bwt)
    nwords = (nrows >> 6) + 1
    nbytes = 8 * nwords
    rows_mask = ((1 << nrows) - 1) ^ (1 << sentinel_row)
    bitmaps = [0] * sigma
    sparse: dict[int, list[int]] = {}  # the rows of each rare symbol
    dense = []
    for symbol in range(sigma):
        rows = _rows_holding(bwt, symbol, nwords // 8 + 1)
        if rows is None:
            dense.append(symbol)
            continue
        rows = sparse[symbol] = [row for row in rows if row != sentinel_row]
        flags = bytearray(nbytes)
        for row in rows:
            flags[row >> 3] |= 1 << (row & 7)
        bitmaps[symbol] = int.from_bytes(flags, "little")
    # plane j holds the rows whose symbol has bit j set in its index among
    # the common symbols, so k common symbols take log2 k parses; with two,
    # the second's bitmap is the plane and the first's is what it leaves
    tables = [bytearray(b"0" * 256) for _ in range(max(len(dense) - 1, 0).bit_length())]
    for index, symbol in enumerate(dense):
        for j, table in enumerate(tables):
            if index >> j & 1:
                table[symbol] = ord("1")
    planes = [0] * len(tables)
    for start in range(0, nrows, _DIGIT_ROWS):
        # int() reads the most significant digit first, so a reversed slice
        # of the BWT gives the rows their bits; slices keep the copies small
        backwards = bwt[start : start + _DIGIT_ROWS][::-1]
        for j, table in enumerate(tables):
            planes[j] |= int(backwards.translate(table), 2) << start
    common = rows_mask ^ reduce(or_, bitmaps)  # the rows of common symbols
    for index, symbol in enumerate(dense):
        bitmap = common
        for j, plane in enumerate(planes):
            bitmap &= plane if index >> j & 1 else ~plane
        bitmaps[symbol] = bitmap
    del planes, common, rows_mask  # freed before the arrays are made
    words, cols, below = [], [], 1  # row 0, the empty suffix, sorts first
    bitmaps.reverse()  # popped in symbol order: each int goes once its words exist
    for symbol in range(sigma):
        bits = array("Q", bitmaps.pop().to_bytes(nbytes, "little"))
        if sys.byteorder == "big":
            bits.byteswap()
        rows = sparse.get(symbol)
        if rows is None:
            col = array("q", accumulate(map(int.bit_count, bits), initial=below))
        else:  # a rare symbol's count steps up only after its rows' words
            col = array("q")
            for seen, row in enumerate(rows, below):
                col.extend(array("q", [seen]) * ((row >> 6) + 1 - len(col)))
            col.extend(array("q", [below + len(rows)]) * (nwords + 1 - len(col)))
        words.append(bits)
        cols.append(col)
        below = col[-1]
    return words, cols


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
        marked = int.from_bytes(self._marks, "little")
        if marked >> nrows:
            raise IndexFormatError("row marks are set past the last BWT row")
        if marked.bit_count() != len(self._samples):
            raise IndexFormatError("sample table does not match its row marks")
        if sorted(self._samples) != list(range(0, nrows, sample_rate)):
            raise IndexFormatError(
                "suffix-array samples are not the multiples of the sample rate"
            )
        # text position 0 is the suffix preceded by the sentinel: its sample
        # must sit on the sentinel row, which the filler byte cannot show
        if not (marked >> sentinel_row & 1 and self._samples[
                (marked & ((1 << sentinel_row) - 1)).bit_count()] == 0):
            raise IndexFormatError("the sentinel row is not the row of text position 0")

    # the rank structures are built on first search and the marks' running
    # counts on first locate: `memlight index` saves an index without either,
    # and most queries never locate
    @cached_property
    def _rank(self) -> tuple[list[array], list[array]]:
        return _rank_bitmaps(self._bwt, self.sentinel_row, self.alphabet.size)

    @cached_property
    def _c(self) -> list[int]:
        cols = self._rank[1]
        return [col[0] for col in cols] + [cols[-1][-1]]

    @cached_property
    def _kmers(self) -> tuple[int, dict[bytes, tuple[int, int]]]:
        """k and the interval of every k-mer over the non-separator symbols
        that occurs in the text, keyed by its code bytes (Bowtie's ftab).

        Built breadth-first: each level extends every nonempty interval of
        the level before by each symbol, with the step of
        backward_search_prefix.  A text of fewer than two such symbols gets
        no table (k = 0).
        """
        symbols = [code for code, byte in enumerate(self.alphabet.symbols)
                   if byte not in self.separators]
        if len(symbols) < 2:
            return 0, {}
        k = 1
        while len(symbols) ** (k + 1) <= _KMER_LANES:
            k += 1
        words, cols = self._rank
        below = _BELOW
        lanes = [(b"", 0, self.n + 1)]
        for _ in range(k):
            extended = []
            for sym in symbols:
                head, bits, col = bytes((sym,)), words[sym], cols[sym]
                # the lanes are in row order and mostly adjacent, so a lane's
                # lo is usually the hi ranked just before
                end = end_rank = -1
                for key, lo, hi in lanes:
                    new_lo = end_rank if lo == end else (
                        col[lo >> 6] + (bits[lo >> 6] & below[lo & 63]).bit_count())
                    end, end_rank = hi, col[hi >> 6] + (bits[hi >> 6] & below[hi & 63]).bit_count()
                    if new_lo < end_rank:
                        extended.append((head + key, new_lo, end_rank))
            lanes = extended
        return k, {key: (lo, hi) for key, lo, hi in lanes}

    @cached_property
    def _mark_ranks(self) -> array:
        words = memoryview(self._marks + bytes(-len(self._marks) % 8)).cast("Q")
        return array("q", accumulate(map(int.bit_count, words), initial=0))

    # -- queries ------------------------------------------------------------

    def rank(self, symbol: int, prefix_len: int) -> int:
        """Occurrences of symbol in the first prefix_len BWT rows.

        The single-step reference for the loops in backward_search_prefix
        and locate_all.
        """
        words, cols = self._rank
        word = prefix_len >> 6
        return (cols[symbol][word] - cols[symbol][0]
                + (words[symbol][word] & _BELOW[prefix_len & 63]).bit_count())

    def backward_search_prefix(self, query, prefix_len: int,
                               stats: QueryStats | None = None) -> tuple[int, BwtInterval]:
        """Match the length-prefix_len prefix of the query right to left.

        Returns how many characters matched before the interval would have
        emptied, i.e. the length of the longest suffix of that prefix
        occurring in the text, with the interval of that suffix.  Every
        step counts as one backward step, including the failing one; a code
        outside the alphabet matches nothing.  The query is a Pattern or a
        sequence of codes; bytes or a list of ints is the fast path.

        When the codes are bytes and the prefix's last k symbols are a k-mer
        of the text, one lookup in the k-mer table gives their interval and
        the search goes on from there, counting those k steps; any other
        prefix is searched from the full interval.  Either way the result
        and the steps counted are those of a search by single steps.
        """
        codes = query.code_bytes if isinstance(query, Pattern) else query
        if not 0 <= prefix_len <= len(codes):
            raise ValueError("prefix length out of range")
        lo, hi, matched = 0, self.n + 1, 0
        if isinstance(codes, bytes):
            k, kmers = self._kmers
            if prefix_len >= k > 0:
                hit = kmers.get(codes[prefix_len - k : prefix_len])
                if hit is not None:
                    (lo, hi), matched = hit, k
        elif not isinstance(codes, list):
            codes = list(map(int, codes[:prefix_len]))  # ints, not numpy scalars
        # C[sym] + rank(sym, r) inlined for both ends r: the count column at
        # r's word plus a popcount inside the word
        words, cols = self._rank
        below, sigma = _BELOW, len(cols)
        for pos in range(prefix_len - matched - 1, -1, -1):
            sym = codes[pos]
            if not 0 <= sym < sigma:
                break
            bits, col = words[sym], cols[sym]
            new_lo = col[lo >> 6] + (bits[lo >> 6] & below[lo & 63]).bit_count()
            new_hi = col[hi >> 6] + (bits[hi >> 6] & below[hi & 63]).bit_count()
            if new_lo >= new_hi:
                break
            lo, hi = new_lo, new_hi
            matched += 1
        if stats is not None:
            stats.backward_steps += matched + (matched < prefix_len)
        return matched, BwtInterval(lo, hi)

    def locate_all(self, iv: BwtInterval) -> list[int]:
        """Text positions of every row in the interval, ascending.

        Each row walks at most sample_rate LF steps to a marked row.  Row 0,
        the empty suffix, resolves to position n and is excluded.
        """
        # LF(r) = C[sym] + rank(sym, r), inlined as in backward_search_prefix;
        # the sentinel row is marked (load checks it), so no walk passes it
        bwt, (words, cols), below = self._bwt, self._rank, _BELOW
        marks, mark_ranks, samples = self._marks, self._mark_ranks, self._samples
        n = self.n
        out = []
        for row in range(iv.lo, iv.hi):
            r, steps = row, 0
            while not marks[r >> 3] >> (r & 7) & 1:
                sym = bwt[r]
                r = cols[sym][r >> 6] + (words[sym][r >> 6] & below[r & 63]).bit_count()
                steps += 1
                if steps > n:
                    raise IndexFormatError("suffix-array samples are unreachable")
            # marks before r: those of earlier 64-row words, then r's own word
            word = r >> 6
            in_word = int.from_bytes(marks[word << 3 : (r >> 3) + 1], "little")
            pos = samples[mark_ranks[word] + (in_word & below[r & 63]).bit_count()] + steps
            if pos > n:
                raise IndexFormatError("suffix-array samples point past the text")
            if pos != n:
                out.append(pos)
        return sorted(out)

    # -- serialization -------------------------------------------------------

    def to_bytes(self) -> bytes:
        samples = array("q", self._samples)
        if sys.byteorder == "big":
            samples.byteswap()  # stored little-endian
        parts = [MAGIC,
                 _HEADER.pack(self.n, self.alphabet.size, self.s,
                              self.sentinel_row, len(self.separators)),
                 self.alphabet.symbols,
                 self.separators,
                 self._bwt,
                 self._marks,
                 samples.tobytes()]
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
        values = array("q")
        values.frombytes(samples)
        if sys.byteorder == "big":
            values.byteswap()
        return cls(Alphabet(symbols), bwt, sentinel_row, s, marks, values, separators)


def build_fm(text: Text, sample_rate: int = 32, sa: SuffixArray | None = None,
             separators: bytes = b"") -> FmIndex:
    """FM-index of the text, built from its suffix array.

    `separators` names the alphabet bytes that join the records of a
    concatenated text; they are stored with the index.
    """
    import numpy as np

    from .suffixes import build_suffix_structures

    if not 1 <= sample_rate < 1 << 63:
        raise ValueError("sample rate must be at least 1 and below 2**63")
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
