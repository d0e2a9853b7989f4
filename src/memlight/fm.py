"""FM-index over a text: counting backward search, locating, and serialization.

The index stores the BWT of text plus sentinel as bit planes.  The symbols
are numbered by descending count in the BWT, ties by code, and the order
table holds the code of each number; ceil(log2 sigma) bit planes store the
numbers, bit r of plane j being bit j of row r's number.  The sentinel's
row holds 0 in every plane.  A sampled suffix array serves locating: the
row of every text position that is a multiple of the sample rate, in text
order, so that the first is the sentinel's row, the row of text position 0.
The saved index holds the planes and then the sample rows as one raw
DEFLATE stream: planes 2k and 2k + 1 as one stream of 2-bit fields, one per
row, and an odd last plane alone; each row's bytes grouped by byte
position.  The runs of a repetitive text's BWT deflate (Ferragina and
Manzini's opportunistic compression), and a pair's fields keep a run of one
symbol one run of one field value, where two planes apart split it into two
unrelated bit runs; numbering by frequency leaves the top plane sparse when
the rarest symbols are rare, and a byte position of the rows that holds few
values costs few bits; a text holds fewer than 2**31 symbols, so a row
takes 4 bytes.  Load inflates the stream, never past the size the header
implies, splits the pairs back into planes, and ANDs the planes or their
complements into one bitmap per number, keeping only the popcounts, each
under its number's code: the C array, whose last entry shows whether every
row holds a number of the alphabet.  The first search splits the rows again
into 256-row words per symbol, held as ints in a list, beside a running
count per word that starts at C[c] (Jacobson's rank), so that a backward
step or an LF step is a count read plus one popcount for each end of the
interval.  The sentinel's row is in no bitmap and needs no correction.
Locating reads one code byte and one sample flag per row, both derived on
first locate.
Backward search reports how many characters of a query prefix matched,
which is the single primitive the deterministic MEM finder needs.
It starts from a table, also built on first search, of the interval of
every k-mer of the text (k = 10 on binary text, 5 on DNA), so that the
first k steps of a search are one lookup.

Building imports numpy, writes the saved bytes and parses them as a load
does; loading and querying use the standard library only.
"""

from __future__ import annotations

import struct
import sys
import time
import zlib
from array import array
from functools import cached_property, reduce
from itertools import accumulate, compress
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple

from .sequence import Alphabet, MemRecord, QueryStats, Text, check_text_length

if TYPE_CHECKING:
    from .suffixes import SuffixArray

# the eighth byte is the version: a file whose eighth byte is lower is in an
# older format, and one whose eighth byte is higher in a newer one
MAGIC = b"MEMLIDXA"
# the default sample rate of the index that locates
SAMPLE_RATE = 56
# n, alphabet size, sample rate, separator count
_HEADER = struct.Struct("<4Q")
# _BELOW[i] keeps the bits of a 256-row word's rows before row i
_BELOW = tuple((1 << i) - 1 for i in range(256))
# _DIGITS[j] turns plane j's binary digits into bytes holding bit j
_DIGITS = tuple(bytes.maketrans(b"01", bytes((0, 1 << j))) for j in range(8))
# _NIBBLE[x] moves bit i of a 4-bit x to bit 2i of a byte; _GATHER[j][h]
# moves bit 2i + j of a byte to bit i of half h (0 low, 1 high) of a byte
_NIBBLE = [sum((x >> i & 1) << 2 * i for i in range(4)) for x in range(16)]
_GATHER = tuple(tuple(bytes(_NIBBLE.index(x >> j & 0x55) << 4 * h for x in range(256))
                      for h in (0, 1)) for j in (0, 1))
_KMER_LANES = 1 << 10  # k is the largest with at most this many k-mers
# _ONEHOT[c] translates code c to 1 and every other byte to 0
_ONEHOT = tuple(bytes(c) + b"\1" + bytes(255 - c) for c in range(256))


class IndexFormatError(ValueError):
    """A saved index could not be read back, or a pair of indexes disagrees."""


class BwtInterval(NamedTuple):
    """Half-open row range in suffix order; width is the occurrence count."""

    lo: int
    hi: int

    @property
    def width(self) -> int:
        return self.hi - self.lo


def _plane_count(sigma: int) -> int:
    """Bit planes of a BWT over sigma codes: ceil(log2 sigma), none for one."""
    return (sigma - 1).bit_length()


def _unpack_rows(data) -> array:
    """Rows stored one byte position after another, every row's lowest byte
    first, into an array('I'), by one strided slice per position."""
    count, wide = len(data) // 4, bytearray(len(data))
    for j in range(4):
        wide[j::4] = data[j * count : (j + 1) * count]
    rows = array("I", wide)
    if sys.byteorder == "big":
        rows.byteswap()
    return rows


def _split_pair(stream: bytes) -> list[int]:
    """The planes, low and high, of a stream of 2-bit fields whose byte i
    holds row 4i + j's bits at bits 2j (low) and 2j + 1 (high), j = 0 ... 3:
    each plane byte's halves are gathered by translation from two bytes."""
    halves = stream[0::2], stream[1::2]
    return [int.from_bytes(halves[0].translate(low_half), "little")
            | int.from_bytes(halves[1].translate(high_half), "little")
            for low_half, high_half in _GATHER]


def _inflate(stream, size: int) -> bytes:
    """The size bytes that a saved index's raw DEFLATE stream holds,
    inflating no further (on a 32-bit build a header's size can pass
    sys.maxsize, which no stream reaches)."""
    inflater = zlib.decompressobj(wbits=-15)
    try:
        out = inflater.decompress(stream, min(size, sys.maxsize))
    except zlib.error:
        raise IndexFormatError("index payload stream is corrupt") from None
    if not inflater.eof or len(out) != size:
        raise IndexFormatError(f"index payload does not inflate to the {size} bytes "
                               "the header implies")
    if inflater.unused_data:
        raise IndexFormatError("index payload stream has trailing bytes")
    return out


class FmIndex:
    """Immutable backward-search index; concurrent queries are safe.

    Query stats are owned by the caller and passed in explicitly, keeping
    the index itself stateless.  An index exists only as `from_bytes`
    parsed it from saved bytes, which `build_fm` writes and `load` reads,
    so every index has passed the load checks and cannot locate outside
    the text; `to_bytes` and `save` give back the bytes parsed.

    `separators` are the alphabet bytes that join records of a concatenated
    text; callers splitting raw patterns treat them as foreign bytes.
    """

    def _symbol_rows(self):
        """Yield the bitmap of the rows holding each number, in number order.

        A number's rows are the AND, over the planes, of plane j where the
        number has bit j set and of its complement over the rows but the
        sentinel's where it has not; with no planes, all rows but the
        sentinel's.  Only the numbers of the alphabet are yielded, so a row
        holding a number past it is in no bitmap.
        """
        rows = ((1 << (self.n + 1)) - 1) ^ (1 << self.sentinel_row)
        # per plane, its complement and itself, indexed by a number's bit
        pairs = [(rows ^ plane, plane) for plane in self._planes] or [(rows,)]
        for number in range(self.alphabet.size):
            yield reduce(int.__and__, (pair[number >> j & 1] for j, pair in enumerate(pairs)))

    # the rank structures are built on first search and the sampled rows'
    # positions on first locate: `memlight index` saves an index without
    # either, and most queries never locate
    @cached_property
    def _rank(self) -> tuple[list[list[int]], list[list[int]]]:
        """One list of 256-row words and one count column per symbol.

        Bit i of words[c][w] is set when BWT row 256w + i holds symbol c,
        and cols[c][w] is C[c] plus the rows holding c before row 256w, so
        that C[c] + rank(c, k) is cols[c][k >> 8] plus a popcount inside
        word k >> 8.  The words are ints in lists, whose subscript returns a
        stored int where an array boxes a new one.  The sentinel's row is in
        no bitmap; one padding word lets row n + 1 be ranked.  The counts
        are running popcounts.
        """
        nbytes = 32 * (((self.n + 1) >> 8) + 1)
        words, cols = [None] * self.alphabet.size, [None] * self.alphabet.size
        for code, bitmap in zip(self._order, self._symbol_rows()):
            raw = bitmap.to_bytes(nbytes, "little")
            bits = words[code] = [int.from_bytes(raw[a : a + 32], "little")
                                  for a in range(0, nbytes, 32)]
            cols[code] = list(accumulate(map(int.bit_count, bits), initial=self._c[code]))
        return words, cols

    @cached_property
    def _bwt(self) -> bytes:
        """One code byte per row, the sentinel row's 0 included, for LF steps.

        Each plane is formatted as binary digits, row n first, the digits
        are translated to bytes holding the plane's bit, and the planes'
        bytes, read as big-endian ints, are ORed into every row's number;
        one translation by the order turns numbers into codes, and the
        sentinel's row is then set to 0.
        """
        nrows, numbers = self.n + 1, 0
        for plane, table in zip(self._planes, _DIGITS):
            numbers |= int.from_bytes(format(plane, f"0{nrows}b").encode().translate(table), "big")
        bwt = bytearray(numbers.to_bytes(nrows, "little").translate(self._order.ljust(256, b"\0")))
        bwt[self.sentinel_row] = 0
        return bytes(bwt)

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
                        col[lo >> 8] + (bits[lo >> 8] & below[lo & 255]).bit_count())
                    end, end_rank = hi, col[hi >> 8] + (bits[hi >> 8] & below[hi & 255]).bit_count()
                    if new_lo < end_rank:
                        extended.append((head + key, new_lo, end_rank))
            lanes = extended
        return k, {key: (lo, hi) for key, lo, hi in lanes}

    @cached_property
    def _sampled(self) -> tuple[bytearray, dict[int, int]]:
        """One byte per row, 1 where the row is sampled, and the text
        position of each sampled row."""
        flags = bytearray(self.n + 1)
        for row in self._sample_rows:
            flags[row] = 1
        return flags, dict(zip(self._sample_rows, range(0, self.n + 1, self.s)))

    # -- queries ------------------------------------------------------------

    def rank(self, symbol: int, prefix_len: int) -> int:
        """Occurrences of symbol in the first prefix_len BWT rows.

        The single-step reference for the loops in backward_search_prefix
        and locate_all.
        """
        words, cols = self._rank
        word = prefix_len >> 8
        return (cols[symbol][word] - self._c[symbol]
                + (words[symbol][word] & _BELOW[prefix_len & 255]).bit_count())

    def backward_search_prefix(self, codes, prefix_len: int,
                               stats: QueryStats | None = None) -> tuple[int, BwtInterval]:
        """Match the length-prefix_len prefix of the query right to left.

        Returns how many characters matched before the interval would have
        emptied, i.e. the length of the longest suffix of that prefix
        occurring in the text, with the interval of that suffix.  Every
        step counts as one backward step, including the failing one; a code
        outside the alphabet matches nothing.  The query is a sequence of
        codes, such as bytes or a list of ints.

        When the query is bytes and the prefix's last k symbols are a k-mer
        of the text, one lookup in the k-mer table gives their interval and
        the search goes on from there, counting those k steps; any other
        prefix is searched from the full interval.  Either way the result
        and the steps counted are those of a search by single steps.
        """
        if not 0 <= prefix_len <= len(codes):
            raise ValueError("prefix length out of range")
        lo, hi, matched = 0, self.n + 1, 0
        if isinstance(codes, bytes):
            k, kmers = self._kmers
            if prefix_len >= k > 0:
                hit = kmers.get(codes[prefix_len - k : prefix_len])
                if hit is not None:
                    (lo, hi), matched = hit, k
        # C[sym] + rank(sym, r) inlined for both ends r: the count column at
        # r's word plus a popcount inside the word
        words, cols = self._rank
        below, sigma = _BELOW, len(cols)
        for pos in range(prefix_len - matched - 1, -1, -1):
            sym = codes[pos]
            if not 0 <= sym < sigma:
                break
            bits, col, w = words[sym], cols[sym], lo >> 8
            if w == hi >> 8:
                # both ends in one word: one word and one count read
                word, count = bits[w], col[w]
                new_lo = count + (word & below[lo & 255]).bit_count()
                new_hi = count + (word & below[hi & 255]).bit_count()
            else:
                new_lo = col[w] + (bits[w] & below[lo & 255]).bit_count()
                new_hi = col[hi >> 8] + (bits[hi >> 8] & below[hi & 255]).bit_count()
            if new_lo >= new_hi:
                break
            lo, hi = new_lo, new_hi
            matched += 1
        if stats is not None:
            stats.backward_steps += matched + (matched < prefix_len)
        return matched, BwtInterval(lo, hi)

    def locate_all(self, iv: BwtInterval) -> list[int]:
        """Text positions of every row in the interval, ascending.

        The rows walk LF steps to sampled rows in groups: a run of rows from
        lo, one mask byte per row (1 while it walks) and the steps taken.
        LF keeps the order of the rows holding c, the k-th landing on
        C[c] + rank(c, lo) + k, so a run of one symbol steps by one rank and
        any other splits by the symbols its walking rows hold.  Finished rows
        stay in a group, unreported, and are trimmed from its ends.  A group
        of one walking row, or whose run holds the sentinel's row (in no
        bitmap, but sampled, so no walk passes it), walks row by row.  No row
        walks more than min(sample_rate, n + 1) - 1 steps, since the samples
        are in text order; one that would raises.  Row 0, the empty suffix,
        resolves to position n and is excluded.
        """
        # LF(r) = C[sym] + rank(sym, r), inlined as in backward_search_prefix
        bwt, (words, cols), below = self._bwt, self._rank, _BELOW
        (flags, sampled), sentinel = self._sampled, self.sentinel_row
        n, walk = self.n, min(self.s, self.n + 1)
        out, groups = [], [(iv.lo, b"\1" * iv.width, 0)]
        while groups:
            lo, mask, steps = groups.pop()
            while True:  # a turn per LF step while the group's run holds one symbol
                trimmed = mask.lstrip(b"\0")
                lo += len(mask) - len(trimmed)
                mask = trimmed.rstrip(b"\0")
                span = len(mask)
                if span < 2 or lo <= sentinel < lo + span:
                    for r in (lo,) if span == 1 else compress(range(lo, lo + span), mask):
                        for step in range(steps, walk):
                            if flags[r]:
                                break
                            sym, w = bwt[r], r >> 8
                            r = cols[sym][w] + (words[sym][w] & below[r & 255]).bit_count()
                        else:
                            raise IndexFormatError("suffix-array samples are unreachable")
                        out.append(sampled[r] + step)
                    break
                walking = int.from_bytes(mask, "little")
                hits = int.from_bytes(flags[lo : lo + span], "little") & walking
                if hits:
                    for r in compress(range(lo, lo + span), hits.to_bytes(span, "little")):
                        out.append(sampled[r] + steps)
                    if hits == walking:
                        break
                    mask = (walking ^ hits).to_bytes(span, "little")
                if steps + 1 == walk:
                    raise IndexFormatError("suffix-array samples are unreachable")
                run, w, steps = bwt[lo : lo + span], lo >> 8, steps + 1
                sym = run[0]
                if run.count(sym) == span:
                    lo = cols[sym][w] + (words[sym][w] & below[lo & 255]).bit_count()
                    continue
                for sym in set(compress(run, mask)):
                    groups.append((cols[sym][w] + (words[sym][w] & below[lo & 255]).bit_count(),
                                   bytes(compress(mask, run.translate(_ONEHOT[sym]))), steps))
                break
        out.sort()
        if out and out[-1] > n:
            raise IndexFormatError("suffix-array samples point past the text")
        while out and out[-1] == n:
            out.pop()
        return out

    # -- serialization -------------------------------------------------------

    def to_bytes(self) -> bytes:
        """The saved bytes this index was parsed from, as `build_fm` wrote
        them or `load` read them."""
        return self._saved

    def save(self, destination) -> None:
        """Write the bytes of to_bytes to the destination."""
        Path(destination).write_bytes(self.to_bytes())

    @classmethod
    def from_bytes(cls, data: bytes) -> "FmIndex":
        """Parse a saved index, the only way to make one: n must be below
        2**31, and the stream between the order and the checksum must
        inflate to exactly P * ceil((n + 1) / 8) bytes of planes, split into
        one int each (bit r of plane j is bit j of row r's number), and
        n // s + 1 rows of 4 bytes, the row of each text position k * s."""
        magic = data[:8]
        if len(magic) == 8 and magic[:7] == MAGIC[:7] and magic != MAGIC:
            name = magic.decode("ascii", "backslashreplace")
            if magic > MAGIC:
                raise IndexFormatError(
                    f"index is in the newer {name} format; it was written by a newer memlight")
            raise IndexFormatError(
                f"index is in the old {name} format; rebuild it with `memlight index`")
        if magic != MAGIC:
            raise IndexFormatError("not a memlight index")
        if len(data) < 8 + _HEADER.size + 4:
            raise IndexFormatError("truncated index file")
        n, sigma, s, n_separators = _HEADER.unpack_from(data, 8)
        if n < 1 or not 1 <= sigma <= 256 or s < 1 or n_separators > sigma:
            raise IndexFormatError("index header is inconsistent")
        check_text_length(n, IndexFormatError)
        # the alphabet, the separators and the order; the payload follows
        ends = list(accumulate((sigma, n_separators, sigma), initial=8 + _HEADER.size))
        if len(data) < ends[-1] + 4:
            raise IndexFormatError("truncated index file")
        view = memoryview(data)
        if int.from_bytes(view[-4:], "little") != zlib.crc32(view[:-4]):
            raise IndexFormatError("index checksum mismatch")
        symbols, separators, order = (view[a:b] for a, b in zip(ends, ends[1:]))
        count, plane_bytes = _plane_count(sigma), (n >> 3) + 1
        raw = count * plane_bytes  # the planes' size
        payload = _inflate(view[ends[-1] : -4], raw + (n // s + 1) * 4)
        try:
            alphabet = Alphabet(bytes(symbols))
        except ValueError as exc:
            raise IndexFormatError(f"index alphabet: {exc}") from None
        # the pairs' streams, 2 * plane_bytes each, and an odd last plane
        planes = []
        for a in range(0, raw - plane_bytes, 2 * plane_bytes):
            planes += _split_pair(payload[a : a + 2 * plane_bytes])
        if count & 1:
            planes.append(int.from_bytes(payload[raw - plane_bytes : raw], "little"))
        index = cls.__new__(cls)
        index.alphabet, index.n, index.s, index._saved = alphabet, n, s, bytes(data)
        index.separators, index._planes = bytes(separators), planes
        order = index._order = bytes(order)
        # one flag per row: a row past n raises IndexError, and so does a
        # row whose flag an earlier position set
        flags = bytearray(n + 1)
        try:
            rows = index._sample_rows = _unpack_rows(memoryview(payload)[raw:])
            for row in rows:
                if flags[row]:
                    raise IndexError
                flags[row] = 1
        except IndexError:
            raise IndexFormatError("suffix-array samples must be distinct BWT rows") from None
        index.sentinel_row = sentinel_row = rows[0]
        if any(plane >> (n + 1) for plane in planes):
            raise IndexFormatError("BWT bit planes set padding bits past row n")
        if any(plane >> sentinel_row & 1 for plane in planes):
            raise IndexFormatError("the sentinel row must hold the filler byte 0")
        if sorted(order) != list(range(sigma)):
            raise IndexFormatError("the plane order is not a permutation of the alphabet codes")
        # C[c], the rows before symbol c's: the sentinel's row, then each
        # symbol's rows; a row holding a number past the alphabet is in none
        counts = [0] * sigma
        for code, bitmap in zip(order, index._symbol_rows()):
            counts[code] = bitmap.bit_count()
        index._c = list(accumulate(counts, initial=1))
        if index._c[sigma] != n + 1:
            raise IndexFormatError("BWT symbols out of range for the alphabet")
        if (bytes(sorted(set(index.separators))) != index.separators
                or not set(index.separators) <= set(alphabet.symbols)):
            raise IndexFormatError("record separators must be distinct alphabet bytes, ascending")
        return index

    @classmethod
    def load(cls, source) -> "FmIndex":
        return cls.from_bytes(Path(source).read_bytes())


def build_fm(text: Text, sample_rate: int = SAMPLE_RATE, sa: SuffixArray | None = None,
             separators: bytes = b"") -> FmIndex:
    """FM-index of the text, built from its suffix array.

    `separators` names the alphabet bytes that join the records of a
    concatenated text; they are stored with the index.  The index is what
    from_bytes parses from the saved bytes that numpy writes here.
    """
    import numpy as np

    from .suffixes import build_suffix_structures

    if not 1 <= sample_rate < 1 << 63:
        raise ValueError("sample rate must be at least 1 and below 2**63")
    if sa is None:
        sa = build_suffix_structures(text)
    # a rate past n samples text position 0 alone (the forward index's
    # rate n + 1), which one comparison per row finds
    sampled = np.flatnonzero(sa.sa == 0 if sample_rate > text.n else sa.sa % sample_rate == 0)
    rows = np.empty(text.n // sample_rate + 1, dtype="<u4")
    rows[sa.sa[sampled] // sample_rate] = sampled
    # number the symbols by descending count, ties by code, so that the top
    # plane holds only the rarest symbols' rows; the BWT holds the text's
    # symbols and one filler, so the text's counts give the same order
    sigma = text.alphabet.size
    counts = np.bincount(text.data, minlength=sigma)
    order = np.argsort(-counts, kind="stable").astype(np.uint8)
    numbers = np.empty_like(order)
    numbers[order] = np.arange(sigma)
    # row r holds the number of the symbol before suffix sa[r]: the text's
    # numbers behind a filler 0, gathered once by the suffix array; the
    # sentinel's row and the rows past n that fill the last bytes hold 0
    shifted = np.zeros(text.n + 1, dtype=np.uint8)
    np.take(numbers, text.data, out=shifted[1:])
    bwt = np.zeros(8 * ((text.n >> 3) + 1), dtype=np.uint8)
    np.take(shifted, sa.sa, out=bwt[: text.n + 1])
    payload, count = [], _plane_count(sigma)
    for j in range(0, count - 1, 2):
        d = (bwt >> j & 3).reshape(-1, 4)
        payload.append(d[:, 0] | d[:, 1] << 2 | d[:, 2] << 4 | d[:, 3] << 6)
    if count & 1:
        payload.append(np.packbits(bwt >> (count - 1), bitorder="little"))
    payload.append(rows.view(np.uint8).reshape(-1, 4).T)
    packer = zlib.compressobj(wbits=-15)
    body = b"".join([MAGIC, _HEADER.pack(text.n, sigma, sample_rate, len(separators)),
                     text.alphabet.symbols, separators, order.tobytes(),
                     *(packer.compress(part.tobytes()) for part in payload), packer.flush()])
    return FmIndex.from_bytes(body + struct.pack("<I", zlib.crc32(body)))


def index_paths(prefix: str) -> tuple[Path, Path]:
    """The forward and the reverse index files at a path prefix."""
    return Path(prefix + ".fwd.memidx"), Path(prefix + ".rev.memidx")


class _PairFields(NamedTuple):
    fwd: FmIndex
    rev: FmIndex


class IndexPair(_PairFields):
    """A text's forward index, which answers the window probes, and its
    reverse index, which answers the extensions and locates; the two must
    describe one text."""

    __slots__ = ()

    def __new__(cls, fwd: FmIndex, rev: FmIndex):
        if fwd.alphabet != rev.alphabet:
            raise IndexFormatError("forward and reverse indexes use different alphabets")
        if (fwd.n, fwd._c, fwd.separators) != (rev.n, rev._c, rev.separators):
            raise IndexFormatError("forward and reverse indexes describe different texts")
        return super().__new__(cls, fwd, rev)

    @classmethod
    def load(cls, prefix: str) -> "IndexPair":
        """The pair that `write_index_pair` saved at a path prefix."""
        return cls(*map(FmIndex.load, index_paths(prefix)))

    def locate(self, mem: MemRecord) -> list[int]:
        """The 0-based text positions of a MEM, ascending: the reverse index
        finds the reversed MEM at p, so the MEM is at n - length - p."""
        last = self.rev.n - mem.length
        return [last - p for p in reversed(self.rev.locate_all(mem.bwt_interval))]


def write_index_pair(text_bytes: bytes, prefix: str, sample_rate: int = SAMPLE_RATE,
                     separators: bytes = b"") -> tuple[int, int, dict[str, float]]:
    """Build and save a text's index pair; n, sigma and the seconds per phase.

    The phases (sort, fm, write) are summed over the two directions, built
    one at a time, each one's suffix array and index dropped before the
    other's are built.  The reverse index goes first, so a bad sample rate
    writes no file; only it locates.  The forward one keeps one sample (rate
    n + 1), the row of text position 0, which is its sentinel row.  A text
    of 2**31 symbols or more raises ValueError before anything is built.
    """
    check_text_length(len(text_bytes))
    from .suffixes import build_suffix_structures

    fwd_path, rev_path = index_paths(prefix)
    seconds = dict.fromkeys(("build", "sort", "fm", "write"), 0.0)
    started = clock = time.perf_counter()
    text = Text.from_bytes(text_bytes)
    for path, rate in ((rev_path, sample_rate), (fwd_path, text.n + 1)):
        text = text.reversed()
        sa = build_suffix_structures(text)
        sorted_at = time.perf_counter()
        fm = build_fm(text, rate, sa=sa, separators=separators)
        del sa
        built_at = time.perf_counter()
        fm.save(path)
        del fm
        done_at = time.perf_counter()
        seconds["sort"] += sorted_at - clock
        seconds["fm"] += built_at - sorted_at
        seconds["write"] += done_at - built_at
        clock = done_at
    seconds["build"] = clock - started
    return text.n, text.alphabet.size, seconds


def invert_bwt(index: FmIndex) -> bytes:
    """Reconstruct the text codes from the BWT; validates index consistency."""
    out = bytearray(index.n)
    row = 0
    for i in range(index.n - 1, -1, -1):
        if row == index.sentinel_row:
            raise IndexFormatError("the BWT walk reaches the sentinel before the text's start")
        sym = index._bwt[row]
        out[i] = sym
        row = index._c[sym] + index.rank(sym, row)
    return bytes(out)
