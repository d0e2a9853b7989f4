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
row, and an odd last plane alone; then the rows, each n.bit_length() bits,
its whole low bytes grouped by byte position and its other bits as bit
planes.  The runs of a repetitive text's BWT deflate (Ferragina and
Manzini's opportunistic compression), and a pair's fields keep a run of one
symbol one run of one field value, where two planes apart split it into two
unrelated bit runs; numbering by frequency leaves the top plane sparse when
the rarest symbols are rare, and a byte position of the rows that holds few
values costs few bits, while the bits that no row needs are not stored
(a text holds fewer than 2**31 symbols, so a row takes at most 31 bits).
Load inflates the stream, never past the size the header implies, splits
the pairs back into planes, and ANDs the planes or their complements into
one bitmap per number, keeping only the popcounts, each under its number's
code: the C array, whose last entry shows whether every row holds a number
of the alphabet.  The first search splits the rows again into 256-row
words per symbol, held as ints in a list, beside a running count per word
that starts at C[c] (Jacobson's rank), so that a backward step or an LF
step is a count read plus one popcount for each end of the interval.
The sentinel's row is in no bitmap and needs no correction.
Locating reads one code byte and one sample flag per row, both derived on
first locate.  A batch of intervals walks each start row once, and a walk
stops at a sample or at another start row of the batch, whose walk it is
then charged; a locate writes nothing into the index.
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
from itertools import accumulate, compress, repeat
from operator import itemgetter
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple

from .sequence import Alphabet, MemRecord, QueryStats, Text, check_text_length

if TYPE_CHECKING:
    from .suffixes import SuffixArray

# the eighth byte is the version: a file whose eighth byte is lower is in an
# older format, and one whose eighth byte is higher in a newer one
MAGIC = b"MEMLIDXB"
# the default sample rate of the index that locates
SAMPLE_RATE = 128
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
# a locate group's first mask bytes, and the translation of every nonzero
# byte to 1
_OFFSETS, _NONZERO = bytes(range(1, 256)), b"\0" + b"\1" * 255
# a batch's stop flags: _BATCH flags a start row 2 unless it is a sample (1),
# and _SAMPLES translates a sample's flag to 1 and every other to 0
_BATCH, _SAMPLES = b"\2\1" + bytes(254), b"\0\1" + bytes(254)


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


def _row_layout(n: int, count: int) -> tuple[int, int, int]:
    """How count sample rows of a text of n symbols are stored: each takes
    b = n.bit_length() bits, its low 8 * (b // 8) bits in b // 8 byte
    columns of count bytes, and its other b % 8 bits in as many bit planes
    of ceil(count / 8) bytes; the columns, the planes and the bytes in all."""
    columns, planes = divmod(n.bit_length(), 8)
    return columns, planes, columns * count + planes * ((count + 7) >> 3)


def _decode_planes(planes, count: int) -> bytes:
    """count bytes, bit j of byte r being bit r of planes[j] (at most 8
    planes, none set past bit count - 1): each plane is formatted as binary
    digits, row count - 1 first, the digits are translated to bytes holding
    bit j, and the planes' bytes, read as big-endian ints, are ORed."""
    numbers = 0
    for plane, table in zip(planes, _DIGITS):
        numbers |= int.from_bytes(format(plane, f"0{count}b").encode().translate(table), "big")
    return numbers.to_bytes(count, "little")


def _unpack_rows(data, n: int, count: int) -> array:
    """The count rows stored as _row_layout gives, into an array('I'): one
    strided copy per byte column (every row's byte at that position), and
    the planes, bit r of plane t being bit t of row r's byte after the
    columns, by _decode_planes.  A plane bit set past the last row raises."""
    columns, planes, _ = _row_layout(n, count)
    size, wide = (count + 7) >> 3, bytearray(4 * count)
    for j in range(columns):
        wide[j::4] = data[j * count : (j + 1) * count]
    at = columns * count
    top = [int.from_bytes(data[at + t * size : at + (t + 1) * size], "little")
           for t in range(planes)]
    if any(plane >> count for plane in top):
        raise IndexFormatError("suffix-array sample planes set padding bits past the last row")
    wide[columns::4] = _decode_planes(top, count)
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
    """Backward-search index; concurrent queries are safe.

    Once parsed, an index changes only by what it builds on first use; a
    locate writes nothing into it.  Query stats are owned by the caller and
    passed in explicitly.  An index exists only as `from_bytes` parsed it from saved bytes, which
    `build_fm` writes and `load` reads, so every index has passed the load
    checks and cannot locate outside the text; `to_bytes` and `save` give
    back the bytes parsed.

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
        are running popcounts.  The bitmap's bytes are cut into words by
        `struct.iter_unpack`, which makes no slice per word.
        """
        nbytes = 32 * (((self.n + 1) >> 8) + 1)
        words, cols = [None] * self.alphabet.size, [None] * self.alphabet.size
        for code, bitmap in zip(self._order, self._symbol_rows()):
            raw = bitmap.to_bytes(nbytes, "little")
            chunks = map(itemgetter(0), struct.iter_unpack("32s", raw))
            bits = words[code] = list(map(int.from_bytes, chunks, repeat("little")))
            cols[code] = list(accumulate(map(int.bit_count, bits), initial=self._c[code]))
        return words, cols

    @cached_property
    def _bwt(self) -> bytes:
        """One code byte per row, the sentinel row's 0 included, for LF steps.

        _decode_planes gives every row's number; one translation by the
        order turns numbers into codes, and the sentinel's row is then set
        to 0.
        """
        numbers = _decode_planes(self._planes, self.n + 1)
        bwt = bytearray(numbers.translate(self._order.ljust(256, b"\0")))
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
        """The samples: one flag byte per row, 1 at a sample and 0 elsewhere,
        and the text position of each sampled row.  Built by the first
        locate, after the BWT bytes, whose build peaks higher than it ends.
        """
        flags = bytearray(self.n + 1)
        for row in self._sample_rows:
            flags[row] = 1
        return flags, dict(zip(self._sample_rows, range(0, self.n + 1, self.s)))

    # -- queries ------------------------------------------------------------

    def rank(self, symbol: int, prefix_len: int) -> int:
        """Occurrences of symbol in the first prefix_len BWT rows.

        The single-step reference for the loops in backward_search_prefix
        and locate_many.
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
        """Text positions of every row in the interval, ascending: the
        locate_many of that one interval, which copies no flags."""
        return self.locate_many([iv])[0]

    def locate_many(self, intervals: list[BwtInterval]) -> list[list[int]]:
        """The text positions of every row of each interval, ascending, one
        list per interval; an interval outside rows 0 to n raises ValueError.

        The batch's start rows are the union of its intervals, each row
        walked once.  They walk LF steps in groups: a run of rows from lo,
        one mask byte per row, a base row and the steps taken.  A walking
        row's mask byte is 1 plus the offset of its start row from the base,
        a finished row's is 0, so that a group carries the start rows of its
        rows, split and trimmed as its mask is; a run of more than 255 rows
        starts as one group per 255.  LF keeps the order of the rows holding
        c, the k-th landing on C[c] + rank(c, lo) + k, so a run of one
        symbol steps by one rank and any other splits by the symbols its
        walking rows hold.  Finished rows stay in a group, unreported, and
        are trimmed from its ends.  A group of one walking row, or whose run
        holds the sentinel's row (in no bitmap, but sampled, so no walk
        passes it), walks row by row.  Row 0, the empty suffix, resolves to
        position n and is excluded.

        A walk stops at a sample or, after at least one step, at another
        start row of the batch, which a copy of the sample flags marks; a
        batch of one interval makes no copy and stops at samples only.  A
        walk that stops at a start row is at that row's position plus its
        own steps, and is charged that row's walk, whose LF path it shares
        from there.  No row is charged more than min(sample_rate, n + 1) - 1
        steps, since the samples are in text order: one that would, or a
        chain of start rows that meets no sample, raises, as does a position
        past the text.  The first interval that raises alone raises here,
        with its message, so every answer and every error is the one each
        interval gets alone on a fresh index.
        """
        n, walk, sentinel = self.n, min(self.s, self.n + 1), self.sentinel_row
        if not all(0 <= lo <= hi <= n + 1 for lo, hi in intervals):
            raise ValueError("interval out of range")
        # LF(r) = C[sym] + rank(sym, r), inlined as in backward_search_prefix
        bwt, (words, cols), below = self._bwt, self._rank, _BELOW
        flags, positions = self._sampled
        runs = []
        for lo, hi in sorted(intervals):
            if runs and lo <= runs[-1][1]:
                runs[-1][1] = max(runs[-1][1], hi)
            elif lo < hi:
                runs.append([lo, hi])
        if len(intervals) > 1:
            flags = bytearray(flags)
            for lo, hi in runs:
                flags[lo:hi] = flags[lo:hi].translate(_BATCH)
        # per start row whose walk reached a sample: the sample's position
        # and the steps to it, walk where it meets none in time; and per
        # start row whose walk stopped at another: that row and the steps
        done, links = {}, {}
        groups = [(lo, _OFFSETS[: end - lo], lo, 0)
                  for first, end in runs for lo in range(first, end, 255)]
        while groups:
            lo, mask, base, steps = groups.pop()
            while True:  # a turn per LF step while the group's run holds one symbol
                trimmed = mask.lstrip(b"\0")
                lo += len(mask) - len(trimmed)
                mask = trimmed.rstrip(b"\0")
                span = len(mask)
                if span < 2 or lo <= sentinel < lo + span:
                    for i in (0,) if span == 1 else compress(range(span), mask):
                        r = lo + i
                        for step in range(steps, walk):
                            if flags[r] and (step or flags[r] == 1):
                                break
                            sym, w = bwt[r], r >> 8
                            r = cols[sym][w] + (words[sym][w] & below[r & 255]).bit_count()
                        else:
                            done[base + mask[i] - 1] = 0, walk
                            continue
                        if flags[r] == 1:
                            done[base + mask[i] - 1] = positions[r], step
                        else:
                            links[base + mask[i] - 1] = r, step
                    break
                walking = int.from_bytes(mask.translate(_NONZERO), "little")
                hits = int.from_bytes(flags[lo : lo + span].translate(
                    _NONZERO if steps else _SAMPLES), "little") & walking
                if hits:
                    for i in compress(range(span), hits.to_bytes(span, "little")):
                        if flags[lo + i] == 1:
                            done[base + mask[i] - 1] = positions[lo + i], steps
                        else:
                            links[base + mask[i] - 1] = lo + i, steps
                    if hits == walking:
                        break
                    # 255 times a hit's 1 clears its whole byte
                    mask = (int.from_bytes(mask, "little") & ~(hits * 255)).to_bytes(span, "little")
                if steps + 1 == walk:
                    for i in compress(range(span), mask):
                        done[base + mask[i] - 1] = 0, walk
                    break
                run, w, steps = bwt[lo : lo + span], lo >> 8, steps + 1
                sym = run[0]
                if run.count(sym) == span:
                    lo = cols[sym][w] + (words[sym][w] & below[lo & 255]).bit_count()
                    continue
                for sym in set(compress(run, mask)):
                    groups.append((cols[sym][w] + (words[sym][w] & below[lo & 255]).bit_count(),
                                   bytes(compress(mask, run.translate(_ONEHOT[sym]))), base,
                                   steps))
                break
        # a chain of stops ends at a row that reached a sample, or meets no
        # sample at all when it comes back to one of its own rows
        for row in links:
            chain = {}
            while row not in done and row not in chain:
                chain[row] = None
                row = links[row][0]
            sample, total = done.get(row, (0, walk))
            for link in reversed(chain):
                total += links[link][1]
                done[link] = sample, total
        answers = []
        for lo, hi in intervals:
            found = [done[row] for row in range(lo, hi)]
            if any(total >= walk for _, total in found):
                raise IndexFormatError("suffix-array samples are unreachable")
            out = sorted([sample + total for sample, total in found])
            if out and out[-1] > n:
                raise IndexFormatError("suffix-array samples point past the text")
            while out and out[-1] == n:
                out.pop()
            answers.append(out)
        return answers

    # -- serialization -------------------------------------------------------

    def to_bytes(self) -> bytes:
        """The saved bytes this index was parsed from, as `build_fm` wrote
        them or `load` read them."""
        return self._saved

    def save(self, destination) -> None:
        """Write the bytes of to_bytes to the destination, removing the file
        there first: a rewrite in place can wait on the writeback of the old
        file, and a symlink at the destination is replaced by a plain file."""
        path = Path(destination)
        path.unlink(missing_ok=True)
        path.write_bytes(self.to_bytes())

    @classmethod
    def from_bytes(cls, data: bytes) -> "FmIndex":
        """Parse a saved index, the only way to make one: n must be below
        2**31, and the stream between the order and the checksum must
        inflate to exactly P * ceil((n + 1) / 8) bytes of planes, split into
        one int each (bit r of plane j is bit j of row r's number), and
        n // s + 1 rows of n.bit_length() bits as _row_layout stores them,
        the row of each text position k * s."""
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
        payload = _inflate(view[ends[-1] : -4], raw + _row_layout(n, n // s + 1)[2])
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
            rows = index._sample_rows = _unpack_rows(memoryview(payload)[raw:], n, n // s + 1)
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


def _check_sample_rate(sample_rate: int) -> None:
    if not 1 <= sample_rate < 1 << 63:
        raise ValueError("sample rate must be at least 1 and below 2**63")


def build_fm(text: Text, sample_rate: int = SAMPLE_RATE, sa: SuffixArray | None = None,
             separators: bytes = b"") -> FmIndex:
    """FM-index of the text, built from its suffix array.

    `separators` names the alphabet bytes that join the records of a
    concatenated text; they are stored with the index.  The index is what
    from_bytes parses from the saved bytes that numpy writes here.
    """
    import numpy as np

    from .suffixes import build_suffix_structures

    _check_sample_rate(sample_rate)
    if sa is None:
        sa = build_suffix_structures(text)
    # a rate past n samples text position 0 alone (the forward index's
    # rate n + 1), which one comparison per row finds, into rows[0]:
    # dividing by n, not by the rate, keeps the int32 arithmetic in range
    sampled = np.flatnonzero(sa.sa == 0 if sample_rate > text.n else sa.sa % sample_rate == 0)
    rows = np.empty(text.n // sample_rate + 1, dtype="<u4")
    rows[sa.sa[sampled] // min(sample_rate, text.n)] = sampled
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
    # gathers by indexing, where np.take would copy the indices as int64
    shifted[1:] = numbers[text.data]
    bwt = np.zeros(8 * ((text.n >> 3) + 1), dtype=np.uint8)
    bwt[: text.n + 1] = shifted[sa.sa]
    payload, count = [], _plane_count(sigma)
    for j in range(0, count - 1, 2):
        d = (bwt >> j & 3).reshape(-1, 4)
        payload.append(d[:, 0] | d[:, 1] << 2 | d[:, 2] << 4 | d[:, 3] << 6)
    if count & 1:
        payload.append(np.packbits(bwt >> (count - 1), bitorder="little"))
    # the rows' low bytes as byte columns and their other bits as planes
    columns, planes, _ = _row_layout(text.n, len(rows))
    row_bytes = rows.view(np.uint8).reshape(-1, 4)
    bits = np.unpackbits(row_bytes[:, columns : columns + 1], axis=1, bitorder="little")
    payload += [row_bytes[:, :columns].T,
                np.packbits(bits[:, :planes].T, axis=1, bitorder="little")]
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

    def locate_many(self, mems: list[MemRecord]) -> list[list[int]]:
        """The 0-based text positions of each MEM, ascending, from one batch
        of the reverse index: it finds the reversed MEM at p, so the MEM is
        at n - length - p."""
        located = self.rev.locate_many([mem.bwt_interval for mem in mems])
        return [[self.rev.n - mem.length - p for p in reversed(found)]
                for mem, found in zip(mems, located)]


def write_index_pair(text_bytes: bytes, prefix: str, sample_rate: int = SAMPLE_RATE,
                     separators: bytes = b"") -> tuple[int, int, dict[str, float]]:
    """Build and save a text's index pair; n, sigma and the seconds per phase.

    The two directions are built at the same time, the reverse one in a
    worker thread and the forward one in this thread, since numpy's sorts
    and gathers and zlib release the GIL.  Only the reverse index locates;
    the forward one keeps one sample (rate n + 1), the row of text position
    0, which is its sentinel row.  Both files are written only after both
    builds succeed: an error in either direction is raised as it is, and
    writes no file.  A bad sample rate, or a text of 2**31 symbols or more,
    raises ValueError before either build starts.  Each file is saved as
    FmIndex.save saves it, so a symlink at an index path is replaced by a
    plain file.

    `build` is the wall time of the whole; `sort` (the text's encoding and
    both suffix arrays) and `fm` are summed over the two directions, so
    together they can exceed it; `write` is the two files.
    """
    check_text_length(len(text_bytes))
    _check_sample_rate(sample_rate)
    import threading

    from .suffixes import build_suffix_structures

    def build(text: Text, rate: int) -> tuple[FmIndex, float, float]:
        """One direction's index, and the seconds of its sort and of its
        fm phase; its suffix array is dropped once the index is built."""
        clock = time.perf_counter()
        sa = build_suffix_structures(text)
        sorted_at = time.perf_counter()
        fm = build_fm(text, rate, sa=sa, separators=separators)
        return fm, sorted_at - clock, time.perf_counter() - sorted_at

    def build_reverse():
        try:
            reverse.append(build(text.reversed(), sample_rate))
        except BaseException as error:  # raised again in this thread
            reverse.append(error)

    started = time.perf_counter()
    text = Text.from_bytes(text_bytes)
    encoded, reverse = time.perf_counter() - started, []
    worker = threading.Thread(target=build_reverse)
    worker.start()
    try:
        forward = build(text, text.n + 1)
    finally:
        worker.join()
    if isinstance(reverse[0], BaseException):
        raise reverse[0]
    (fwd, fwd_sort, fwd_fm), (rev, rev_sort, rev_fm) = forward, reverse[0]
    built_at = time.perf_counter()
    for fm, path in zip((fwd, rev), index_paths(prefix)):
        fm.save(path)
    done_at = time.perf_counter()
    seconds = {"build": done_at - started, "sort": encoded + fwd_sort + rev_sort,
               "fm": fwd_fm + rev_fm, "write": done_at - built_at}
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
