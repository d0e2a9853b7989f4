"""Plain suffix-array toolkit: construction, match pointers, and the brute-force MEM oracle.

Everything here works on the uncompressed text and serves as ground truth
for the index-backed algorithms.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np

from .sequence import MemRecord, Pattern, Text, check_text_length


def _packed_prefix_key(ext: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, int, int]:
    """Each suffix's first h symbols and its position packed into one int64;
    h, and the width w of the position.

    The position takes the w = bit_length(n - 1) low bits.  Above it, the
    first h symbols are one number in base b = max(ext) + 1 (b <= 257 for a
    byte text), h as many as fit in the other 63 - w bits, so h >= min(n, 3)
    below 2**31 symbols; packing in base b rather than in whole bits per
    symbol fits, for a binary text, 27 symbols beside a 20-bit position.
    The number is built in O(log h) passes by doubling, two int64 buffers
    taking turns.  The zero padding past the end cannot cause a tie, since
    the sentinel, the only other 0, is unique.  `rows` is 0 ... n - 1.
    """
    n = ext.size
    base = int(ext.max()) + 1
    width = (n - 1).bit_length()
    h = 1
    while h < n and base ** (h + 1) <= 1 << (63 - width):
        h += 1
    key, spare = ext.astype(np.int64), np.empty(n, dtype=np.int64)
    span = 1  # key holds each suffix's first `span` symbols
    for bit in bin(h)[3:]:
        np.multiply(key, base ** span, out=spare)
        spare[: n - span] += key[span:]
        key, spare, span = spare, key, 2 * span
        if bit == "1":
            key *= base
            key[: n - span] += ext[span:]
            span += 1
    del spare
    key <<= width
    key |= rows
    return key, h, width


def _suffix_sort(ext: np.ndarray) -> np.ndarray:
    """Suffix array of an int sequence by prefix doubling over unresolved groups.

    The input's last value, the sentinel, must be its only 0, and the others
    positive, which makes all suffixes distinct and guarantees termination.

    One in-place `np.sort` of the packed key (the first h symbols above the
    position, see _packed_prefix_key) gives both the suffix array of the
    h-prefixes, from the low bits, and their groups, from the high bits.  A
    suffix's rank is the row its group starts at.  The round from k to 2k
    symbols sorts only the rows still in groups of size > 1, by (rank of p,
    rank of p + k), and writes them back into the same rows; rows already
    resolved are never sorted again (Larsson & Sadakane, "Faster suffix
    sorting", TCS 2007).  So the cost depends on the longest repeat: about
    log2(longest repeat / h) rounds, each over only the suffixes whose
    k-prefix still repeats.  Ranks, rows and the working suffix array are
    int32, a text having fewer than 2**31 symbols, and each round's keys are
    dropped once its groups are found; the result is int64.
    """
    n = ext.size
    rows = np.arange(n, dtype=np.int32)
    key, h, width = _packed_prefix_key(ext, rows)
    key.sort()
    sa = np.empty(n, dtype=np.int32)
    np.bitwise_and(key, (1 << width) - 1, out=sa, casting="unsafe")
    key >>= width
    rank = np.empty(n, dtype=np.int32)
    p, k = sa, h
    while True:
        # rows: unresolved rows, ascending; p = sa[rows]; key: their sort keys
        starts = np.ones(rows.size + 1, dtype=bool)
        np.not_equal(key[1:], key[:-1], out=starts[1:-1])
        del key
        # the row each group starts at, carried forward over the group
        heads = np.where(starts[:-1], rows, 0)
        rank[p] = np.maximum.accumulate(heads, out=heads)
        rows = rows[~(starts[:-1] & starts[1:])]
        if rows.size == 0:
            return sa.astype(np.int64)
        # an unresolved suffix shares its first k symbols with another one,
        # and the sentinel is unique, so p + k stays inside the text; sorting
        # by rank first keeps each group in its own rows
        p = sa[rows]
        key = np.multiply(rank[p], n, dtype=np.int64)
        key += rank[p + k]
        order = np.argsort(key, kind="stable")
        p, key = p[order], key[order]
        sa[rows] = p
        k *= 2


def first_mismatch(a: np.ndarray, b: np.ndarray) -> int:
    """Length of the common prefix of two arrays: the first index where they
    differ, or the shorter length; 0 if either is empty."""
    k = min(a.size, b.size)
    if k == 0:
        return 0
    neq = a[:k] != b[:k]
    first = int(neq.argmax())
    return first if neq[first] else k


class SuffixArray:
    """Suffix array of a text plus sentinel, with binary searches over suffix order.

    Suffix order includes the empty sentinel suffix at rank 0.  The sentinel
    is a value below every alphabet code and takes no part in matching.  A
    text of 2**31 symbols or more raises ValueError before anything is sorted.
    """

    def __init__(self, text: Text, sa: np.ndarray | None = None):
        check_text_length(text.n)
        self.text = text
        if sa is None:
            # codes shifted up by one, so that the sentinel is the only 0
            ext = np.zeros(text.n + 1, dtype=np.uint16)
            np.add(text.data, 1, out=ext[: text.n], dtype=np.uint16)
            sa = _suffix_sort(ext)
        else:
            sa = np.ascontiguousarray(sa, dtype=np.int64)
            if sa.size != text.n + 1:
                raise ValueError("suffix array length does not match the text")
        self.sa = sa
        self.sa.setflags(write=False)
        self._tb = text.code_bytes

    @property
    def n(self) -> int:
        return self.text.n

    # -- binary searches over suffix order ---------------------------------

    def _prefix_range(self, q: bytes) -> tuple[int, int]:
        """Rows whose suffix starts with q, as a half-open range."""
        tb, nq = self._tb, len(q)
        first = bisect_left(self.sa, q, key=lambda p: tb[p : p + nq])
        return first, bisect_right(self.sa, q, first, key=lambda p: tb[p : p + nq])

    def longest_prefix_match(self, q: bytes) -> int:
        """Length of the longest prefix of q occurring anywhere in the text."""
        sa, tb, nq = self.sa, self._tb, len(q)
        row = bisect_left(sa, q, key=lambda p: tb[p : p + nq])
        # a longest match starts at one of the suffixes sorting next to q
        t, qd = self.text.data, np.frombuffer(q, dtype=np.uint8)
        return max(first_mismatch(t[p:], qd) for p in sa[max(row - 1, 0) : row + 1])

    def best_match_position(self, q: bytes, tie: str = "min") -> tuple[int, int]:
        """(match length, text position) of a suffix maximizing the match with q.

        Ties between equally good positions are broken by smallest or largest
        text position, per `tie`.
        """
        best = self.longest_prefix_match(q)
        if best == 0:
            raise ValueError("no symbol of the query occurs in the text")
        lo, hi = self._prefix_range(q[:best])
        block = self.sa[lo:hi]
        pos = int(block.min() if tie == "min" else block.max())
        return best, pos

    def occurrences(self, q: bytes) -> list[int]:
        """All starting positions of the query codes, ascending."""
        if len(q) == 0:
            raise ValueError("empty query")
        lo, hi = self._prefix_range(q)
        return sorted(int(p) for p in self.sa[lo:hi])


def build_suffix_structures(text: Text) -> SuffixArray:
    return SuffixArray(text)


@dataclass(frozen=True)
class MatchPointers:
    """Per pattern position, a text position achieving the best extension.

    forward[i] starts a text suffix whose common prefix with the pattern
    suffix at i is maximal; backward[i] ends (inclusive) a text prefix whose
    common suffix with the pattern prefix through i is maximal.
    """

    forward: np.ndarray
    backward: np.ndarray

    def __post_init__(self):
        self.forward.setflags(write=False)
        self.backward.setflags(write=False)


def _check_symbols_occur(pattern: Pattern, text: Text) -> None:
    if pattern.alphabet != text.alphabet:
        raise ValueError("pattern alphabet differs from the text alphabet")
    counts = np.bincount(text.data, minlength=text.alphabet.size)
    if pattern.m and not counts[np.unique(pattern.data)].all():
        raise ValueError(
            "a pattern symbol does not occur in the text; split the pattern first"
        )


def compute_match_pointers(
    pattern: Pattern, text: Text, sa_fwd: SuffixArray, sa_rev: SuffixArray
) -> MatchPointers:
    """Best forward and backward match positions for every pattern offset.

    The backward side is the forward computation applied to the reversed
    pattern and reversed text, with positions mirrored back.  Ties go to the
    smallest text position on both sides.
    """
    if pattern.m == 0:
        raise ValueError("empty pattern")
    _check_symbols_occur(pattern, text)
    m, n = pattern.m, text.n
    pb = pattern.code_bytes
    forward = np.empty(m, dtype=np.int64)
    for i in range(m):
        _, forward[i] = sa_fwd.best_match_position(pb[i:], tie="min")
    # smallest mirrored position = largest position in the reversed text
    rb = pb[::-1]
    backward = np.empty(m, dtype=np.int64)
    for i in range(m):
        _, p = sa_rev.best_match_position(rb[i:], tie="max")
        backward[m - 1 - i] = n - 1 - p
    return MatchPointers(forward, backward)


def brute_force_mems(
    pattern: Pattern, text: Text, min_len: int = 1, sa: SuffixArray | None = None
) -> list[MemRecord]:
    """Oracle MEM finder from per-position longest-match lengths.

    A match starting at i is maximal iff its end is strictly past the end of
    the match starting at i-1 (or i is 0).  Independent of the pointer- and
    index-based algorithms it is used to check.
    """
    if min_len < 1:
        raise ValueError("minimum length must be at least 1")
    _check_symbols_occur(pattern, text)
    if sa is None:
        sa = build_suffix_structures(text)
    pb = pattern.code_bytes
    m = pattern.m
    lengths = [sa.longest_prefix_match(pb[i:]) for i in range(m)]
    out = []
    for i in range(m):
        if i > 0 and i + lengths[i] <= (i - 1) + lengths[i - 1]:
            continue
        if lengths[i] >= min_len:
            occ = tuple(sa.occurrences(pb[i : i + lengths[i]]))
            out.append(MemRecord(i, lengths[i], occurrences=occ))
    return out

