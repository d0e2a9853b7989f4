"""MEM finders: one full forward-backward scan and one length-thresholded scan.

Both families run the same two scans, each over two match functions:
match_from(i), the longest text match starting at pattern offset i (length,
interval or None), and match_to(e), the length of the longest one ending
just before e.  The pointer+LCE family serves them from match pointers and
an extension backend; the FM family, deterministically, from an IndexPair
of backward-search indexes (text and reversed text).  Match functions that
contradict each other stop a scan with the family's error: ValueError for
match pointers, IndexFormatError for an index pair.  All results are in
pattern coordinates, 0-based, left to right.
`find_in_raw` answers the CLI's query on a raw pattern: the MEMs of length
at least L, by the full scan when L is within chance match length, or one
longest, over the pieces the index alphabet and record separators leave,
with the counters of all pieces summed.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .fm import FmIndex, IndexFormatError, IndexPair
from .sequence import MemRecord, Pattern, QueryStats, split_by_foreign_chars

if TYPE_CHECKING:
    from .suffixes import MatchPointers


class FinderResult:
    """MEMs sorted by start (starts and ends both strictly increase) plus work counters."""

    def __init__(self, stats: QueryStats | None = None):
        self.mems: list[MemRecord] = []
        self.stats = QueryStats() if stats is None else stats

    @property
    def spans(self) -> list[tuple[int, int]]:
        return [mem.span for mem in self.mems]


def _lce_matches(pointers: MatchPointers, lce):
    """(stats, match_from, match_to, disagreement) from match pointers and LCE queries."""
    fwd, bwd = pointers.forward, pointers.backward
    return (QueryStats(), lambda i: (lce.lce_forward(i, int(fwd[i])), None),
            lambda e: lce.lce_backward(e - 1, int(bwd[e - 1])),
            ValueError("the match pointers are inconsistent with the pattern and text"))


def _fm_matches(pattern: Pattern, pair: IndexPair, stats: QueryStats | None = None):
    """(stats, match_from, match_to, disagreement) by backward search in the index pair.

    The longest match ending before e is the longest suffix of the first e
    pattern symbols in the text; the one starting at i, reversed, is that of
    the first m - i reversed symbols in the reversed text, with its interval.
    Steps are counted into `stats`, a new QueryStats if none is given.
    """
    if pattern.alphabet != pair.fwd.alphabet:
        raise ValueError("pattern alphabet differs from the index alphabet")
    stats = QueryStats() if stats is None else stats
    codes = pattern.code_bytes
    rcodes, m = codes[::-1], len(codes)
    search, reverse_search = pair.fwd.backward_search_prefix, pair.rev.backward_search_prefix
    return (stats, lambda i: reverse_search(rcodes, m - i, stats),
            lambda e: search(codes, e, stats)[0],
            IndexFormatError("the forward and reverse indexes disagree"))


def _next_start(start: int, end: int, match_to, disagreement: Exception) -> int:
    """Start of the MEM after the one spanning [start, end), for end < m."""
    nxt = end + 1 - match_to(end + 1)
    # the MEM is right-maximal, so nxt is past start unless the two sides
    # disagree (indexes of two texts, bad pointers): the scan would not end
    if nxt <= start:
        raise disagreement
    return nxt


def _full_scan(m: int, stats: QueryStats, match_from, match_to,
               disagreement: Exception,
               report_intervals: bool = False) -> FinderResult:
    """Every MEM, by alternating one forward and one backward match per MEM.

    The first MEM starts at offset 0; each reported end determines the next
    start because maximal matches never nest.  A position that matches
    nothing (its symbol is absent from the text) is skipped.
    """
    result = FinderResult(stats=stats)
    i = 0
    while i < m:
        stats.loop_iterations += 1
        stats.lcp_queries += 1
        length, iv = match_from(i)
        if length == 0:
            i += 1
            continue
        result.mems.append(MemRecord(i, length, iv if report_intervals else None))
        if i + length == m:
            break
        stats.lcs_queries += 1
        i = _next_start(i, i + length, match_to, disagreement)
    return result


def _thresholded_scan(m: int, stats: QueryStats, match_from, match_to,
                      disagreement: Exception, min_len: int, longest: bool = False,
                      report_intervals: bool = False) -> FinderResult:
    """Exactly the MEMs of length at least min_len, skipping short ones.

    Probes the longest match ending at the end of the current length-min_len
    window: a long-enough one pins a reportable MEM at the window start,
    otherwise the window start can jump past every position that cannot
    begin a long MEM.  In longest mode each MEM found is at least min_len
    long, so it replaces the one kept and the threshold rises above it.
    """
    if min_len < 1:
        raise ValueError("minimum length must be at least 1")
    result = FinderResult(stats=stats)
    i = 0
    while i <= m - min_len:
        stats.loop_iterations += 1
        stats.lcs_queries += 1
        probe = match_to(i + min_len)
        if probe < min_len:
            i += min_len - probe
            continue
        stats.lcp_queries += 1
        length, iv = match_from(i)
        if length < min_len:  # the probe found a match this long at i
            raise disagreement
        mem = MemRecord(i, length, iv if report_intervals else None)
        if longest:
            result.mems, min_len = [mem], length + 1
        else:
            result.mems.append(mem)
        if i + length == m:
            break
        stats.lcs_queries += 1
        i = _next_start(i, i + length, match_to, disagreement)
    return result


def find_all_mems(pattern: Pattern, pointers: MatchPointers, lce) -> FinderResult:
    """Every MEM, by the full scan over match pointers and LCE queries."""
    return _full_scan(pattern.m, *_lce_matches(pointers, lce))


def find_long_mems_lce(pattern: Pattern, pointers: MatchPointers, lce,
                       min_len: int) -> FinderResult:
    """The MEMs of length at least min_len, by the thresholded scan over pointers."""
    return _thresholded_scan(pattern.m, *_lce_matches(pointers, lce), min_len)


def find_long_mems_fm(pattern: Pattern, fwd_index: FmIndex, rev_index: FmIndex,
                      min_len: int, report_intervals: bool = False) -> FinderResult:
    """Deterministic thresholded finder using only backward stepping.

    Same output as find_long_mems_lce.  When requested, each record carries
    the interval of the reversed MEM in the reversed-text index.
    """
    return _thresholded_scan(pattern.m, *_fm_matches(pattern, IndexPair(fwd_index, rev_index)),
                             min_len, report_intervals=report_intervals)


def find_all_mems_fm(pattern: Pattern, fwd_index: FmIndex, rev_index: FmIndex,
                     report_intervals: bool = False) -> FinderResult:
    """Every MEM via alternating full backward searches; the step-count baseline.

    Pattern symbols absent from the text extend nothing and are skipped one
    position at a time, so unsplit patterns degrade gracefully.
    """
    return _full_scan(pattern.m, *_fm_matches(pattern, IndexPair(fwd_index, rev_index)),
                      report_intervals)


def longest_common_substring(pattern: Pattern, fwd_index: FmIndex,
                             rev_index: FmIndex) -> FinderResult:
    """One maximum-length MEM (leftmost among maxima), or none.

    Runs the thresholded scan with the threshold held one above the best
    length found so far, so every confirmed window strictly improves on the
    current best and everything shorter is skipped wholesale.
    """
    return _thresholded_scan(pattern.m, *_fm_matches(pattern, IndexPair(fwd_index, rev_index)),
                             1, longest=True, report_intervals=True)


def find_in_raw(raw_pattern: bytes, pair: IndexPair, min_len: int,
                longest: bool = False) -> FinderResult:
    """The MEMs of length at least min_len of a raw pattern in an index pair,
    each with its interval.

    The scan follows the paper's premise: the MEMs worth skipping to are
    longer than chance matches, which on a text of n symbols over sigma'
    (the alphabet less the record separators) are about log_sigma' n long.
    Below that, every window's probe confirms and skips nothing, so when
    sigma' ** (min_len - 1) < n, and always at min_len 1, the full scan
    answers, in fewer steps, and only its MEMs of length at least min_len
    are kept; longer min_len, and `longest` (one leftmost longest MEM), run
    the thresholded scan.  The pattern is split on foreign bytes and on the
    index's record separators, so no match crosses a record boundary.  One
    QueryStats counts the work of every piece; in longest mode each piece
    starts one above the best length so far.
    """
    if min_len < 1:
        raise ValueError("minimum length must be at least 1")
    fwd = pair.fwd
    n, sigma = fwd.n, fwd.alphabet.size - len(fwd.separators)
    # past n.bit_length() factors of 2 or more the power has passed n
    full = not longest and (min_len == 1 or sigma ** min(min_len - 1, n.bit_length()) < n)
    result = FinderResult()
    for offset, piece in split_by_foreign_chars(raw_pattern, fwd.alphabet, fwd.separators):
        matches = _fm_matches(piece, pair, result.stats)
        if full:
            part = _full_scan(piece.m, *matches, report_intervals=True)
            part.mems = [mem for mem in part.mems if mem.length >= min_len]
        else:
            part = _thresholded_scan(piece.m, *matches, min_len, longest,
                                     report_intervals=True)
        if longest and part.mems:
            result.mems, min_len = [], part.mems[0].length + 1
        result.mems += (mem._replace(start=mem.start + offset) for mem in part.mems)
    return result
