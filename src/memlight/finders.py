"""MEM finders: full forward-backward scans and length-thresholded variants.

Two families share the same output contract.  The pointer+LCE family needs
match pointers and an extension backend; the FM family needs only a pair of
backward-search indexes (text and reversed text) and is fully deterministic.
All results are in pattern coordinates, 0-based, left to right.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .fm import FmIndex, IndexFormatError
from .sequence import (Alphabet, MemRecord, Pattern, QueryStats,
                       split_by_foreign_chars)

if TYPE_CHECKING:
    from .suffixes import MatchPointers


class FinderResult:
    """MEMs sorted by start (starts and ends both strictly increase) plus work counters."""

    def __init__(self, mems: list[MemRecord] | None = None,
                 stats: QueryStats | None = None):
        self.mems = [] if mems is None else mems
        self.stats = QueryStats() if stats is None else stats

    @property
    def spans(self) -> list[tuple[int, int]]:
        return [mem.span for mem in self.mems]


def find_all_mems(pattern: Pattern, pointers: MatchPointers, lce) -> FinderResult:
    """Every MEM, by alternating one forward and one backward extension per MEM.

    The first MEM starts at offset 0; each reported end determines the next
    start because maximal matches never nest.
    """
    result = FinderResult()
    m = pattern.m
    if m == 0:
        return result
    stats = result.stats
    fwd, bwd = pointers.forward, pointers.backward
    i = 0
    while True:
        stats.loop_iterations += 1
        stats.lcp_queries += 1
        length = lce.lce_forward(i, int(fwd[i]))
        result.mems.append(MemRecord(i, length))
        end = i + length - 1
        if end == m - 1:
            break
        stats.lcs_queries += 1
        back = lce.lce_backward(end + 1, int(bwd[end + 1]))
        i = end + 2 - back
    return result


def find_long_mems_lce(pattern: Pattern, pointers: MatchPointers, lce,
                       min_len: int) -> FinderResult:
    """Exactly the MEMs of length at least min_len, skipping short ones.

    Probes the backward extension at the end of the current length-min_len
    window: a long-enough extension pins a reportable MEM at the window
    start, otherwise the window start can jump past every position that
    cannot begin a long MEM.
    """
    if min_len < 1:
        raise ValueError("minimum length must be at least 1")
    result = FinderResult()
    m = pattern.m
    stats = result.stats
    fwd, bwd = pointers.forward, pointers.backward
    i = 0
    while i <= m - min_len:
        stats.loop_iterations += 1
        window_end = i + min_len - 1
        stats.lcs_queries += 1
        b = lce.lce_backward(window_end, int(bwd[window_end]))
        if b >= min_len:
            stats.lcp_queries += 1
            length = lce.lce_forward(i, int(fwd[i]))
            result.mems.append(MemRecord(i, length))
            if i + length == m:
                break
            stats.lcs_queries += 1
            back = lce.lce_backward(i + length, int(bwd[i + length]))
            i = i + length + 1 - back
        else:
            i += min_len - b
    return result


def _fm_codes(pattern: Pattern) -> tuple[bytes, bytes]:
    codes = pattern.code_bytes
    return codes, codes[::-1]


def _check_paired(pattern: Pattern, fwd_index: FmIndex, rev_index: FmIndex) -> None:
    if fwd_index.alphabet != rev_index.alphabet:
        raise ValueError("forward and reverse indexes use different alphabets")
    if (fwd_index.n, fwd_index._c, fwd_index.separators) != (
            rev_index.n, rev_index._c, rev_index.separators):
        raise ValueError("forward and reverse indexes describe different texts")
    if pattern.alphabet != fwd_index.alphabet:
        raise ValueError("pattern alphabet differs from the index alphabet")


def _thresholded_scan(pattern: Pattern, fwd_index: FmIndex, rev_index: FmIndex,
                      min_len: int, longest: bool,
                      report_intervals: bool) -> FinderResult:
    """The thresholded loop shared by find_long_mems_fm and longest_common_substring.

    The backward probe of the current length-min_len window comes from the
    text index; a window whose whole suffix matches pins a MEM at the window
    start, found by searching the reversed pattern in the reversed-text
    index.  In longest mode that MEM is at least min_len long, so it replaces
    the single kept MEM and the threshold rises to one above its length.
    """
    if min_len < 1:
        raise ValueError("minimum length must be at least 1")
    _check_paired(pattern, fwd_index, rev_index)
    result = FinderResult()
    stats = result.stats
    m = pattern.m
    codes, rcodes = _fm_codes(pattern)
    i = 0
    while i <= m - min_len:
        stats.loop_iterations += 1
        j = i + min_len - 1
        stats.lcs_queries += 1
        suffix_len, _ = fwd_index.backward_search_prefix(codes, j + 1, stats)
        k = j - suffix_len + 1
        if k > i:
            i = k
            continue
        stats.lcp_queries += 1
        length, iv = rev_index.backward_search_prefix(rcodes, m - i, stats)
        mem = MemRecord(i, length, bwt_interval=iv if report_intervals else None)
        if longest:
            result.mems = [mem]
            min_len = length + 1
        else:
            result.mems.append(mem)
        j = i + length - 1
        if j == m - 1:
            break
        stats.lcs_queries += 1
        back, _ = fwd_index.backward_search_prefix(codes, j + 2, stats)
        # the MEM is right-maximal, so the next start is past i unless the
        # two indexes hold different texts, when the scan would never end
        if j - back + 2 <= i:
            raise IndexFormatError("the forward and reverse indexes disagree")
        i = j - back + 2
    return result


def find_long_mems_fm(pattern: Pattern, fwd_index: FmIndex, rev_index: FmIndex,
                      min_len: int, report_intervals: bool = False) -> FinderResult:
    """Deterministic thresholded finder using only backward stepping.

    Same output as find_long_mems_lce.  When requested, each record carries
    the interval of the reversed MEM in the reversed-text index.
    """
    return _thresholded_scan(pattern, fwd_index, rev_index, min_len,
                             longest=False, report_intervals=report_intervals)


def find_all_mems_fm(pattern: Pattern, fwd_index: FmIndex, rev_index: FmIndex,
                     report_intervals: bool = False) -> FinderResult:
    """Every MEM via alternating full backward searches; the step-count baseline.

    Pattern symbols absent from the text extend nothing and are skipped one
    position at a time, so unsplit patterns degrade gracefully.
    """
    _check_paired(pattern, fwd_index, rev_index)
    result = FinderResult()
    stats = result.stats
    m = pattern.m
    codes, rcodes = _fm_codes(pattern)
    i = 0
    while i < m:
        stats.loop_iterations += 1
        stats.lcp_queries += 1
        length, iv = rev_index.backward_search_prefix(rcodes, m - i, stats)
        if length == 0:
            i += 1
            continue
        j = i + length - 1
        result.mems.append(
            MemRecord(i, length, bwt_interval=iv if report_intervals else None)
        )
        if j == m - 1:
            break
        stats.lcs_queries += 1
        back, _ = fwd_index.backward_search_prefix(codes, j + 2, stats)
        if j - back + 2 <= i:  # as in _thresholded_scan
            raise IndexFormatError("the forward and reverse indexes disagree")
        i = j - back + 2
    return result


def longest_common_substring(pattern: Pattern, fwd_index: FmIndex,
                             rev_index: FmIndex) -> FinderResult:
    """One maximum-length MEM (leftmost among maxima), or none if nothing matches.

    Runs the thresholded loop with the threshold held one above the best
    length found so far, so every confirmed window strictly improves on the
    current best and everything shorter is skipped wholesale.
    """
    return _thresholded_scan(pattern, fwd_index, rev_index, 1, longest=True,
                             report_intervals=True)


def find_in_raw(raw_pattern: bytes, alphabet: Alphabet, finder,
                separators: bytes = b"") -> FinderResult:
    """Split a raw pattern on foreign bytes and run a finder per piece.

    `finder` maps a Pattern to a FinderResult; starts are shifted back into
    original-pattern coordinates and work counters are summed.  The
    `separators` of a concatenated text split the pattern like foreign bytes,
    so no match crosses a record boundary.
    """
    merged = FinderResult()
    for offset, sub in split_by_foreign_chars(raw_pattern, alphabet, separators):
        part = finder(sub)
        for mem in part.mems:
            merged.mems.append(
                MemRecord(mem.start + offset, mem.length,
                          bwt_interval=mem.bwt_interval,
                          occurrences=mem.occurrences)
            )
        merged.stats.backward_steps += part.stats.backward_steps
        merged.stats.lcp_queries += part.stats.lcp_queries
        merged.stats.lcs_queries += part.stats.lcs_queries
        merged.stats.loop_iterations += part.stats.loop_iterations
    return merged
