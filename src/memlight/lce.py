"""Longest-common-extension queries between a pattern and a text.

Two interchangeable backends: an exact character-scanning one, and a
Karp-Rabin fingerprint one answering in O(log answer) hash comparisons,
correct except on hash collisions (probability about (m+n)/MODULUS per
comparison).
"""

from __future__ import annotations

import random

from .sequence import Pattern, Text
from .suffixes import first_mismatch

MODULUS = (1 << 61) - 1  # Mersenne prime, fast reduction and tiny collision rate


def _prefix_hashes(codes: bytes, base: int) -> list[int]:
    pre = [0] * (len(codes) + 1)
    h = 0
    for k, c in enumerate(codes):
        h = (h * base + c + 1) % MODULUS
        pre[k + 1] = h
    return pre


def _check(lce, i: int, j: int) -> None:
    if not (0 <= i < lce.m and 0 <= j < lce.n):
        raise ValueError(f"position out of range: pattern {i}, text {j}")


class NaiveLce:
    """Exact extension queries by direct character comparison."""

    def __init__(self, text: Text, pattern: Pattern):
        self._t = text.data
        self._p = pattern.data
        self.n = text.n
        self.m = pattern.m

    def lce_forward(self, i: int, j: int) -> int:
        """Longest common prefix of pattern[i:] and text[j:]."""
        _check(self, i, j)
        return first_mismatch(self._p[i:], self._t[j:])

    def lce_backward(self, i: int, j: int) -> int:
        """Longest common suffix of pattern[:i+1] and text[:j+1]."""
        _check(self, i, j)
        return first_mismatch(self._p[i::-1], self._t[j::-1])


class FingerprintLce:
    """Extension queries via fingerprint equality, exponential then binary search.

    Holds the prefix fingerprints of the text and pattern, both directions:
    any substring hash is an O(1) combination of two prefix hashes and a
    cached base power; equal substrings always hash equal and the empty
    substring hashes to 0.  Short answers are the common case, so the search
    costs O(log answer) comparisons, not O(log n).  Matches are not
    re-verified by scanning, so each query is correct with high probability
    rather than always.
    """

    def __init__(self, text: Text, pattern: Pattern, seed: int | None = None):
        self.base = base = random.Random(seed).randrange(2, MODULUS - 1)
        t, p = text.code_bytes, pattern.code_bytes
        self.text_fwd, self.text_rev = _prefix_hashes(t, base), _prefix_hashes(t[::-1], base)
        self.pat_fwd, self.pat_rev = _prefix_hashes(p, base), _prefix_hashes(p[::-1], base)
        self.powers = powers = [1] * (max(len(t), len(p)) + 1)
        for k in range(1, len(powers)):
            powers[k] = powers[k - 1] * base % MODULUS
        self.n, self.m = len(t), len(p)

    def substring_hash(self, prefixes: list[int], i: int, j: int) -> int:
        """Hash of the slice [i, j) of the sequence behind `prefixes`."""
        return (prefixes[j] - prefixes[i] * self.powers[j - i]) % MODULUS

    def _search(self, p_pre: list[int], t_pre: list[int], pi: int, tj: int,
                limit: int) -> tuple[int, int]:
        """Largest k <= limit with equal length-k extensions, plus comparisons used."""
        comparisons = 0

        def eq(k: int) -> bool:
            nonlocal comparisons
            comparisons += 1
            return self.substring_hash(p_pre, pi, pi + k) == self.substring_hash(
                t_pre, tj, tj + k
            )

        lo = 0
        k = 1
        while k <= limit:
            if not eq(k):
                break
            lo = k
            k <<= 1
        hi = min(k, limit + 1)
        while lo + 1 < hi:
            mid = (lo + hi) // 2
            if eq(mid):
                lo = mid
            else:
                hi = mid
        return lo, comparisons

    def lce_forward_counted(self, i: int, j: int) -> tuple[int, int]:
        _check(self, i, j)
        return self._search(self.pat_fwd, self.text_fwd, i, j, min(self.m - i, self.n - j))

    def lce_backward_counted(self, i: int, j: int) -> tuple[int, int]:
        _check(self, i, j)
        return self._search(self.pat_rev, self.text_rev, self.m - 1 - i, self.n - 1 - j,
                            min(i, j) + 1)

    def lce_forward(self, i: int, j: int) -> int:
        """Longest common prefix of pattern[i:] and text[j:], w.h.p."""
        return self.lce_forward_counted(i, j)[0]

    def lce_backward(self, i: int, j: int) -> int:
        """Longest common suffix of pattern[:i+1] and text[:j+1], w.h.p."""
        return self.lce_backward_counted(i, j)[0]
