"""Expected output rows, from `brute_force_mems`, and the row checks.

The oracle sorts the suffixes itself (prefix doubling on packed k-mers, a
different algorithm from the program's) and splits patterns on foreign
bytes with its own regular expression, so a defect in the program's suffix
sort or split cannot make the oracle agree with it.  All rows are in the
CLI's 1-based inclusive coordinates.
"""

from __future__ import annotations

import re

import numpy as np

from memlight import Pattern, SuffixArray, Text, brute_force_mems

# (start, end, length, occurrence count, positions); positions is () for lcs
Row = tuple[int, int, int, int, tuple[int, ...]]


def suffix_array(codes: np.ndarray, sigma: int) -> np.ndarray:
    """Suffix array of codes plus a smallest sentinel, which sorts first."""
    n = codes.size + 1
    x = np.zeros(n, dtype=np.int64)
    x[:-1] = codes.astype(np.int64) + 1
    base = sigma + 1
    width = 1
    while base ** (width + 1) < 2**62:
        width += 1
    key = np.zeros(n, dtype=np.int64)
    for j in range(width):
        key *= base
        key[: max(n - j, 0)] += x[j:]
    k = width
    while True:
        order = np.argsort(key, kind="stable")
        sorted_key = key[order]
        new = np.zeros(n, dtype=np.int64)
        np.cumsum(sorted_key[1:] != sorted_key[:-1], out=new[1:])
        if new[-1] == n - 1:
            return order
        rank = np.empty(n, dtype=np.int64)
        rank[order] = new
        key = rank * (n + 1)
        key[: max(n - k, 0)] += rank[k:] + 1
        k *= 2


def foreign_split(raw: bytes, alphabet: bytes) -> list[tuple[int, bytes]]:
    """Maximal runs of alphabet bytes, with their offsets in raw."""
    cls = b"".join(re.escape(bytes([b])) for b in alphabet)
    return [(m.start(), m.group()) for m in re.finditer(b"[" + cls + b"]+", raw)]


class Oracle:
    """Every MEM of every pattern, computed once per run outside timing."""

    def __init__(self, text: bytes, patterns: list[tuple[str, bytes]]):
        t = Text.from_bytes(text)
        sa = SuffixArray(t, suffix_array(t.data, t.alphabet.size))
        self.mems: dict[str, list[Row]] = {}
        for rid, raw in patterns:
            rows = []
            for offset, piece in foreign_split(raw, t.alphabet.symbols):
                pattern = Pattern.from_bytes(piece, t.alphabet)
                for mem in brute_force_mems(pattern, t, 1, sa=sa):
                    start = mem.start + offset + 1
                    rows.append((start, start + mem.length - 1, mem.length,
                                 len(mem.occurrences),
                                 tuple(p + 1 for p in mem.occurrences)))
            self.mems[rid] = rows

    def rows(self, rid: str, finder: str, min_len: int, locate: bool) -> list[Row]:
        """What one query command must print for one pattern."""
        mems = self.mems[rid]
        if finder == "lcs":
            if not mems:
                return []
            best = max(mems, key=lambda r: (r[2], -r[0]))
            return [best[:4] + ((),)]
        keep = [r for r in mems if finder == "all" or r[2] >= min_len]
        return [r if locate else r[:4] + ((),) for r in keep]


def parse_tsv(out: bytes, locate: bool) -> dict[str, list[Row]]:
    """Rows printed by `mems`/`lcs`, grouped by pattern id.

    Raises ValueError on a row that does not have the expected shape.
    """
    rows: dict[str, list[Row]] = {}
    for line in out.decode().splitlines():
        fields = line.split("\t")
        if len(fields) < 5 or (not locate and len(fields) != 5):
            raise ValueError(f"malformed row: {line!r}")
        nums = [int(f) for f in fields[1:]]
        rows.setdefault(fields[0], []).append(
            (nums[0], nums[1], nums[2], nums[3], tuple(nums[4:])))
    return rows
