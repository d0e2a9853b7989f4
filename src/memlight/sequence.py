"""Alphabet mapping, encoded sequences, and pattern preprocessing."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Optional

import numpy as np

if TYPE_CHECKING:
    from .fm import BwtInterval


class ForeignSymbolError(ValueError):
    """A byte outside the alphabet appeared where only alphabet symbols are allowed."""


@dataclass(frozen=True)
class Alphabet:
    """Dense code assignment for a set of distinct byte values.

    Codes are assigned in ascending byte order, so code order equals byte
    order and encoded sequences compare like the raw bytes they came from.
    """

    symbols: bytes

    def __post_init__(self):
        if len(self.symbols) == 0:
            raise ValueError("empty alphabet")
        if bytes(sorted(set(self.symbols))) != self.symbols:
            raise ValueError("alphabet symbols must be distinct and ascending")

    @property
    def size(self) -> int:
        return len(self.symbols)

    @cached_property
    def _code_table(self) -> np.ndarray:
        # byte value -> code, or -1 for bytes outside the alphabet
        table = np.full(256, -1, dtype=np.int16)
        table[np.frombuffer(self.symbols, dtype=np.uint8)] = np.arange(self.size)
        return table

    def encode(self, raw: bytes) -> np.ndarray:
        """Map raw bytes to dense codes; raises ForeignSymbolError on unknown bytes."""
        arr = np.frombuffer(raw, dtype=np.uint8) if isinstance(raw, (bytes, bytearray)) else np.asarray(raw, dtype=np.uint8)
        codes = self._code_table[arr]
        if codes.size and codes.min() < 0:
            bad = int(arr[int(np.argmax(codes < 0))])
            raise ForeignSymbolError(
                f"byte {bad:#04x} is not in the alphabet; split the pattern first"
            )
        out = codes.astype(np.uint8)
        out.setflags(write=False)
        return out

    def decode(self, codes: np.ndarray) -> bytes:
        sym = np.frombuffer(self.symbols, dtype=np.uint8)
        return sym[np.asarray(codes)].tobytes()


def build_alphabet(text_bytes: bytes) -> Alphabet:
    """Alphabet of exactly the distinct bytes present, coded in ascending byte order."""
    if len(text_bytes) == 0:
        raise ValueError("empty text")
    return Alphabet(bytes(sorted(set(text_bytes))))


def _freeze(codes: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(codes, dtype=np.uint8)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Text:
    """An encoded text over an alphabet; immutable after construction."""

    alphabet: Alphabet
    data: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "data", _freeze(self.data))
        if self.n == 0:
            raise ValueError("empty text")
        if self.data.max() >= self.alphabet.size:
            raise ValueError("text contains codes outside the alphabet")

    @classmethod
    def from_bytes(cls, raw: bytes, alphabet: Alphabet | None = None) -> "Text":
        alphabet = alphabet or build_alphabet(raw)
        return cls(alphabet, alphabet.encode(raw))

    @property
    def n(self) -> int:
        return self.data.size

    @cached_property
    def code_bytes(self) -> bytes:
        return self.data.tobytes()

    def reversed(self) -> "Text":
        return Text(self.alphabet, self.data[::-1])

    def to_raw(self) -> bytes:
        return self.alphabet.decode(self.data)


@dataclass(frozen=True)
class Pattern:
    """An encoded pattern sharing the alphabet of the text it queries."""

    alphabet: Alphabet
    data: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "data", _freeze(self.data))
        if self.m and self.data.max() >= self.alphabet.size:
            raise ValueError("pattern contains codes outside the alphabet")

    @classmethod
    def from_bytes(cls, raw: bytes, alphabet: Alphabet) -> "Pattern":
        return cls(alphabet, alphabet.encode(raw))

    @property
    def m(self) -> int:
        return self.data.size

    @cached_property
    def code_bytes(self) -> bytes:
        return self.data.tobytes()

    def to_raw(self) -> bytes:
        return self.alphabet.decode(self.data)


def split_by_foreign_chars(raw_pattern: bytes, alphabet: Alphabet,
                           separators: bytes = b"") -> list[tuple[int, Pattern]]:
    """Split a raw pattern into maximal runs of alphabet bytes.

    Returns (offset, subpattern) pairs; offsets are positions in the raw
    input so match coordinates can be reported in original-pattern space.
    Bytes outside the alphabet never match anything, so no result is lost.
    `separators` are alphabet bytes that split the pattern all the same.
    """
    if len(raw_pattern) == 0:
        return []
    arr = np.frombuffer(raw_pattern, dtype=np.uint8)
    ok = alphabet._code_table[arr] >= 0
    if separators:
        ok &= ~np.isin(arr, np.frombuffer(separators, dtype=np.uint8))
    if not ok.any():
        return []
    edges = np.flatnonzero(np.diff(ok.astype(np.int8)))
    starts = [0] if ok[0] else []
    starts += [int(e) + 1 for e in edges if ok[e + 1]]
    ends = [int(e) + 1 for e in edges if ok[e]]
    if ok[-1]:
        ends.append(len(raw_pattern))
    return [
        (s, Pattern.from_bytes(raw_pattern[s:e], alphabet))
        for s, e in zip(starts, ends)
    ]


@dataclass(frozen=True)
class MemRecord:
    """One maximal exact match: where it starts in the pattern and how long it is.

    Optionally carries the interval of suffix-order rows matching it and the
    text positions where it occurs.
    """

    start: int
    length: int
    bwt_interval: Optional["BwtInterval"] = None
    occurrences: Optional[tuple[int, ...]] = None

    def __post_init__(self):
        if self.length < 1:
            raise ValueError("a match must be non-empty")

    @property
    def end(self) -> int:
        """Exclusive end offset in the pattern."""
        return self.start + self.length

    @property
    def span(self) -> tuple[int, int]:
        return (self.start, self.length)


@dataclass
class QueryStats:
    """Work counters for one query; owned by the caller, never shared."""

    backward_steps: int = 0
    lcp_queries: int = 0
    lcs_queries: int = 0
    loop_iterations: int = 0
