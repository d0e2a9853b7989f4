"""Alphabet mapping, encoded sequences, and pattern preprocessing.

Texts and patterns hold their symbol codes as bytes, and alphabets and the
foreign-byte split work on bytes with the standard library only, so a query
process need not import numpy; a numpy view of the codes is made only for
the numpy code that builds indexes.
"""

from __future__ import annotations

from functools import cached_property
from typing import TYPE_CHECKING, NamedTuple, Optional

if TYPE_CHECKING:
    import numpy as np

    from .fm import BwtInterval


# every byte value, ascending: deleting a text's bytes from it leaves the
# values the text does not use, and deleting those leaves the ones it does
BYTES = bytes(range(256))


class ForeignSymbolError(ValueError):
    """A byte outside the alphabet appeared where only alphabet symbols are allowed."""


class _Frozen:
    """Fields are set once, in __init__; assigning one afterwards raises AttributeError.

    Cached properties still fill in, since they write the instance dict directly.
    """

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Alphabet(_Frozen):
    """Dense code assignment for a set of distinct byte values.

    Codes are assigned in ascending byte order, so code order equals byte
    order and encoded sequences compare like the raw bytes they came from.
    """

    def __init__(self, symbols: bytes):
        if len(symbols) == 0:
            raise ValueError("empty alphabet")
        if bytes(sorted(set(symbols))) != symbols:
            raise ValueError("alphabet symbols must be distinct and ascending")
        object.__setattr__(self, "symbols", symbols)

    def __eq__(self, other):
        if type(other) is not Alphabet:
            return NotImplemented
        return self.symbols == other.symbols

    def __hash__(self):
        return hash(self.symbols)

    @property
    def size(self) -> int:
        return len(self.symbols)

    @cached_property
    def _code_table(self) -> bytes:
        # byte value -> code, for bytes.translate; foreign bytes map to 0
        # and are caught before translating
        table = bytearray(256)
        for code, symbol in enumerate(self.symbols):
            table[symbol] = code
        return bytes(table)

    def encode_bytes(self, raw: bytes) -> bytes:
        """Map raw bytes to dense codes, one byte each.

        Raises ForeignSymbolError on a byte outside the alphabet.
        """
        raw = bytes(raw)
        foreign = raw.translate(None, self.symbols)
        if foreign:
            raise ForeignSymbolError(
                f"byte {foreign[0]:#04x} is not in the alphabet; split the pattern first"
            )
        return raw.translate(self._code_table)

    def decode(self, codes: bytes) -> bytes:
        """Map dense codes, one byte each, back to the raw bytes they stand for."""
        if codes.translate(None, bytes(range(self.size))):
            raise ValueError("codes outside the alphabet")
        return codes.translate(self.symbols.ljust(256, b"\0"))


def build_alphabet(text_bytes: bytes) -> Alphabet:
    """Alphabet of exactly the distinct bytes present, coded in ascending byte order."""
    if len(text_bytes) == 0:
        raise ValueError("empty text")
    return Alphabet(BYTES.translate(None, BYTES.translate(None, text_bytes)))


class _Encoded(_Frozen):
    """Symbol codes over an alphabet, given and held as bytes, one per symbol.

    Any other form, even a bytearray, raises TypeError: the codes must not
    change after they are checked.
    """

    def __init__(self, alphabet: Alphabet, code_bytes: bytes):
        if not isinstance(code_bytes, bytes):
            raise TypeError(f"codes must be bytes, not {type(code_bytes).__name__}")
        if code_bytes.translate(None, bytes(range(alphabet.size))):
            kind = type(self).__name__.lower()
            raise ValueError(f"{kind} contains codes outside the alphabet")
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "code_bytes", code_bytes)

    @cached_property
    def data(self) -> np.ndarray:
        """The codes as a read-only uint8 array, made on first use, for numpy code."""
        import numpy as np

        return np.frombuffer(self.code_bytes, dtype=np.uint8)

    def to_raw(self) -> bytes:
        return self.alphabet.decode(self.code_bytes)


def check_text_length(n: int, error: type[ValueError] = ValueError) -> None:
    """Raise `error`, naming the limit, for a text of 2**31 symbols or more:
    suffix arrays and their ranks, BWT rows and sample rows are 32-bit, and
    the suffix sort's doubling key rank * n + rank stays below 2**62."""
    if n >= 1 << 31:
        raise error(f"a text of {n} symbols is too long: memlight indexes fewer than 2**31")


class Text(_Encoded):
    """An encoded text over an alphabet; immutable after construction."""

    def __init__(self, alphabet: Alphabet, code_bytes: bytes):
        super().__init__(alphabet, code_bytes)
        if self.n == 0:
            raise ValueError("empty text")

    @classmethod
    def from_bytes(cls, raw: bytes) -> "Text":
        alphabet = build_alphabet(raw)
        return cls(alphabet, alphabet.encode_bytes(raw))

    @property
    def n(self) -> int:
        return len(self.code_bytes)

    def reversed(self) -> "Text":
        return Text(self.alphabet, self.code_bytes[::-1])


class Pattern(_Encoded):
    """An encoded pattern sharing the alphabet of the text it queries."""

    @classmethod
    def from_bytes(cls, raw: bytes, alphabet: Alphabet) -> "Pattern":
        return cls(alphabet, alphabet.encode_bytes(raw))

    @property
    def m(self) -> int:
        return len(self.code_bytes)


def split_by_foreign_chars(raw_pattern: bytes, alphabet: Alphabet,
                           separators: bytes = b"") -> list[tuple[int, Pattern]]:
    """Split a raw pattern into maximal runs of alphabet bytes.

    Returns (offset, subpattern) pairs; offsets are positions in the raw
    input so match coordinates can be reported in original-pattern space.
    Bytes outside the alphabet never match anything, so no result is lost.
    `separators` are alphabet bytes that split the pattern all the same.
    """
    kept = bytearray(256)
    for symbol in alphabet.symbols.translate(None, separators):
        kept[symbol] = 1
    flags = raw_pattern.translate(kept)  # 1 where a byte may match
    pieces = []
    end = 0
    while (start := flags.find(1, end)) >= 0:
        end = flags.find(0, start)
        if end < 0:
            end = len(flags)
        pieces.append((start, Pattern.from_bytes(raw_pattern[start:end], alphabet)))
    return pieces


class _MemFields(NamedTuple):
    start: int
    length: int
    bwt_interval: Optional[BwtInterval] = None
    occurrences: Optional[tuple[int, ...]] = None


class MemRecord(_MemFields):
    """One maximal exact match: where it starts in the pattern and how long it is.

    Optionally carries the interval of suffix-order rows matching it and the
    text positions where it occurs.
    """

    __slots__ = ()

    def __new__(cls, start: int, length: int, bwt_interval: Optional[BwtInterval] = None,
                occurrences: Optional[tuple[int, ...]] = None):
        if length < 1:
            raise ValueError("a match must be non-empty")
        return super().__new__(cls, start, length, bwt_interval, occurrences)

    @property
    def end(self) -> int:
        """Exclusive end offset in the pattern."""
        return self.start + self.length

    @property
    def span(self) -> tuple[int, int]:
        return (self.start, self.length)


class QueryStats:
    """Work counters for one query; owned by the caller, never shared."""

    def __init__(self, backward_steps: int = 0, lcp_queries: int = 0,
                 lcs_queries: int = 0, loop_iterations: int = 0):
        self.backward_steps = backward_steps
        self.lcp_queries = lcp_queries
        self.lcs_queries = lcs_queries
        self.loop_iterations = loop_iterations

    def __eq__(self, other):
        if type(other) is not QueryStats:
            return NotImplemented
        return vars(self) == vars(other)

    def __repr__(self):
        return f"QueryStats({', '.join(f'{name}={count}' for name, count in vars(self).items())})"
