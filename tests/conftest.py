"""Shared fixtures: hand-checked instances and the randomized case machinery."""

import struct
import zlib
from dataclasses import dataclass

import numpy as np
import pytest

from memlight import (FmIndex, IndexPair, MatchPointers, NaiveLce, Pattern,
                      SuffixArray, Text, build_fm, build_suffix_structures,
                      compute_match_pointers)

# A 12-symbol instance small enough to check every value by hand.
DEMO_TEXT = b"GATTAGATACAT"
DEMO_PATTERN = b"TACATAGATTAG"
DEMO_FORWARD_1BASED = [8, 9, 10, 7, 4, 5, 1, 2, 3, 4, 5, 1]
DEMO_BACKWARD_1BASED = [3, 5, 10, 11, 12, 9, 6, 7, 8, 4, 5, 6]
DEMO_ALL_SPANS_1BASED = [(1, 5), (4, 6), (5, 9), (7, 12)]
DEMO_LONG_SPANS_1BASED = [(1, 5), (5, 9), (7, 12)]

# Every proper prefix of the pattern occurs in this text, each time followed
# by a different continuation, so the whole pattern is the only MEM even
# though no backward pointer step looks redundant.
ADVERSARIAL_TEXT = b"GCGAAGATAGATTCGATTAGGATTACCGATTACAAGATTACAT"
ADVERSARIAL_PATTERN = b"GATTACAT"
ADVERSARIAL_BACKWARD_1BASED = [1, 4, 8, 13, 19, 26, 34, 43]

# A 550-symbol random DNA string whose middle section was copied out and
# noised at rate 1/4: two informative matches survive among short noise.
NOISY_TEXT = b"".join([
    b"TCTTAGCTGACGTTCGGGGCGGGTTAGGCCATCTTCTATAGATTTCTCAG",
    b"AGACATCCTAGCCGTGCTGAAGTTGTCACTCGCGGCCGTGTTTCCTAACG",
    b"CCACCTGATAGCGTGTTCCAAGCACTTGAGTGTCGGGCTGTAGGGGCTCA",
    b"CTCTGCGCAGGATCACGGCTGTTTGTACCTATATCGTTATCGTACTGAAT",
    b"AAGTAGAATATCCAAACTTTCAGATTCCGGTTTGGCTGCCAAAACTAGGT",
    b"GGGATGTGATGCGCGGCGAATTGTGATCTCGCATTGTATATTATCAATCT",
    b"CAGCTTAGCTTGACTTGCACAAAATGAACCCTACGGCGGTGGAGGATTAC",
    b"GACCGGAAGCGTCCTGCCTCGGAAAGCGTCCTCCTCAGAAGACGCGCGTG",
    b"AGGTCCGTCTTGTGGTCGCGACACAATACGCGACACGAACGACTGGTACC",
    b"GGATCAAGTTCTCGATAGGCTGAATTGGCTCTTGTATACATGATGATTGT",
    b"GGAATCTATACTGTGAACTTATAGGCAAATCCTATGCCACTACATTACGG",
])
NOISY_PATTERN = b"AAGTCTTATACCCAAACTTACGGATTCCGGTTTGTCTGCCGAAATTAGGT"
# Frozen from the brute-force oracle; one 8 and one 12, everything else <= 6.
NOISY_MEM_LENGTHS = [4, 5, 5, 6, 5, 4, 4, 8, 6, 6, 5, 5, 12, 6, 5,
                     4, 5, 5, 4, 4, 4, 4, 4, 4, 5, 5]


@dataclass
class Bench:
    """One fully indexed (text, pattern) instance."""

    text: Text
    pattern: Pattern
    sa_fwd: SuffixArray
    sa_rev: SuffixArray
    pointers: MatchPointers
    fm_fwd: FmIndex
    fm_rev: FmIndex

    def naive_lce(self) -> NaiveLce:
        return NaiveLce(self.text, self.pattern)

    @property
    def pair(self) -> IndexPair:
        return IndexPair(self.fm_fwd, self.fm_rev)


def make_bench(text_bytes: bytes, pattern_bytes: bytes, sample_rate: int = 8) -> Bench:
    text = Text.from_bytes(text_bytes)
    pattern = Pattern.from_bytes(pattern_bytes, text.alphabet)
    sa_fwd = build_suffix_structures(text)
    sa_rev = build_suffix_structures(text.reversed())
    return Bench(
        text=text,
        pattern=pattern,
        sa_fwd=sa_fwd,
        sa_rev=sa_rev,
        pointers=compute_match_pointers(pattern, text, sa_fwd, sa_rev),
        fm_fwd=build_fm(text, sample_rate, sa=sa_fwd),
        fm_rev=build_fm(text.reversed(), sample_rate, sa=sa_rev),
    )


@pytest.fixture(scope="session")
def demo_bench() -> Bench:
    return make_bench(DEMO_TEXT, DEMO_PATTERN)


@pytest.fixture(scope="session")
def adversarial_bench() -> Bench:
    return make_bench(ADVERSARIAL_TEXT, ADVERSARIAL_PATTERN)


@pytest.fixture(scope="session")
def noisy_bench() -> Bench:
    return make_bench(NOISY_TEXT, NOISY_PATTERN)


def random_raw_pair(rng: np.random.Generator, max_n: int = 2000,
                    max_m: int = 200) -> tuple[bytes, bytes]:
    """Random text plus either a mutated slice of it or an independent pattern.

    Pattern bytes are always drawn from the text's own symbols, so every
    pattern symbol occurs in the text.
    """
    sigma = int(rng.choice([2, 4, 20]))
    n = int(rng.integers(16, max_n + 1))
    m = int(rng.integers(1, max_m + 1))
    symbols = bytes(range(48, 48 + sigma))
    t_raw = bytes(symbols[c] for c in rng.integers(0, sigma, n))
    present = bytes(sorted(set(t_raw)))
    if rng.random() < 0.5 and m <= n:
        start = int(rng.integers(0, n - m + 1))
        arr = bytearray(t_raw[start : start + m])
        for k in range(m):
            if rng.random() < 0.15:
                arr[k] = present[int(rng.integers(0, len(present)))]
        p_raw = bytes(arr)
    else:
        p_raw = bytes(present[c] for c in rng.integers(0, len(present), m))
    return t_raw, p_raw


L_CHOICES = (1, 2, 3, 5, 8, 13, 21, None)  # None means m


def case_min_len(index: int, m: int) -> int:
    choice = L_CHOICES[index % len(L_CHOICES)]
    return m if choice is None else choice


def replay_window_probes(pattern, pointers, lce, min_len):
    """Re-walk the thresholded scan, recording (i, probe) per iteration.

    Mirrors find_long_mems_lce so tests can inspect the probe values and the
    visited start positions, which the finder itself does not expose.
    """
    m = pattern.m
    fwd, bwd = pointers.forward, pointers.backward
    trail = []
    i = 0
    while i <= m - min_len:
        window_end = i + min_len - 1
        b = lce.lce_backward(window_end, int(bwd[window_end]))
        trail.append((i, b))
        if b >= min_len:
            length = lce.lce_forward(i, int(fwd[i]))
            if i + length == m:
                break
            back = lce.lce_backward(i + length, int(bwd[i + length]))
            i = i + length + 1 - back
        else:
            i += min_len - b
    return trail


# -- the saved index's layout (MEMLIDXA) ----------------------------------------------

ALPHABET_AT = 8 + 4 * 8  # after the magic and the four header fields


def plane_size(n, sigma):
    """Bytes of the planes over sigma symbols, ceil((n + 1) / 8) each."""
    return (sigma - 1).bit_length() * ((n >> 3) + 1)


def payload_size(n, sigma, rate):
    """MEMLIDXA's payload before deflating: the planes, then the sample
    rows, 4 bytes each."""
    return plane_size(n, sigma) + (n // rate + 1) * 4


def _move_plane_bits(source, n, count, to_pairs):
    """The bytes of `count` planes moved between two layouts: one plane
    after the other, and as the payload holds them, planes 2k and 2k + 1 as
    one stream of 2-bit fields, whose byte i holds rows 4i ... 4i + 3, row
    4i + j's plane-2k bit at bit 2j and its plane-(2k + 1) bit at bit
    2j + 1, and an odd last plane alone.  Bytes past the pairs stay as
    they are."""
    size, out = (n >> 3) + 1, bytearray(source)
    paired = count // 2 * 2 * size
    out[:paired] = bytes(paired)
    for k in range(0, count - 1, 2):
        for j in (0, 1):
            for row in range(8 * size):
                plane = ((k + j) * size + (row >> 3), 1 << (row & 7))
                field = (k * size + (row >> 2), 1 << (2 * (row & 3) + j))
                (at, bit), (to, to_bit) = (plane, field) if to_pairs else (field, plane)
                if source[at] & bit:
                    out[to] |= to_bit
    return out


def pair_planes(planes, n, count):
    """The bytes of `count` planes, one after the other, as the payload
    holds them."""
    return _move_plane_bits(planes, n, count, to_pairs=True)


def split_planes(paired, n, count):
    """The bytes of `count` planes, one after the other, from the payload's
    form."""
    return _move_plane_bits(paired, n, count, to_pairs=False)


def paired_planes(planes, n):
    """Plane ints, bit r of plane j being bit j of row r's number, as the
    payload holds them."""
    size = (n >> 3) + 1
    joined = b"".join(plane.to_bytes(size, "little") for plane in planes)
    return bytes(pair_planes(joined, n, len(planes)))


def pack_rows(rows):
    """The rows as the payload holds them: every row's lowest byte, then
    every row's next byte, and so on, 4 bytes per row."""
    return b"".join(bytes(row >> 8 * j & 255 for row in rows) for j in range(4))


def unpack_rows(data):
    count = len(data) // 4
    return [sum(data[j * count + i] << 8 * j for j in range(4)) for i in range(count)]


def deflate(data):
    packer = zlib.compressobj(wbits=-15)
    return packer.compress(data) + packer.flush()


def payload_at(data):
    """Where the payload starts: after the magic, the header, the alphabet,
    the separators and the order."""
    _, sigma, _, n_separators = struct.unpack_from("<4Q", data, 8)
    return ALPHABET_AT + 2 * sigma + n_separators


def payload_of(data):
    """The saved index's payload, inflated."""
    return zlib.decompress(data[payload_at(data) : -4], wbits=-15)


def reseal(data: bytes) -> bytes:
    body = data[:-4]
    return body + struct.pack("<I", zlib.crc32(body))


def with_stream(data, stream):
    """The saved index with the stream as its payload, resealed."""
    return reseal(data[: payload_at(data)] + stream + bytes(4))


def reseal_payload(data, edit):
    """The saved index with its payload inflated, `edit(planes, rows)`
    applied to the planes' bytes, one plane after the other (a bytearray,
    split from the pairs), and the sample rows (a list), and the two
    paired, deflated again and resealed."""
    n, sigma, _, _ = struct.unpack_from("<4Q", data, 8)
    payload, split = payload_of(data), plane_size(n, sigma)
    count = (sigma - 1).bit_length()
    planes, rows = split_planes(payload[:split], n, count), unpack_rows(payload[split:])
    edit(planes, rows)
    return with_stream(data, deflate(bytes(pair_planes(planes, n, count)) + pack_rows(rows)))


def index_file(alphabet, n, planes, order, rate, rows, separators=b""):
    """The saved bytes of an index given by its parts: the header, the
    alphabet, the separators and the order, then the planes (ints, bit r of
    plane j being bit j of row r's number), paired, and the sample rows as
    one raw DEFLATE stream, then the CRC."""
    body = (b"MEMLIDXA" + struct.pack("<4Q", n, alphabet.size, rate, len(separators))
            + alphabet.symbols + bytes(separators) + bytes(order)
            + deflate(paired_planes(planes, n) + pack_rows(rows)))
    return reseal(body + bytes(4))


def set_plane_bit(planes, n, plane, row):
    planes[plane * ((n >> 3) + 1) + (row >> 3)] |= 1 << (row & 7)
