import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memlight import (BwtInterval, FmIndex, IndexFormatError, Pattern,
                      QueryStats, Text, build_fm, build_suffix_structures,
                      invert_bwt)

from conftest import DEMO_PATTERN, DEMO_TEXT


@pytest.fixture(scope="module")
def demo_index():
    text = Text.from_bytes(DEMO_TEXT)
    return text, build_fm(text, sample_rate=4)


def encode(text, raw):
    return text.alphabet.encode(raw)


def interval_of(index, text, raw):
    iv = index.full_interval()
    for code in encode(text, raw)[::-1]:
        iv = index.backward_extend(iv, int(code))
    return iv


# -- construction ---------------------------------------------------------------

def test_bwt_of_banana():
    text = Text.from_bytes(b"banana")
    index = build_fm(text)
    # codes a=0 b=1 n=2, sentinel -1: "annb$aa"
    assert index._bwt.tolist() == [0, 2, 2, 1, -1, 0, 0]


def test_bwt_of_single_symbol():
    index = build_fm(Text.from_bytes(b"a"))
    assert index._bwt.tolist() == [0, -1]


@pytest.mark.parametrize("raw", [DEMO_TEXT, b"banana", b"abracadabra", b"zz"])
def test_inverting_the_bwt_recovers_the_text(raw):
    text = Text.from_bytes(raw)
    index = build_fm(text, sample_rate=3)
    assert bytes(invert_bwt(index)) == text.code_bytes


def test_build_rejects_bad_sample_rate():
    with pytest.raises(ValueError):
        build_fm(Text.from_bytes(b"abc"), sample_rate=0)


# -- backward extension -----------------------------------------------------------

def test_single_symbol_interval_is_count_slice(demo_index):
    text, index = demo_index
    for code in range(text.alphabet.size):
        iv = index.backward_extend(index.full_interval(), code)
        assert (iv.lo, iv.hi) == (int(index._c[code]), int(index._c[code + 1]))
        assert iv.width == int(np.count_nonzero(text.data == code))


def test_extend_interval_examples(demo_index):
    text, index = demo_index
    iv = interval_of(index, text, b"GAT")
    assert iv.width == 2
    assert iv.depth == 3


def test_extend_by_out_of_alphabet_symbol_is_empty_not_error(demo_index):
    text, index = demo_index
    stats = QueryStats()
    iv = index.backward_extend(index.full_interval(), text.alphabet.size + 3,
                               stats)
    assert iv.width == 0
    assert stats.backward_steps == 1  # the failing step still counts


@given(st.lists(st.integers(0, 3), min_size=130, max_size=400))
@settings(max_examples=40, deadline=None)
def test_rank_equals_direct_count(codes):
    # 131+ BWT rows span at least three 64-row checkpoint blocks
    text = Text.from_bytes(bytes(b"acgt"[c] for c in codes))
    index = build_fm(text)
    bwt = index._bwt
    for c in range(text.alphabet.size):
        direct = np.concatenate(([0], np.cumsum(bwt == c)))
        assert [index.rank(c, k) for k in range(bwt.size + 1)] == direct.tolist()


# -- prefix search ------------------------------------------------------------------

def test_search_prefix_examples(demo_index):
    text, index = demo_index
    pattern = Pattern.from_bytes(DEMO_PATTERN, text.alphabet)
    matched, iv = index.backward_search_prefix(pattern, 4)
    assert (matched, iv.width) == (4, 1)  # TACA occurs once
    matched, iv = index.backward_search_prefix(pattern, 0)
    assert matched == 0
    assert (iv.lo, iv.hi) == (0, text.n + 1)


def test_search_prefix_of_reversed_pattern(demo_index):
    text, index = demo_index
    rev_text = text.reversed()
    rev_index = build_fm(rev_text, sample_rate=4)
    pattern = Pattern.from_bytes(DEMO_PATTERN, text.alphabet)
    matched, _ = rev_index.backward_search_prefix(pattern.data[::-1], 12)
    assert matched == 5  # longest pattern prefix occurring in the text


def test_search_prefix_length_out_of_range(demo_index):
    text, index = demo_index
    pattern = Pattern.from_bytes(b"GAT", text.alphabet)
    with pytest.raises(ValueError):
        index.backward_search_prefix(pattern, 4)


def test_step_accounting_is_matched_plus_failures(demo_index):
    text, index = demo_index
    # all symbols succeed: steps == matched
    stats = QueryStats()
    matched, _ = index.backward_search_prefix(encode(text, b"GAT"), 3, stats)
    assert matched == 3
    assert stats.backward_steps == 3
    # early stop: the emptying step is included
    stats = QueryStats()
    matched, _ = index.backward_search_prefix(encode(text, b"CGAT"), 4, stats)
    assert matched == 3  # GAT occurs, CGAT does not
    assert stats.backward_steps == 4


def test_matched_equals_longest_occurring_suffix_randomized():
    rng = np.random.default_rng(29)
    for _ in range(12):
        sigma = int(rng.choice([2, 4]))
        n = int(rng.integers(10, 2000))
        symbols = bytes(range(48, 48 + sigma))
        t_raw = bytes(symbols[c] for c in rng.integers(0, sigma, n))
        text = Text.from_bytes(t_raw)
        index = build_fm(text, sample_rate=7)
        present = text.alphabet.symbols
        for _ in range(120):
            qlen = int(rng.integers(1, 24))
            q_raw = bytes(present[c] for c in rng.integers(0, len(present), qlen))
            prefix_len = int(rng.integers(0, qlen + 1))
            matched, iv = index.backward_search_prefix(
                encode(text, q_raw), prefix_len)
            head = q_raw[:prefix_len]
            expect = 0
            for k in range(1, prefix_len + 1):
                if head[prefix_len - k:] in t_raw:
                    expect = k
                else:
                    break
            assert matched == expect
            if matched:
                occ = head[prefix_len - matched:]
                count = sum(1 for s in range(n) if t_raw[s:s + matched] == occ)
                assert iv.width == count


# -- locating ---------------------------------------------------------------------

def test_locate_examples(demo_index):
    text, index = demo_index
    assert index.locate_all(interval_of(index, text, b"GAT")) == [0, 5]
    assert index.locate_all(interval_of(index, text, DEMO_TEXT)) == [0]
    a_positions = index.locate_all(interval_of(index, text, b"A"))
    assert a_positions == [1, 4, 6, 8, 10]


def test_locate_matches_scan_at_all_sample_rates():
    rng = np.random.default_rng(31)
    t_raw = bytes(rng.integers(0, 3, 500) + ord("a"))
    text = Text.from_bytes(t_raw)
    # a rate beyond n degenerates to a single sampled row and long walks
    for rate, probes, min_qlen in ((1, 40, 1), (2, 40, 1), (5, 40, 1),
                                   (32, 40, 1), (1000, 5, 6)):
        index = build_fm(text, sample_rate=rate)
        for _ in range(probes):
            qlen = int(rng.integers(min_qlen, 8))
            start = int(rng.integers(0, len(t_raw) - qlen))
            q = t_raw[start : start + qlen]
            iv = interval_of(index, text, q)
            expect = [s for s in range(len(t_raw) - qlen + 1)
                      if t_raw[s:s + qlen] == q]
            assert index.locate_all(iv) == expect


def test_locate_empty_interval(demo_index):
    _, index = demo_index
    assert index.locate_all(BwtInterval(3, 3, 1)) == []


def test_locate_full_interval_excludes_sentinel_row(demo_index):
    text, index = demo_index
    assert index.locate_all(index.full_interval()) == list(range(text.n))


def test_locate_rejects_a_walk_past_the_text(demo_index):
    _, index = demo_index
    # the right sample values on the wrong rows: position 0's row claims 12
    samples = index._samples.copy()
    at_0, at_12 = np.flatnonzero(samples == 0), np.flatnonzero(samples == 12)
    samples[at_0], samples[at_12] = 12, 0
    broken = FmIndex(index.alphabet, index._bwt, index.s, index._marks, samples)
    with pytest.raises(IndexFormatError, match="past the text"):
        broken.locate_all(broken.full_interval())


# -- serialization -------------------------------------------------------------------

def test_save_load_round_trip_is_byte_exact(tmp_path, demo_index):
    _, index = demo_index
    path = tmp_path / "demo.memidx"
    index.save(path)
    reloaded = FmIndex.load(path)
    assert reloaded.to_bytes() == index.to_bytes()
    assert reloaded.n == index.n
    assert reloaded.alphabet == index.alphabet
    assert np.array_equal(reloaded._bwt, index._bwt)
    assert np.array_equal(reloaded._samples, index._samples)


def test_loaded_index_answers_queries(tmp_path):
    text = Text.from_bytes(b"abracadabra")
    index = build_fm(text, sample_rate=2)
    path = tmp_path / "x.memidx"
    index.save(path)
    reloaded = FmIndex.load(path)
    iv = interval_of(reloaded, text, b"abra")
    assert reloaded.locate_all(iv) == [0, 7]


def test_load_rejects_wrong_magic(tmp_path):
    path = tmp_path / "bad.memidx"
    path.write_bytes(b"NOTANIDX" + b"\x00" * 64)
    with pytest.raises(IndexFormatError, match="not a memlight index"):
        FmIndex.load(path)


def test_load_rejects_truncation(tmp_path, demo_index):
    _, index = demo_index
    data = index.to_bytes()
    path = tmp_path / "short.memidx"
    path.write_bytes(data[: len(data) // 2])
    with pytest.raises(IndexFormatError, match="truncated"):
        FmIndex.load(path)


def test_load_rejects_corruption(tmp_path, demo_index):
    _, index = demo_index
    data = bytearray(index.to_bytes())
    data[len(data) // 2] ^= 0x5A
    path = tmp_path / "corrupt.memidx"
    path.write_bytes(bytes(data))
    with pytest.raises(IndexFormatError, match="checksum"):
        FmIndex.load(path)


def reseal(data: bytes) -> bytes:
    body = data[:-4]
    return body + struct.pack("<I", zlib.crc32(body))


def test_load_rejects_resealed_wrong_sample(demo_index):
    _, index = demo_index
    data = bytearray(index.to_bytes())
    last_sample = len(data) - 4 - 8
    data[last_sample : last_sample + 8] = struct.pack("<q", 13)  # n is 12
    with pytest.raises(IndexFormatError, match="samples"):
        FmIndex.from_bytes(reseal(bytes(data)))


def test_load_rejects_resealed_bwt_without_sentinel(demo_index):
    _, index = demo_index
    data = bytearray(index.to_bytes())
    row = int(np.flatnonzero(index._bwt < 0)[0])
    at = 8 + 24 + index.alphabet.size + 2 * row  # magic, header, alphabet
    data[at : at + 2] = struct.pack("<h", 0)
    with pytest.raises(IndexFormatError, match="sentinel"):
        FmIndex.from_bytes(reseal(bytes(data)))


def test_load_rejects_old_format(demo_index):
    _, index = demo_index
    with pytest.raises(IndexFormatError, match="MEMLIDX1.*rebuild"):
        FmIndex.from_bytes(b"MEMLIDX1" + index.to_bytes()[8:])
