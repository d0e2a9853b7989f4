import random
import re
import struct
import tracemalloc
from functools import partial
from itertools import accumulate
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memlight import fm
from memlight import (Alphabet, BwtInterval, FingerprintLce, FmIndex, IndexFormatError,
                      IndexPair, NaiveLce, Pattern, QueryStats, SuffixArray, Text,
                      brute_force_mems, build_fm, build_suffix_structures,
                      compute_match_pointers, find_all_mems, find_in_raw, find_long_mems_fm,
                      find_long_mems_lce, invert_bwt)

from conftest import (ALPHABET_AT, DEMO_PATTERN, DEMO_TEXT, deflate, index_file, pack_rows,
                      pair_planes, paired_planes, payload_at, payload_of, payload_size, plane_size,
                      reseal, reseal_payload, set_plane_bit, with_stream)


@pytest.fixture(scope="module")
def demo_index():
    text = Text.from_bytes(DEMO_TEXT)
    return text, build_fm(text, sample_rate=4)


def encode(text, raw):
    return np.frombuffer(text.alphabet.encode_bytes(raw), dtype=np.uint8)


def interval_of(index, text, raw):
    matched, iv = index.backward_search_prefix(encode(text, raw), len(raw))
    assert matched == len(raw)
    return iv


def planes_of(bwt, sigma):
    """The bit planes of a BWT given as one code byte per row."""
    return [sum(1 << row for row, code in enumerate(bwt) if code >> j & 1)
            for j in range((sigma - 1).bit_length())]


def index_from_bwt(index, bwt, sample_rows):
    """An index like `index` with the BWT bytes and sample rows given, its
    planes in code order, parsed from the bytes of its file."""
    sigma = index.alphabet.size
    return FmIndex.from_bytes(index_file(index.alphabet, index.n, planes_of(bwt, sigma),
                                         bytes(range(sigma)), index.s, sample_rows))


# -- construction ---------------------------------------------------------------

def test_bwt_of_banana():
    text = Text.from_bytes(b"banana")
    index = build_fm(text)
    # codes a=0 b=1 n=2: "annb$aa", the sentinel's row holding the filler 0
    assert index._bwt == bytes([0, 2, 2, 1, 0, 0, 0])
    assert index.sentinel_row == 4


def test_bwt_of_single_symbol():
    index = build_fm(Text.from_bytes(b"a"))
    assert index._bwt == bytes([0, 0])
    assert index.sentinel_row == 1


@pytest.mark.parametrize("raw", [DEMO_TEXT, b"banana", b"abracadabra", b"zz"])
def test_inverting_the_bwt_recovers_the_text(raw):
    text = Text.from_bytes(raw)
    index = build_fm(text, sample_rate=3)
    assert bytes(invert_bwt(index)) == text.code_bytes


def test_build_rejects_bad_sample_rate():
    with pytest.raises(ValueError):
        build_fm(Text.from_bytes(b"abc"), sample_rate=0)


# -- single backward steps ---------------------------------------------------------

def test_single_symbol_interval_is_count_slice(demo_index):
    text, index = demo_index
    for code in range(text.alphabet.size):
        matched, iv = index.backward_search_prefix([code], 1)
        assert matched == 1
        assert (iv.lo, iv.hi) == (index._c[code], index._c[code + 1])
        assert iv.width == int(np.count_nonzero(text.data == code))


def test_extend_interval_examples(demo_index):
    text, index = demo_index
    matched, iv = index.backward_search_prefix(encode(text, b"GAT"), 3)
    assert iv.width == 2
    assert matched == 3


def test_search_by_out_of_alphabet_symbol_matches_nothing(demo_index):
    text, index = demo_index
    for code in (text.alphabet.size, text.alphabet.size + 3, -1):
        stats = QueryStats()
        matched, iv = index.backward_search_prefix([0, code], 2, stats)
        assert matched == 0
        assert (iv.lo, iv.hi) == (0, text.n + 1)
        assert stats.backward_steps == 1  # the failing step still counts


def direct_rank_table(index, code):
    """rank(code, k) for every k, counted over the BWT bytes minus the sentinel row."""
    hits = np.frombuffer(index._bwt, dtype=np.uint8) == code
    hits[index.sentinel_row] = False
    return np.concatenate(([0], np.cumsum(hits))).tolist()


@given(st.integers(1, 11), st.integers(1, 1500), st.integers(0, 2**32),
       st.integers(0, 3), st.sampled_from([None, "min", "max"]))
@settings(max_examples=60, deadline=None)
def test_rank_equals_direct_count(common, n, seed, singles, lead):
    # up to 11 symbols at skewed frequencies, the smallest the commonest, so
    # that many filler-like bytes lie around the sentinel row; `singles`
    # more symbols occur once each (the rows-counted checkpoint columns); a
    # unique smallest or largest first symbol puts the sentinel row in the
    # first or the last 256-row block
    rng = random.Random(seed)
    codes = rng.choices(range(1, common + 1), [4.0 ** -c for c in range(common)], k=n)
    for single in range(common + 1, common + 1 + singles):
        codes.insert(rng.randrange(len(codes) + 1), single)
    if lead:
        codes.insert(0, 0 if lead == "min" else common + singles + 1)
    text = Text.from_bytes(bytes(codes))
    index = build_fm(text)
    if lead:
        assert index.sentinel_row == (1 if lead == "min" else index.n)
    for c in range(text.alphabet.size):
        assert ([index.rank(c, k) for k in range(index.n + 2)]
                == direct_rank_table(index, c))
    # no bitmap holds the sentinel row or a row of the padding past n
    words, _ = index._rank
    for row in (index.sentinel_row, *range(index.n + 1, 256 * len(words[0]))):
        assert not any(word[row >> 8] >> (row & 255) & 1 for word in words)


@pytest.mark.parametrize("raw, row", [(b"a" * 600, 600), (b"a" * 344 + b"b" + b"a" * 255, 256),
                                      (b"a" * 88 + b"b" + b"a" * 511, 512),
                                      (b"ab" * 300, 300), (b"b" + b"a" * 599, 600)])
def test_rank_around_the_sentinel_row(raw, row):
    # k on both sides of the sentinel row, in its block and in the next;
    # a text of b"a" * k + b"b" + b"a" * m puts the row at m + 1, here on
    # a 256-row edge
    index = build_fm(Text.from_bytes(raw))
    assert index.sentinel_row == row
    table = direct_rank_table(index, 0)
    for k in range(max(0, row - 260), min(index.n + 1, row + 260) + 1):
        assert index.rank(0, k) == table[k]


@pytest.mark.parametrize("lead", [b"", b"A", b"z"])
@pytest.mark.parametrize("nrows", [64, 128, 256, 512, 4096])
def test_rank_search_and_locate_when_rows_fill_whole_words(nrows, lead):
    # n + 1 rows fill whole 256-row words, so hi = n + 1 lies in the padding
    # word, or a quarter or a half of the one word; a unique smallest or
    # largest first symbol puts the sentinel row in the first or the last word
    rng = random.Random(nrows)
    raw = lead + bytes(rng.choice(b"acgt") for _ in range(nrows - 1 - len(lead)))
    text = Text.from_bytes(raw)
    index = build_fm(text, sample_rate=5)
    assert len(index._rank[0][0]) == nrows // 256 + 1
    if lead:
        assert index.sentinel_row == (1 if lead == b"A" else nrows - 1)
    for c in range(text.alphabet.size):
        assert [index.rank(c, k) for k in range(nrows + 1)] == direct_rank_table(index, c)
    for start, length in ((0, 3), (nrows // 2, 4), (nrows - 6, 5)):
        probe = raw[start : start + length]
        expect = [s for s in range(len(raw) - length + 1) if raw[s : s + length] == probe]
        assert index.locate_all(interval_of(index, text, probe)) == expect
    assert index.locate_all(BwtInterval(0, nrows)) == list(range(nrows - 1))


@given(st.sampled_from([255, 256, 257, 511, 512, 513]), st.integers(1, 4),
       st.sampled_from([1, 3, fm.SAMPLE_RATE]), st.data())
@settings(max_examples=40, deadline=None)
def test_search_and_locate_at_word_edges_equal_a_naive_scan(nrows, sigma, rate, data):
    # n + 1 rows just below, on and just past one or two 256-row words; the
    # queries are text substrings, some with one symbol changed, searched
    # as bytes (from the k-mer table) and as a list (step by step)
    rng = random.Random(data.draw(st.integers(0, 2**32), label="seed"))
    raw = bytes(rng.choice(b"acgt"[:sigma]) for _ in range(nrows - 1))
    text = Text.from_bytes(raw)
    index = build_fm(text, sample_rate=rate)
    for _ in range(6):
        start = data.draw(st.integers(0, len(raw) - 1), label="start")
        query = bytearray(raw[start : start + data.draw(st.integers(1, 14), label="length")])
        if data.draw(st.booleans(), label="edit"):
            query[data.draw(st.integers(0, len(query) - 1), label="at")] = rng.choice(raw)
        codes = text.alphabet.encode_bytes(bytes(query))
        for form in (codes, list(codes)):
            matched, iv = index.backward_search_prefix(form, len(codes))
            # the longest suffix of the query that occurs in the text
            assert matched == max(length for length in range(1, len(query) + 1)
                                  if bytes(query[len(query) - length :]) in raw)
            suffix = bytes(query[len(query) - matched :])
            expect = [s for s in range(len(raw) - matched + 1)
                      if raw[s : s + matched] == suffix]
            assert iv.width == len(expect)
            assert index.locate_all(iv) == expect


def test_rank_search_and_locate_with_separator_symbol_zero():
    # --concat-sep joins records with bytes below every record byte, so code
    # 0 is a separator occurring once, beside the sentinel row's filler 0
    rng = random.Random(7)
    records = [bytes(rng.choice(b"ACGT") for _ in range(700)) for _ in range(3)]
    raw = records[0] + b"\x01" + records[1] + b"\x02" + records[2]
    text = Text.from_bytes(raw)
    index = build_fm(text, sample_rate=8, separators=b"\x01\x02")
    assert index._bwt.count(0) == 2
    for c in range(text.alphabet.size):
        assert [index.rank(c, k) for k in range(index.n + 2)] == direct_rank_table(index, c)
    assert index.locate_all(interval_of(index, text, b"\x01")) == [700]
    probe = raw[695:706]  # across the first separator
    assert index.locate_all(interval_of(index, text, probe)) == [695]
    assert index.locate_all(BwtInterval(0, index.n + 1)) == list(range(index.n))


# -- prefix search ------------------------------------------------------------------

def test_search_prefix_examples(demo_index):
    text, index = demo_index
    pattern = Pattern.from_bytes(DEMO_PATTERN, text.alphabet)
    matched, iv = index.backward_search_prefix(pattern.code_bytes, 4)
    assert (matched, iv.width) == (4, 1)  # TACA occurs once
    matched, iv = index.backward_search_prefix(pattern.code_bytes, 0)
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
        index.backward_search_prefix(pattern.code_bytes, 4)


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


def walk_by_rank(index, codes, prefix_len):
    """(matched, (lo, hi), steps) of a search made of single rank() steps."""
    lo, hi, matched = 0, index.n + 1, 0
    for sym in reversed(codes[:prefix_len]):
        if not 0 <= sym < index.alphabet.size:
            break
        new_lo = index._c[sym] + index.rank(sym, lo)
        new_hi = index._c[sym] + index.rank(sym, hi)
        if new_lo >= new_hi:
            break
        lo, hi, matched = new_lo, new_hi, matched + 1
    return matched, (lo, hi), matched + (matched < prefix_len)


def search(index, codes, prefix_len):
    stats = QueryStats()
    matched, iv = index.backward_search_prefix(codes, prefix_len, stats)
    assert 0 <= matched <= prefix_len and iv.width > 0
    return matched, (iv.lo, iv.hi), stats.backward_steps


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_search_from_the_kmer_table_equals_a_walk_by_rank(data):
    # the query is a text substring between random codes, some of them
    # separators or past the alphabet, so its k-mers both hit and miss
    sigma = data.draw(st.integers(1, 4), label="sigma")
    t_codes = data.draw(st.lists(st.integers(0, sigma - 1), min_size=1, max_size=400))
    text = Text.from_bytes(bytes(b"acgt"[c] for c in t_codes))
    size = text.alphabet.size
    separators = text.alphabet.symbols[:data.draw(st.integers(0, min(2, size - 1)))]
    index = build_fm(text, sample_rate=5, separators=separators)
    noise = st.binary(max_size=6).map(lambda b: bytes(x % (size + 2) for x in b))
    start = data.draw(st.integers(0, text.n - 1))
    core = text.code_bytes[start : start + data.draw(st.integers(0, 30))]
    query = data.draw(noise) + core + data.draw(noise)
    k, kmers = index._kmers
    assert (k > 0) == (size - len(separators) >= 2)
    assert all(len(key) == k for key in kmers)
    for prefix_len in range(len(query) + 1):
        expect = walk_by_rank(index, query, prefix_len)
        assert search(index, query, prefix_len) == expect
        assert search(index, list(query), prefix_len) == expect


def test_search_around_the_table_length(demo_index):
    text, index = demo_index
    k, kmers = index._kmers
    assert k == 5  # four symbols, 4^5 = 1024 possible k-mers
    query = text.code_bytes
    for prefix_len in (k - 1, k, k + 1):
        assert (query[prefix_len - k : prefix_len] in kmers) == (prefix_len >= k)
        assert search(index, query, prefix_len) == walk_by_rank(index, query, prefix_len)
        assert search(index, query, prefix_len)[0] == prefix_len


def test_search_of_a_kmer_absent_from_the_text(demo_index):
    text, index = demo_index
    query = encode(text, b"GATTAC").tobytes()
    assert query[1:] not in index._kmers[1]  # ATTAC is no substring of the text
    expect = walk_by_rank(index, query, 6)
    assert expect == (3, interval_of(index, text, b"TAC")[:2], 4)
    assert search(index, query, 6) == expect


@pytest.mark.parametrize("raw, separators", [(b"aaaa", b""), (b"a,a,a", b",")])
def test_one_symbol_text_has_no_kmer_table(raw, separators):
    index = build_fm(Text.from_bytes(raw), separators=separators)
    assert index._kmers == (0, {})
    query = index.alphabet.encode_bytes(raw)
    for prefix_len in range(len(query) + 1):
        assert search(index, query, prefix_len) == walk_by_rank(index, query, prefix_len)


def test_text_shorter_than_k_has_an_empty_table():
    index = build_fm(Text.from_bytes(b"ab"))
    assert index._kmers == (10, {})
    query = bytes([0, 1] * 6)
    for prefix_len in range(len(query) + 1):
        assert search(index, query, prefix_len) == walk_by_rank(index, query, prefix_len)


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
    assert index.locate_all(BwtInterval(3, 3)) == []


def test_locate_full_interval_excludes_sentinel_row(demo_index):
    text, index = demo_index
    assert index.locate_all(BwtInterval(0, text.n + 1)) == list(range(text.n))


def test_locate_rejects_a_walk_past_the_text(demo_index):
    _, index = demo_index
    # the right rows for the wrong positions: position 8's row claims 12,
    # so the rows that walk to it land past the text
    rows = list(index._sample_rows)
    rows[2], rows[3] = rows[3], rows[2]  # the rows of positions 8 and 12
    broken = index_from_bwt(index, index._bwt, rows)
    with pytest.raises(IndexFormatError, match="past the text"):
        broken.locate_all(BwtInterval(0, broken.n + 1))


def test_locate_stops_within_the_sample_rate(demo_index):
    # position 4's sample row replaced by position 5's, at s = 4: the file
    # loads, but the row of position 4 meets no sampled row in s - 1 = 3 LF
    # steps; a walk that went on would locate every row without a word,
    # position 6's row at 5
    _, index = demo_index
    row_of = {pos: row for row in range(index.n + 1)
              for pos in index.locate_all(BwtInterval(row, row + 1))}
    assert index.s == 4 and [row_of[pos] for pos in (0, 4, 8)] == list(index._sample_rows[:3])

    def edit(planes, rows):
        rows[1] = row_of[5]
    broken = FmIndex.from_bytes(reseal_payload(index.to_bytes(), edit))
    for interval in (BwtInterval(0, index.n + 1), BwtInterval(row_of[4], row_of[4] + 1)):
        with pytest.raises(IndexFormatError, match="^suffix-array samples are unreachable$"):
            broken.locate_all(interval)


def test_locate_stops_within_n_steps_at_a_rate_past_the_text():
    # banana's BWT with rows 0 and 1 swapped keeps its counts and its
    # sentinel row, so it loads, but its LF splits into two cycles; at rate
    # 2**62 the one sample is the sentinel's row, which the cycle without it
    # never meets, and the walk ends after n + 1 steps, not after s
    index = build_fm(Text.from_bytes(b"banana"))
    assert (index._bwt, index.sentinel_row) == (bytes([0, 2, 2, 1, 0, 0, 0]), 4)
    sigma = index.alphabet.size
    broken = FmIndex.from_bytes(index_file(index.alphabet, index.n,
                                           planes_of(bytes([2, 0, 2, 1, 0, 0, 0]), sigma),
                                           bytes(range(sigma)), 1 << 62, [index.sentinel_row]))
    assert broken.s == 1 << 62
    with pytest.raises(IndexFormatError, match="^suffix-array samples are unreachable$"):
        broken.locate_all(BwtInterval(0, broken.n + 1))


def walk_row_by_row(index, iv):
    """What locate_all answers, by one LF step at a time from FmIndex.rank:
    each row walks to a sampled row in at most min(s, n + 1) - 1 steps."""
    sampled = dict(zip(index._sample_rows, range(0, index.n + 1, index.s)))
    out = []
    for r in range(iv.lo, iv.hi):
        for steps in range(min(index.s, index.n + 1)):
            if r in sampled:
                break
            sym = index._bwt[r]
            r = index._c[sym] + index.rank(sym, r)
        else:
            raise IndexFormatError("suffix-array samples are unreachable")
        if sampled[r] + steps > index.n:
            raise IndexFormatError("suffix-array samples point past the text")
        out.append(sampled[r] + steps)
    return sorted(pos for pos in out if pos != index.n)


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_grouped_locate_equals_a_walk_row_by_row(data):
    # a repeat-rich text keeps the rows of a wide interval in one group for
    # many steps, a random one splits them soon; separators and the
    # sentinel's row are in no group's run, and every rate bounds the walks
    def dna(max_size):
        return st.binary(min_size=1, max_size=max_size).map(
            lambda b: bytes(b"ACGT"[x & 3] for x in b))
    if data.draw(st.booleans(), label="repeats"):
        raw = bytearray(data.draw(dna(12), label="unit") * data.draw(st.integers(2, 40)))
        for at in data.draw(st.lists(st.integers(0, len(raw) - 1), max_size=3), label="edits"):
            raw[at] = ord("G")
    else:
        raw = bytearray(data.draw(dna(300), label="text"))
    for at in data.draw(st.lists(st.integers(0, len(raw)), max_size=3), label="separators"):
        raw[at:at] = b"#"
    text = Text.from_bytes(bytes(raw))
    n = text.n
    rate = data.draw(st.sampled_from([1, 2, 3, 48, n + 1]) | st.integers(n + 2, 1 << 62),
                     label="sample rate")
    index = build_fm(text, sample_rate=rate, separators=b"#" if b"#" in raw else b"")
    sa, sentinel = naive_suffix_array(text.code_bytes), index.sentinel_row
    for _ in range(4):
        kind = data.draw(st.sampled_from(["random", "holds the sentinel's row", "substring"]))
        if kind == "substring":
            start = data.draw(st.integers(0, n - 1))
            size = data.draw(st.integers(1, min(8, n - start)))
            _, (lo, hi) = index.backward_search_prefix(text.code_bytes[start : start + size], size)
        elif kind == "random":
            lo = data.draw(st.integers(0, n + 1))
            hi = data.draw(st.integers(lo, n + 1))
        else:
            lo, hi = data.draw(st.integers(0, sentinel)), data.draw(st.integers(sentinel + 1, n + 1))
        iv = BwtInterval(lo, hi)
        assert index.locate_all(iv) == walk_row_by_row(index, iv) == sorted(
            sa[r] for r in range(lo, hi) if sa[r] != n)


def test_locate_of_a_group_raises_as_its_rows_do():
    # in a periodic text at s equal to the period, the rows of a context
    # that occurs only at multiples of s walk as one group; with the sample
    # rows of positions 16 and 32 moved to the rows of 17 and 33, those two
    # rows meet no sample in s - 1 steps, still in one group
    text = Text.from_bytes(b"TTT" + b"ACGTTGCA" * 8)
    index = build_fm(text, sample_rate=8)
    row_of = {pos: row for row in range(index.n + 1)
              for pos in index.locate_all(BwtInterval(row, row + 1))}
    group = interval_of(index, text, b"GCAACGT")
    assert index.locate_all(group) == list(range(8, 64, 8))
    assert not group.lo <= index.sentinel_row < group.hi

    def edit(planes, rows):
        rows[2], rows[4] = row_of[17], row_of[33]
    broken = FmIndex.from_bytes(reseal_payload(index.to_bytes(), edit))
    unreachable = "^suffix-array samples are unreachable$"
    for row in range(group.lo, group.hi):
        single = BwtInterval(row, row + 1)
        if row in (row_of[16], row_of[32]):
            with pytest.raises(IndexFormatError, match=unreachable):
                broken.locate_all(single)
        else:
            assert broken.locate_all(single) == index.locate_all(single)
    for locate in (broken.locate_all, partial(walk_row_by_row, broken)):
        with pytest.raises(IndexFormatError, match=unreachable):
            locate(group)


# -- serialization -------------------------------------------------------------------

def test_save_load_round_trip_is_byte_exact(tmp_path, demo_index):
    _, index = demo_index
    path = tmp_path / "demo.memidx"
    index.save(path)
    reloaded = FmIndex.load(path)
    assert reloaded.to_bytes() == index.to_bytes()
    assert reloaded.n == index.n
    assert reloaded.alphabet == index.alphabet
    assert reloaded._bwt == index._bwt
    assert reloaded.sentinel_row == index.sentinel_row
    assert reloaded._sample_rows == index._sample_rows
    assert reloaded.separators == index.separators == b""


@given(st.binary(min_size=1, max_size=300), st.integers(1, 40),
       st.integers(0, 3))
@settings(max_examples=60, deadline=None)
def test_save_load_save_is_the_identity(raw, rate, n_separators):
    text = Text.from_bytes(raw)
    separators = text.alphabet.symbols[:n_separators]
    data = build_fm(text, sample_rate=rate, separators=separators).to_bytes()
    reloaded = FmIndex.from_bytes(data)
    assert reloaded.to_bytes() == data
    assert reloaded.separators == separators


def naive_suffix_array(codes):
    """Rows in suffix order of text plus sentinel; row 0 is position n."""
    return sorted(range(len(codes) + 1), key=lambda i: codes[i:])


@given(st.lists(st.binary(min_size=1, max_size=60), min_size=1, max_size=4),
       st.integers(1, 40))
@settings(max_examples=60, deadline=None)
def test_build_equals_a_build_from_a_brute_force_suffix_array(records, rate):
    # records joined as `index --concat-sep` joins them; a rate past n
    # (the forward index's n + 1) samples text position 0 alone
    separator = bytes((min(set(range(256)).difference(*records)),))
    text = Text.from_bytes(separator.join(records))
    separators = separator if len(records) > 1 else b""
    naive = SuffixArray(text, sa=naive_suffix_array(text.code_bytes))
    for s in (rate, text.n, text.n + 1):
        assert (build_fm(text, s, separators=separators).to_bytes()
                == build_fm(text, s, sa=naive, separators=separators).to_bytes())


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_round_trip_keeps_the_bwt_rank_kmers_and_locate(data):
    # sigma 1 to 9 (powers of two, and others whose planes could spell
    # codes past the alphabet) or 256 (eight planes, k-mers of one symbol,
    # and no foreign byte without separators), with and without
    # separators, n + 1 rows on both sides of a multiple of 8 or 64
    sigma = data.draw(st.integers(1, 9) | st.just(256), label="sigma")
    nrows = data.draw(st.sampled_from([8 * k + d for k in (1, 2, 3) for d in (-1, 0, 1)]
                                      + [64 * k + d for k in (1, 2, 3) for d in (-1, 0, 1)])
                      | st.integers(2, 300), label="n + 1")
    n = max(nrows - 1, sigma)
    codes = list(range(sigma)) + data.draw(
        st.lists(st.integers(0, sigma - 1), min_size=n - sigma, max_size=n - sigma))
    codes = data.draw(st.permutations(codes))
    symbols = b"ACGTNacgt" if sigma < 256 else bytes(range(256))
    text = Text.from_bytes(bytes(symbols[c] for c in codes))
    separators = text.alphabet.symbols[:data.draw(st.integers(0, min(2, sigma)))]
    rate = data.draw(st.integers(1, 12), label="sample rate")
    index = build_fm(text, sample_rate=rate, separators=separators)
    saved = index.to_bytes()
    # the payload inflates to the planes and then the rows, byte by byte
    assert len(payload_of(saved)) == payload_size(n, sigma, rate)
    assert payload_of(saved) == (paired_planes(index._planes, index.n)
                                 + pack_rows(index._sample_rows))
    reloaded = FmIndex.from_bytes(saved)
    # load derives C alone: rank, BWT bytes, k-mers and positions wait for use
    assert not {"_rank", "_bwt", "_kmers", "_sampled"} & reloaded.__dict__.keys()
    sa = naive_suffix_array(text.code_bytes)
    bwt = bytes(text.code_bytes[i - 1] if i else 0 for i in sa)
    assert reloaded._bwt == index._bwt == bwt
    for c in range(sigma):
        hits = [code == c and i != 0 for code, i in zip(bwt, sa)]  # not the sentinel row
        assert [reloaded.rank(c, k) for k in range(n + 2)] == [0, *accumulate(hits)]
    cols = reloaded._rank[1]
    assert reloaded._c == [col[0] for col in cols] + [cols[-1][-1]]
    assert reloaded._kmers == index._kmers
    if sigma == 256:
        assert (len(reloaded._planes), reloaded._kmers[0]) == (8, 1)
    for _ in range(3):
        lo = data.draw(st.integers(0, n + 1))
        hi = data.draw(st.integers(lo, n + 1))
        assert reloaded.locate_all(BwtInterval(lo, hi)) == sorted(
            sa[r] for r in range(lo, hi) if sa[r] != n)
    assert invert_bwt(reloaded) == text.code_bytes
    # pieces of the text with random symbols between them, separators left out
    raw = text.to_raw()
    pattern = bytes(b for start, size, noise in data.draw(
        st.lists(st.tuples(st.integers(0, n), st.integers(0, 40),
                           st.lists(st.sampled_from(symbols[:sigma]), max_size=3)),
                 min_size=1, max_size=4), label="pattern pieces")
        for b in raw[start : start + size] + bytes(noise) if b not in separators)
    rev = build_fm(text.reversed(), sample_rate=rate, separators=separators)
    for min_len in (1, 5):
        expect = brute_force_mems(Pattern.from_bytes(pattern, text.alphabet), text, min_len)
        assert find_in_raw(pattern, IndexPair(reloaded, rev),
                           min_len).spans == [m.span for m in expect]


@given(st.integers(1, 7), st.integers(1, 3), st.integers(1500, 4000), st.integers(0, 2**32),
       st.sampled_from(["none", "rare", "common"]))
@settings(max_examples=40, deadline=None)
def test_symbols_numbered_by_frequency_keep_every_answer(common, rare, n, seed, separate):
    # 2 to 8 symbols, 1 to 3 of them occurring 1 to 5 times each, so that
    # they take the top numbers; the separator, if any, is a rare symbol
    # (as with --concat-sep) or a common one
    rare = min(rare, 8 - common)
    rng = random.Random(seed)
    symbols = rng.sample(range(256), common + rare)
    raw = rng.choices(symbols[:common], k=n)
    for symbol in symbols[common:]:
        for _ in range(rng.randint(1, 5)):
            raw.insert(rng.randrange(len(raw) + 1), symbol)
    raw = bytes(raw)
    text = Text.from_bytes(raw)
    sigma, n = text.alphabet.size, text.n
    separators = {"none": b"", "rare": bytes(symbols[-1:]),
                  "common": bytes(symbols[:1])}[separate]
    rate = rng.randint(1, 40)
    index = build_fm(text, sample_rate=rate, separators=separators)
    sa = naive_suffix_array(text.code_bytes)
    bwt = bytes(text.code_bytes[i - 1] if i else 0 for i in sa)
    # the same index with its planes in code order
    full = FmIndex.from_bytes(index_file(text.alphabet, n, planes_of(bwt, sigma),
                                         bytes(range(sigma)), rate, index._sample_rows,
                                         separators))
    counts = [bwt.count(c) - (c == 0) for c in range(sigma)]  # not the sentinel row
    assert list(index._order) == sorted(range(sigma), key=lambda c: (-counts[c], c))
    assert len(index._planes) == len(full._planes) == (sigma - 1).bit_length()
    saved = index.to_bytes()
    assert len(payload_of(saved)) == payload_size(n, sigma, rate)
    reloaded = FmIndex.from_bytes(saved)
    assert reloaded.to_bytes() == saved
    assert reloaded._bwt == index._bwt == full._bwt == bwt
    assert reloaded._c == index._c == full._c
    for c in range(sigma):
        assert [reloaded.rank(c, k) for k in range(n + 2)] == [
            full.rank(c, k) for k in range(n + 2)]
    assert reloaded._kmers == full._kmers
    for _ in range(5):
        lo = rng.randint(0, n + 1)
        hi = rng.randint(lo, min(lo + 60, n + 1))
        assert reloaded.locate_all(BwtInterval(lo, hi)) == full.locate_all(BwtInterval(lo, hi))
    # a mutated slice of the text, without separators, against the oracle
    rev = build_fm(text.reversed(), sample_rate=rate, separators=separators)
    kept = [symbol for symbol in symbols if symbol not in separators]
    start = rng.randrange(n)
    pattern = bytearray(raw[start : start + rng.randint(1, 120)])
    for k in range(len(pattern)):
        if rng.random() < 0.1:
            pattern[k] = rng.choice(kept)
    pattern = bytes(b for b in pattern if b not in separators) or bytes(kept[:1])
    sa_fwd = build_suffix_structures(text)
    for min_len in (1, 4, 12):
        expect = brute_force_mems(Pattern.from_bytes(pattern, text.alphabet), text,
                                  min_len, sa=sa_fwd)
        assert find_in_raw(pattern, IndexPair(reloaded, rev),
                           min_len).spans == [m.span for m in expect]


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
    # a foreign file, an empty one, one of 5 bytes, and the magic's first
    # seven bytes alone, which name no version
    for data in (b"NOTANIDX" + b"\x00" * 64, b"", b"MEMLI", b"MEMLIDX"):
        path.write_bytes(data)
        with pytest.raises(IndexFormatError, match="not a memlight index"):
            FmIndex.load(path)


def test_load_rejects_truncation(tmp_path, demo_index):
    _, index = demo_index
    data = index.to_bytes()
    path = tmp_path / "short.memidx"
    path.write_bytes(data[: len(data) // 2])
    with pytest.raises(IndexFormatError, match="truncated"):
        FmIndex.load(path)
    # the magic alone, files that end inside the header, and a header with
    # no room for a checksum after it
    header = struct.pack("<4Q", 300, 3, 1, 0)
    for end in range(len(header) + 4):
        path.write_bytes(b"MEMLIDXA" + (header + b"abc")[:end])
        with pytest.raises(IndexFormatError, match="^truncated index file$"):
            FmIndex.load(path)
    # files that end inside the alphabet or the order, or leave no room for
    # a checksum after them
    for end in range(2 * 3 + 4):
        path.write_bytes(b"MEMLIDXA" + header + (b"abc\0\1\2" + b"crc!")[:end])
        with pytest.raises(IndexFormatError, match="^truncated index file$"):
            FmIndex.load(path)
    # no length is stored: a file cut inside the payload or the checksum,
    # or one with a trailing byte, fails the checksum over what it holds
    for cut in (data[: payload_at(data) + 4], data[:-4], data[:-1], data + b"\0"):
        path.write_bytes(cut)
        with pytest.raises(IndexFormatError, match="^index checksum mismatch$"):
            FmIndex.load(path)


def test_load_rejects_corruption(tmp_path, demo_index):
    _, index = demo_index
    data = bytearray(index.to_bytes())
    data[payload_at(data)] ^= 0x5A  # the payload's first byte, past the header
    path = tmp_path / "corrupt.memidx"
    path.write_bytes(bytes(data))
    with pytest.raises(IndexFormatError, match="checksum"):
        FmIndex.load(path)


def test_load_rejects_resealed_wrong_sample(demo_index):
    # the first sample row (the sentinel's) or the last, one past the BWT
    _, index = demo_index
    for k in (0, -1):
        def edit(planes, rows):
            rows[k] = index.n + 1
        with pytest.raises(IndexFormatError, match="samples"):
            FmIndex.from_bytes(reseal_payload(index.to_bytes(), edit))


def order_offset(index):
    # magic, four header fields, alphabet, separators
    return ALPHABET_AT + index.alphabet.size + len(index.separators)


def test_load_rejects_resealed_positions_sharing_a_row(demo_index):
    # positions 4 and 8 both claim position 8's row
    _, index = demo_index

    def edit(planes, rows):
        rows[1] = rows[2]
    with pytest.raises(IndexFormatError, match="samples must be distinct"):
        FmIndex.from_bytes(reseal_payload(index.to_bytes(), edit))


def test_load_rejects_resealed_unsorted_alphabet(demo_index):
    _, index = demo_index
    data = bytearray(index.to_bytes())
    data[ALPHABET_AT], data[ALPHABET_AT + 1] = data[ALPHABET_AT + 1], data[ALPHABET_AT]
    with pytest.raises(IndexFormatError, match="distinct and ascending"):
        FmIndex.from_bytes(reseal(bytes(data)))


def test_load_rejects_resealed_sentinel_row_without_filler(demo_index):
    # a bit of either plane set at the sentinel row
    _, index = demo_index
    for plane in (0, 1):
        def edit(planes, rows):
            set_plane_bit(planes, index.n, plane, index.sentinel_row)
        with pytest.raises(IndexFormatError, match="filler byte 0"):
            FmIndex.from_bytes(reseal_payload(index.to_bytes(), edit))


def test_load_rejects_resealed_padding_bit(demo_index):
    # n + 1 = 13 rows leave bits 13 to 15 of each plane's last byte unused
    _, index = demo_index
    for plane, row in ((0, 13), (1, 15)):
        def edit(planes, rows):
            set_plane_bit(planes, index.n, plane, row)
        with pytest.raises(IndexFormatError, match="padding bits past row n"):
            FmIndex.from_bytes(reseal_payload(index.to_bytes(), edit))


def test_invert_rejects_a_walk_that_reaches_the_sentinel_early(demo_index):
    # two swapped BWT rows keep every count and every load check; the walk
    # from row 0 then closes a cycle through the sentinel row too soon
    _, index = demo_index
    bwt = bytearray(index._bwt)
    bwt[0], bwt[3] = bwt[3], bwt[0]
    swapped = index_from_bwt(index, bytes(bwt), index._sample_rows)
    with pytest.raises(IndexFormatError, match="sentinel before"):
        invert_bwt(swapped)


def test_load_rejects_resealed_sentinel_row_on_another_filler_row(demo_index):
    # the sentinel row is the first sample row: moved to row 3, which holds
    # a nonzero number, it fails the filler check at load; moved to row 10,
    # which also holds 0, the file loads as the index of a rotated text, and
    # only a locate (or the pair's scan) shows that the row was moved: some
    # row meets no sampled row within s - 1 steps
    _, index = demo_index
    assert (index.sentinel_row, index._bwt[3], index._bwt[10]) == (8, 1, 0)
    data = index.to_bytes()

    def moved_to(row):
        def edit(planes, rows):
            assert rows[0] == index.sentinel_row
            rows[0] = row
        return reseal_payload(data, edit)
    with pytest.raises(IndexFormatError, match="^the sentinel row must hold the filler byte 0$"):
        FmIndex.from_bytes(moved_to(3))
    moved = FmIndex.from_bytes(moved_to(10))
    assert moved.sentinel_row == 10
    with pytest.raises(IndexFormatError, match="^suffix-array samples are unreachable$"):
        moved.locate_all(BwtInterval(0, moved.n + 1))


def test_load_rejects_resealed_symbol_past_the_alphabet():
    # sigma = 3 takes two planes, which can also spell number 3; sigma = 5
    # takes three, which can also spell 5, 6 and 7
    index = build_fm(Text.from_bytes(b"banana"))
    assert index._bwt == bytes([0, 2, 2, 1, 0, 0, 0])
    assert index._order == bytes([0, 2, 1])  # "a", then "n", then "b"
    # rows 0 and n too, the first row and the last before the padding bits
    assert (index.sentinel_row, index.n) == (4, 6)
    cases = [(index, row, 3) for row in (0, 1, 3, 6)]  # a number 0, 1, 2 or 0 made 3
    index = build_fm(Text.from_bytes(b"abracadabra"))
    assert index._order == bytes([0, 1, 4, 2, 3])  # "a", "b", "r", "c", "d"
    row = next(r for r, code in enumerate(index._bwt)
               if code == 0 and r not in (0, index.sentinel_row))
    assert index.sentinel_row not in (0, index.n)
    assert index._bwt[index.n] == 1
    # the bits of 5, 6 or 7 set in a number 0 (rows 0 and `row`) or 1 (row n)
    cases += [(index, r, number) for r in (0, row, index.n) for number in (5, 6, 7)]
    for index, row, number in cases:
        def edit(planes, rows):
            for plane in range(len(index._planes)):
                if number >> plane & 1:
                    set_plane_bit(planes, index.n, plane, row)
        with pytest.raises(IndexFormatError, match="out of range"):
            FmIndex.from_bytes(reseal_payload(index.to_bytes(), edit))


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_split_by_ands_equals_a_decode_of_every_row(data):
    # random plane bits over rows 0 ... n, so that a row may hold a number
    # past the alphabet; only the sentinel's row is cleared, as load requires
    n, sigma = data.draw(st.integers(1, 256)), data.draw(st.integers(1, 256))
    sentinel_row = data.draw(st.integers(0, n))
    planes = [data.draw(st.integers(0, (1 << (n + 1)) - 1)) & ~(1 << sentinel_row)
              for _ in range((sigma - 1).bit_length())]
    numbers = [sum((plane >> row & 1) << j for j, plane in enumerate(planes))
               for row in range(n + 1)]
    expected = [sum(1 << row for row, number in enumerate(numbers)
                    if number == x and row != sentinel_row) for x in range(sigma)]
    alphabet = Alphabet(bytes(range(sigma)))
    fields = SimpleNamespace(n=n, sentinel_row=sentinel_row, _planes=planes, alphabet=alphabet)
    assert list(FmIndex._symbol_rows(fields)) == expected
    data = index_file(alphabet, n, planes, bytes(range(sigma)), n + 1, [sentinel_row])
    if any(number >= sigma for row, number in enumerate(numbers) if row != sentinel_row):
        with pytest.raises(IndexFormatError, match="^BWT symbols out of range for the alphabet$"):
            FmIndex.from_bytes(data)
    else:
        index = FmIndex.from_bytes(data)
        assert index._c == list(accumulate(map(int.bit_count, expected), initial=1))
        assert index.to_bytes() == data


def test_build_numbers_symbols_by_descending_count_ties_by_code():
    # "mississippi": "i" and "s" four times each, "p" twice, "m" once; "i"
    # has the lower code of the tie, so it takes number 0
    index = build_fm(Text.from_bytes(b"mississippi"))
    assert index.alphabet.symbols == b"imps"
    assert index._order == bytes([0, 3, 2, 1])
    # each row holds the number of its code: the planes spell the numbers
    numbers = [sum((plane >> row & 1) << j for j, plane in enumerate(index._planes))
               for row in range(index.n + 1)]
    assert bytes(index._order[number] for number in numbers) == index._bwt
    assert numbers[index.sentinel_row] == 0


def test_file_stores_the_order_after_the_separators():
    # the demo text counts A 5, T 4, G 2 and C 1 times; joined by two
    # separators of one occurrence each, ties broken by code
    raw = DEMO_TEXT[:4] + b"\x01" + DEMO_TEXT[4:8] + b"\x02" + DEMO_TEXT[8:]
    index = build_fm(Text.from_bytes(raw), sample_rate=4, separators=b"\x01\x02")
    assert index.alphabet.symbols == b"\x01\x02ACGT"
    assert index._order == bytes([2, 5, 4, 0, 1, 3])
    data = index.to_bytes()
    at = order_offset(index)
    assert data[at - 2 : at] == b"\x01\x02"
    assert data[at : at + 6] == index._order
    assert payload_at(data) == at + 6
    assert FmIndex.from_bytes(data)._order == index._order


@pytest.mark.parametrize("separators", [b"TA", b"AA", b"AZ"])
def test_load_rejects_separators_not_ascending_alphabet_bytes(demo_index, separators):
    # out of order, repeated, and a byte outside the alphabet ACGT
    _, index = demo_index
    data = index_file(index.alphabet, index.n, index._planes, index._order, index.s,
                      index._sample_rows, separators=separators)
    with pytest.raises(IndexFormatError,
                       match="^record separators must be distinct alphabet bytes, ascending$"):
        FmIndex.from_bytes(data)


@pytest.mark.parametrize("order", [b"\0\0\1\2", b"\0\1\2\4", b"\3\2\1\xff"])
def test_load_rejects_resealed_order_not_a_permutation(demo_index, order):
    # a repeated code, a code just past the alphabet of four, and one far past
    _, index = demo_index
    data = bytearray(index.to_bytes())
    at = order_offset(index)
    data[at : at + 4] = order
    with pytest.raises(IndexFormatError,
                       match="^the plane order is not a permutation of the alphabet codes$"):
        FmIndex.from_bytes(reseal(bytes(data)))


def test_stored_rows_take_the_bytes_that_n_needs():
    # a header alone names the size the payload must inflate to: P planes
    # of ceil((n + 1) / 8) bytes, then n // s + 1 rows of 4 bytes, up to
    # the largest text, of 2**31 - 1 symbols; the header has no field for it
    def saved(n, sigma, s):
        body = b"MEMLIDXA" + struct.pack("<4Q", n, sigma, s, 0) + bytes(2 * sigma)
        return reseal(body + deflate(b"") + bytes(4))

    def expected_size(n, sigma, s):
        with pytest.raises(IndexFormatError, match="does not inflate") as caught:
            FmIndex.from_bytes(saved(n, sigma, s))
        return int(str(caught.value).split(" bytes ")[0].rsplit(" ", 1)[1])

    for n in (12, 2**8, 2**24, 2**31 - 1):
        plane = (n >> 3) + 1
        assert expected_size(n, 2, 2**40) == plane + (n // 2**40 + 1) * 4
        assert expected_size(n, 5, 2**31) == 3 * plane + (n // 2**31 + 1) * 4
        assert expected_size(n, 5, 2**31) == payload_size(n, 5, 2**31)
    # a longer text is refused by the header alone, whatever the payload
    for n in (2**31, 2**32, 2**40):
        with pytest.raises(IndexFormatError, match=f"^a text of {n} symbols is too long: "
                                                   r"memlight indexes fewer than 2\*\*31$"):
            FmIndex.from_bytes(saved(n, 5, 2**31))


def test_load_rejects_old_format(demo_index):
    # the eighth byte is the version, compared as a byte
    _, index = demo_index
    for digit in b"123456789":
        magic = b"MEMLIDX" + bytes((digit,))
        with pytest.raises(IndexFormatError, match=magic.decode() + ".*rebuild"):
            FmIndex.from_bytes(magic + index.to_bytes()[8:])
    # a later version is not called old, and rebuilding would not help
    for magic, name in ((b"MEMLIDXB", "MEMLIDXB"), (b"MEMLIDXa", "MEMLIDXa"),
                        (b"MEMLIDX\xff", "MEMLIDX\\xff")):
        with pytest.raises(IndexFormatError,
                           match=f"^index is in the newer {re.escape(name)} format; "
                                 "it was written by a newer memlight$"):
            FmIndex.from_bytes(magic + index.to_bytes()[8:])


# -- the paired planes ------------------------------------------------------------------

@given(st.data())
@settings(max_examples=150, deadline=None)
def test_a_pair_stream_splits_into_its_two_planes(data):
    # n + 1 rows, n from 1 to a few thousand, on both sides of a multiple
    # of 4 and of 8, any bits, padding bits past row n included
    nrows = data.draw(st.sampled_from([8 * k + d for k in (1, 2, 3, 250) for d in range(-3, 4)])
                      | st.integers(2, 4000), label="n + 1")
    size = (nrows - 1 >> 3) + 1
    low, high = (data.draw(st.integers(0, (1 << 8 * size) - 1)) for _ in range(2))
    planes = low.to_bytes(size, "little") + high.to_bytes(size, "little")
    stream = bytes(pair_planes(planes, nrows - 1, 2))
    assert fm._split_pair(stream) == [low, high]


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_build_writes_the_payload_of_a_brute_force_bwt(data):
    # the payload that build_fm writes against one made row by row from a
    # brute-force suffix array: sigma 1 to 256, so odd and even plane
    # counts, n + 1 rows on both sides of a multiple of 4 and of 8, sample
    # rates 1 to 12 and n + 1, with and without separators
    sigma = data.draw(st.integers(1, 9) | st.integers(10, 256), label="sigma")
    nrows = data.draw(st.sampled_from([8 * k + d for k in (1, 2, 3, 33) for d in range(-3, 4)])
                      | st.integers(2, 300), label="n + 1")
    n = max(nrows - 1, sigma)
    codes = data.draw(st.permutations(list(range(sigma)) + data.draw(
        st.lists(st.integers(0, sigma - 1), min_size=n - sigma, max_size=n - sigma))))
    text = Text.from_bytes(bytes(codes))
    separators = text.alphabet.symbols[:data.draw(st.integers(0, min(2, sigma)))]
    rate = data.draw(st.sampled_from([*range(1, 13), n + 1]), label="sample rate")
    saved = build_fm(text, rate, separators=separators).to_bytes()
    sa = naive_suffix_array(text.code_bytes)
    bwt = [text.code_bytes[i - 1] if i else 0 for i in sa]
    counts = [bwt.count(c) - (c == 0) for c in range(sigma)]  # not the sentinel row
    order = sorted(range(sigma), key=lambda c: (-counts[c], c))
    numbers = [order.index(c) for c in bwt]
    numbers[sa.index(0)] = 0  # the sentinel's row
    size = (n >> 3) + 1
    planes = b"".join(plane.to_bytes(size, "little") for plane in planes_of(numbers, sigma))
    rows = [sa.index(k) for k in range(0, n + 1, rate)]
    count = (sigma - 1).bit_length()
    assert payload_of(saved) == bytes(pair_planes(planes, n, count)) + pack_rows(rows)
    at = payload_at(saved)
    assert saved[at - sigma - len(separators) : at] == separators + bytes(order)


def test_a_built_index_keeps_the_bytes_it_was_parsed_from(tmp_path, monkeypatch):
    parsed = []
    from_bytes = FmIndex.from_bytes.__func__

    def spy(cls, data):
        parsed.append(data)
        return from_bytes(cls, data)
    monkeypatch.setattr(FmIndex, "from_bytes", classmethod(spy))
    index = build_fm(Text.from_bytes(DEMO_TEXT), sample_rate=4)
    assert len(parsed) == 1 and index.to_bytes() == parsed[0]
    index.save(tmp_path / "demo.memidx")
    assert (tmp_path / "demo.memidx").read_bytes() == parsed[0]


def test_load_rejects_resealed_pair_field_past_row_n(demo_index):
    # n + 1 = 13 rows: the pair stream's last byte holds rows 12 to 15, so
    # its bits 2 to 7 are the fields of rows 13 to 15, past row n
    _, index = demo_index
    data = index.to_bytes()
    payload = bytearray(payload_of(data))
    assert plane_size(index.n, 4) == 4 and payload[3] >> 2 == 0
    for bit in range(2, 8):
        field = bytearray(payload)
        field[3] |= 1 << bit
        with pytest.raises(IndexFormatError, match="^BWT bit planes set padding bits past row n$"):
            FmIndex.from_bytes(with_stream(data, deflate(bytes(field))))


def test_every_alphabet_size_round_trips():
    rng = random.Random(5)
    for sigma in range(1, 257):
        raw = bytes(range(sigma)) + bytes(rng.choices(range(sigma), k=300))
        index = build_fm(Text.from_bytes(raw), sample_rate=5)
        data = index.to_bytes()
        reloaded = FmIndex.from_bytes(data)
        assert reloaded.to_bytes() == data
        assert reloaded._planes == index._planes


# -- the deflated payload --------------------------------------------------------------

def repetitive_text(rng, copies, length, rate, separator=b""):
    """Mutated copies of one random ACGT record, each symbol replaced with
    probability `rate`, joined by the separator."""
    record = rng.choices(b"ACGT", k=length)
    return separator.join(bytes(rng.choice(b"ACGT") if rng.random() < rate else b
                                for b in record) for _ in range(copies))


@pytest.fixture(scope="module")
def deflated_index():
    # 40 copies of a 500-symbol record: 2 planes of 2,501 bytes and 1,251
    # rows, which deflate to fewer bytes than the planes alone
    index = build_fm(Text.from_bytes(repetitive_text(random.Random(9), 40, 500, 0.01)),
                     sample_rate=16)
    data = index.to_bytes()
    assert len(index._planes) == 2
    assert len(data) - payload_at(data) - 4 < plane_size(index.n, 4) == 5002
    return index, data


def test_deflated_planes_load_back(deflated_index):
    index, data = deflated_index
    assert payload_of(data) == (paired_planes(index._planes, index.n)
                                + pack_rows(index._sample_rows))
    reloaded = FmIndex.from_bytes(data)
    assert reloaded._planes == index._planes
    assert reloaded._sample_rows == index._sample_rows
    assert reloaded.to_bytes() == data


def test_load_rejects_resealed_flipped_stream_byte(deflated_index):
    index, data = deflated_index
    at = payload_at(data)
    flipped = bytearray(data)
    flipped[at + 5] ^= 0xFF
    with pytest.raises(IndexFormatError, match="^index payload stream is corrupt$"):
        FmIndex.from_bytes(reseal(bytes(flipped)))
    # any flipped byte either loads or is a format error, never a zlib.error
    for k in range(len(data) - at - 4):
        flipped = bytearray(data)
        flipped[at + k] ^= 0xFF
        try:
            FmIndex.from_bytes(reseal(bytes(flipped)))
        except IndexFormatError:
            pass


def test_load_rejects_resealed_stream_past_the_planes(deflated_index):
    # a stream of the payload and a million bytes more is inflated no
    # further than the payload's size
    index, data = deflated_index
    stream = deflate(payload_of(data) + bytes(1 << 20))
    resealed = with_stream(data, stream)
    tracemalloc.start()
    try:
        with pytest.raises(IndexFormatError,
                           match="^index payload does not inflate to the 10006 bytes "
                                 "the header implies$"):
            FmIndex.from_bytes(resealed)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 18


def test_load_rejects_resealed_stream_ending_short(deflated_index):
    # the payload but its last byte, in a whole stream and in a cut one
    index, data = deflated_index
    payload = payload_of(data)
    for stream in (deflate(payload[:-1]), deflate(payload)[:-3]):
        with pytest.raises(IndexFormatError, match="^index payload does not inflate"):
            FmIndex.from_bytes(with_stream(data, stream))


def test_load_rejects_resealed_payload_a_row_short_or_a_byte_long(deflated_index, demo_index):
    # a payload that holds one sample row too few, or one byte more than
    # its planes and rows; also for the demo index, whose one row per
    # byte position makes a row short mean 4 bytes short
    for index in (deflated_index[0], demo_index[1]):
        def drop_a_row(planes, rows):
            del rows[-1]

        def add_a_byte(planes, rows):
            planes.append(0)
        for edit in (drop_a_row, add_a_byte):
            with pytest.raises(IndexFormatError, match="^index payload does not inflate"):
                FmIndex.from_bytes(reseal_payload(index.to_bytes(), edit))


def test_load_rejects_resealed_bytes_after_the_stream(deflated_index):
    index, data = deflated_index
    stream = data[payload_at(data) : -4]
    with pytest.raises(IndexFormatError, match="^index payload stream has trailing bytes$"):
        FmIndex.from_bytes(with_stream(data, stream + b"\0\0"))


@pytest.mark.parametrize("raw", [b"a" * 50, b"a"])
def test_one_symbol_stores_no_planes(raw):
    # sigma = 1 has no planes: the payload holds the sample rows alone
    index = build_fm(Text.from_bytes(raw), sample_rate=4)
    assert (len(index._planes), index._order) == (0, b"\0")
    data = index.to_bytes()
    assert payload_of(data) == pack_rows(index._sample_rows)
    assert len(payload_of(data)) == payload_size(index.n, 1, 4)
    reloaded = FmIndex.from_bytes(data)
    assert reloaded.to_bytes() == data
    assert reloaded._bwt == index._bwt


@given(st.integers(0, 2**32), st.integers(4, 12), st.integers(200, 600),
       st.sampled_from([0.0, 0.002, 0.01]), st.integers(1, 40))
@settings(max_examples=30, deadline=None)
def test_repetitive_records_deflate_and_keep_every_answer(seed, copies, length, rate, sample):
    rng = random.Random(seed)
    raw = repetitive_text(rng, copies, length, rate, b"#")
    text = Text.from_bytes(raw)
    fwd = build_fm(text, sample_rate=sample, separators=b"#")
    rev = build_fm(text.reversed(), sample_rate=sample, separators=b"#")
    loaded = []
    for index in (fwd, rev):
        saved = index.to_bytes()
        # the separator, code 0, is the rarest symbol and takes the top number
        assert index._order[-1] == 0
        # the payload deflates: its stream is shorter than the planes and
        # rows it holds
        assert len(saved) - payload_at(saved) - 4 < payload_size(text.n, 5, sample)
        reloaded = FmIndex.from_bytes(saved)
        assert reloaded.to_bytes() == saved
        assert reloaded._bwt == index._bwt
        for c in range(5):
            assert [reloaded.rank(c, k) for k in range(text.n + 2)] == [
                index.rank(c, k) for k in range(text.n + 2)]
        assert reloaded._kmers == index._kmers
        for _ in range(3):
            lo = rng.randint(0, text.n + 1)
            hi = rng.randint(lo, min(lo + 40, text.n + 1))
            assert reloaded.locate_all(BwtInterval(lo, hi)) == index.locate_all(BwtInterval(lo, hi))
        loaded.append(reloaded)
    # a mutated slice of one record, against the oracle
    start = rng.randrange(text.n)
    pattern = bytearray(raw[start : start + rng.randint(1, 150)].replace(b"#", b""))
    for k in range(len(pattern)):
        if rng.random() < 0.05:
            pattern[k] = rng.choice(b"ACGT")
    pattern = bytes(pattern) or b"A"
    sa = build_suffix_structures(text)
    for min_len in (1, 5):
        expect = brute_force_mems(Pattern.from_bytes(pattern, text.alphabet), text,
                                  min_len, sa=sa)
        assert find_in_raw(pattern, IndexPair(*loaded),
                           min_len).spans == [m.span for m in expect]


# -- agreement with the oracle --------------------------------------------------------

# pattern symbols all occur in the text: patterns reach the finders split on
# foreign bytes, and compute_match_pointers requires it
@given(st.integers(1, 4).flatmap(
    lambda sigma: st.lists(st.integers(0, sigma - 1), min_size=1, max_size=60)).flatmap(
    lambda t_codes: st.tuples(st.just(t_codes), st.lists(
        st.sampled_from(sorted(set(t_codes))), min_size=1, max_size=40))))
@settings(max_examples=80, deadline=None)
def test_thresholded_fm_finder_equals_oracle_for_every_length(case):
    t_codes, p_codes = case
    text = Text.from_bytes(bytes(b"acgt"[c] for c in t_codes))
    pattern = Pattern.from_bytes(bytes(b"acgt"[c] for c in p_codes), text.alphabet)
    fwd, rev = build_fm(text, sample_rate=3), build_fm(text.reversed(), sample_rate=3)
    sa = build_suffix_structures(text)
    pointers = compute_match_pointers(pattern, text, sa,
                                      build_suffix_structures(text.reversed()))
    backends = (NaiveLce(text, pattern), FingerprintLce(text, pattern, seed=5))
    for lce in backends:
        assert find_all_mems(pattern, pointers, lce).spans == [
            m.span for m in brute_force_mems(pattern, text, 1, sa=sa)]
    for min_len in range(1, pattern.m + 2):
        expect = [m.span for m in brute_force_mems(pattern, text, min_len, sa=sa)]
        assert find_long_mems_fm(pattern, fwd, rev, min_len).spans == expect
        for lce in backends:
            assert find_long_mems_lce(pattern, pointers, lce, min_len).spans == expect
