import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memlight import FingerprintLce, NaiveLce, Pattern, Text, build_alphabet

from conftest import ADVERSARIAL_PATTERN, DEMO_PATTERN, DEMO_TEXT


def both_backends(text, pattern, seed=0):
    return NaiveLce(text, pattern), FingerprintLce(text, pattern, seed=seed)


@pytest.fixture(scope="module")
def demo_pair():
    text = Text.from_bytes(DEMO_TEXT)
    return text, Pattern.from_bytes(DEMO_PATTERN, text.alphabet)


@pytest.mark.parametrize("i,j,expected", [
    (5, 4, 4),   # AGAT against AGATACAT
    (0, 7, 5),   # TACAT... against TACAT
    (11, 0, 1),  # final G against leading G
])
def test_forward_examples(demo_pair, i, j, expected):
    for backend in both_backends(*demo_pair):
        assert backend.lce_forward(i, j) == expected


@pytest.mark.parametrize("i,j,expected", [
    (4, 11, 5),  # TACAT as a suffix of the whole text
    (3, 10, 4),  # TACA against ...ATACA
    (5, 8, 3),   # ...ATA against ...GATA
])
def test_backward_examples(demo_pair, i, j, expected):
    for backend in both_backends(*demo_pair):
        assert backend.lce_backward(i, j) == expected


def test_self_match_runs_to_the_end():
    text = Text.from_bytes(DEMO_TEXT)
    pattern = Pattern.from_bytes(DEMO_TEXT, text.alphabet)
    for backend in both_backends(text, pattern):
        for i in range(pattern.m):
            assert backend.lce_forward(i, i) == pattern.m - i


def test_no_shared_symbols_extends_nothing():
    alphabet = build_alphabet(b"AB")
    text = Text(alphabet, alphabet.encode_bytes(b"AAAA"))
    pattern = Pattern.from_bytes(b"BBB", alphabet)
    for backend in both_backends(text, pattern):
        assert backend.lce_forward(0, 0) == 0
        assert backend.lce_backward(2, 3) == 0


@pytest.mark.parametrize("i,j", [(-1, 0), (0, -1), (12, 0), (0, 12), (100, 100)])
def test_out_of_range_positions_raise(demo_pair, i, j):
    for backend in both_backends(*demo_pair):
        with pytest.raises(ValueError):
            backend.lce_forward(i, j)
        with pytest.raises(ValueError):
            backend.lce_backward(i, j)


def test_same_seed_same_base():
    text = Text.from_bytes(DEMO_TEXT)
    pattern = Pattern.from_bytes(DEMO_PATTERN, text.alphabet)
    a = FingerprintLce(text, pattern, seed=99)
    b = FingerprintLce(text, pattern, seed=99)
    assert a.base == b.base
    assert a.text_fwd == b.text_fwd


def test_empty_substring_hashes_to_zero():
    text = Text.from_bytes(DEMO_TEXT)
    pattern = Pattern.from_bytes(DEMO_PATTERN, text.alphabet)
    lce = FingerprintLce(text, pattern, seed=1)
    assert lce.substring_hash(lce.text_fwd, 5, 5) == 0
    assert lce.substring_hash(lce.pat_rev, 0, 0) == 0


def test_fingerprint_matches_naive_randomized():
    rng = np.random.default_rng(13)
    for case in range(25):
        sigma = int(rng.choice([2, 4, 20]))
        n = int(rng.integers(4, 2000))
        m = int(rng.integers(1, 200))
        symbols = bytes(range(48, 48 + sigma))
        t_raw = bytes(symbols[c] for c in rng.integers(0, sigma, n))
        text = Text.from_bytes(t_raw)
        present = text.alphabet.symbols
        p_raw = bytes(present[c] for c in rng.integers(0, len(present), m))
        pattern = Pattern.from_bytes(p_raw, text.alphabet)
        naive, fingerprint = both_backends(text, pattern, seed=case)
        for _ in range(300):
            i = int(rng.integers(0, m))
            j = int(rng.integers(0, text.n))
            assert fingerprint.lce_forward(i, j) == naive.lce_forward(i, j)
            assert fingerprint.lce_backward(i, j) == naive.lce_backward(i, j)


def test_hash_comparisons_bounded_by_answer():
    rng = np.random.default_rng(17)
    t_raw = bytes(rng.integers(0, 2, 5000) + ord("0"))
    text = Text.from_bytes(t_raw)
    p_raw = t_raw[:800]
    pattern = Pattern.from_bytes(p_raw, text.alphabet)
    fingerprint = FingerprintLce(text, pattern, seed=2)
    for _ in range(2000):
        i = int(rng.integers(0, pattern.m))
        j = int(rng.integers(0, text.n))
        answer, comparisons = fingerprint.lce_forward_counted(i, j)
        assert comparisons <= 2 * math.ceil(math.log2(answer + 2)) + 2


def test_prefix_equality_is_downward_closed():
    # the binary search is sound only because equal length-k prefixes imply
    # equal shorter prefixes; check the set of equal lengths is a prefix
    rng = np.random.default_rng(23)
    t_raw = bytes(rng.integers(0, 2, 300) + ord("0"))
    text = Text.from_bytes(t_raw)
    pattern = Pattern.from_bytes(t_raw[10:200], text.alphabet)
    for _ in range(100):
        i = int(rng.integers(0, pattern.m))
        j = int(rng.integers(0, text.n))
        limit = min(pattern.m - i, text.n - j)
        equal = [k for k in range(1, limit + 1)
                 if pattern.data[i:i + k].tobytes() == text.data[j:j + k].tobytes()]
        assert equal == list(range(1, len(equal) + 1))


@given(st.binary(min_size=1, max_size=64), st.binary(min_size=1, max_size=64))
@settings(max_examples=100, deadline=None)
def test_fingerprint_equals_scan_on_all_positions(t_raw, p_extra):
    text = Text.from_bytes(t_raw)
    usable = bytes(b for b in p_extra if b in t_raw) or t_raw[:1]
    pattern = Pattern.from_bytes(usable, text.alphabet)
    naive, fingerprint = both_backends(text, pattern, seed=7)
    for i in range(pattern.m):
        for j in range(text.n):
            assert fingerprint.lce_forward(i, j) == naive.lce_forward(i, j)
