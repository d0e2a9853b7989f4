from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memlight import (Alphabet, Pattern, SuffixArray, Text, brute_force_mems, build_fm,
                      build_suffix_structures, compute_match_pointers)

from conftest import (ADVERSARIAL_BACKWARD_1BASED, DEMO_ALL_SPANS_1BASED,
                      DEMO_BACKWARD_1BASED, DEMO_FORWARD_1BASED,
                      DEMO_LONG_SPANS_1BASED, make_bench)


def spans_1based(mems):
    return [(m.start + 1, m.start + m.length) for m in mems]


# -- suffix array construction ------------------------------------------------

@pytest.mark.parametrize("raw,expected_sa", [
    (b"banana", [6, 5, 3, 1, 0, 4, 2]),
    (b"aaaa", [4, 3, 2, 1, 0]),
    (b"b", [1, 0]),
    (b"ab", [2, 0, 1]),
    (b"ba", [2, 1, 0]),
    # all-equal texts around the 57 symbols that the packed first key holds
    # for them beside a 6-bit position, and where the position widens to 7
    *[(b"a" * n, list(range(n, -1, -1))) for n in (56, 57, 58, 63, 64, 500)],
])
def test_suffix_array_known_values(raw, expected_sa):
    sa = build_suffix_structures(Text.from_bytes(raw))
    assert sa.sa.tolist() == expected_sa


LIMIT_MESSAGE = "^a text of {} symbols is too long: memlight indexes fewer than 2\\*\\*31$"


@pytest.mark.parametrize("n", [2**31, 2**31 + 1, 2**40])
def test_a_text_of_2_31_symbols_or_more_is_refused_before_sorting(n):
    # a stand-in that holds only its length: the guard must not read or
    # allocate anything the size of the text
    stub = SimpleNamespace(n=n)
    with pytest.raises(ValueError, match=LIMIT_MESSAGE.format(n)):
        SuffixArray(stub)
    with pytest.raises(ValueError, match=LIMIT_MESSAGE.format(n)):
        build_fm(stub, sample_rate=32)


def brute_force_order(text):
    # sentinel sorts before everything, so rank suffixes by (bytes, -pos)
    codes = text.code_bytes
    return sorted(range(text.n + 1), key=lambda p: (codes[p:], -p))


@given(st.binary(min_size=1, max_size=500))
@settings(max_examples=60, deadline=None)
def test_suffix_array_matches_brute_force_sort(raw):
    text = Text.from_bytes(raw)
    sa = build_suffix_structures(text)
    assert sa.sa.tolist() == brute_force_order(text)


@given(st.binary(min_size=1, max_size=5), st.integers(1, 300),
       st.integers(0, 300), st.binary(max_size=1))
@settings(max_examples=80, deadline=None)
def test_suffix_array_periodic_texts(period, length, at, change):
    # long repeats need many doubling rounds; `change` may break the period once
    raw = bytearray((period * length)[:length])
    raw[at % length : at % length + len(change)] = change
    text = Text.from_bytes(bytes(raw))
    assert build_suffix_structures(text).sa.tolist() == brute_force_order(text)


@given(st.permutations(range(256)), st.binary(max_size=150))
@settings(max_examples=30, deadline=None)
def test_suffix_array_full_byte_alphabet(symbols, tail):
    # code 255 present: the packed first key holds the fewest symbols
    text = Text.from_bytes(bytes(symbols) + tail + tail)
    assert text.alphabet.size == 256
    assert build_suffix_structures(text).sa.tolist() == brute_force_order(text)


def packed_symbols(n, sigma):
    """The symbols the first sort key holds for a text of n symbols over
    sigma codes: as many as fit, as one number in base sigma + 1, in the
    63 bits left beside a position of bit_length(n) bits."""
    room, h = 1 << (63 - n.bit_length()), 1
    while (sigma + 1) ** (h + 1) <= room:
        h += 1
    return h


# (n, sigma) with n one below, at or one above the symbols the key holds
KEY_BOUNDARIES = [(n, sigma) for sigma in (1, 2, 4, 5, 256) for n in range(1, 80)
                  if abs(n - packed_symbols(n, sigma)) <= 1]


def test_key_boundaries_cover_every_alphabet():
    assert [sigma for _, sigma in KEY_BOUNDARIES] == [s for s in (1, 2, 4, 5, 256) for _ in "abc"]
    assert [n for n, sigma in KEY_BOUNDARIES if sigma in (1, 256)] == [56, 57, 58, 6, 7, 8]


@pytest.mark.parametrize("n,sigma", KEY_BOUNDARIES)
@pytest.mark.parametrize("shape", ["equal", "periodic"])
def test_suffix_array_around_the_first_key_length(n, sigma, shape):
    # the top code makes the key's base sigma + 1, as in a text that uses it
    top = sigma - 1
    codes = bytes(top if shape == "equal" else (top - i) % sigma for i in range(n))
    text = Text(Alphabet(bytes(range(sigma))), codes)
    assert build_suffix_structures(text).sa.tolist() == brute_force_order(text)


@pytest.mark.parametrize("k", range(1, 11))
@pytest.mark.parametrize("shape", ["random", "periodic"])
def test_suffix_array_where_the_position_widens(k, shape):
    # the position field takes bit_length(n) bits, one more from n = 2**k on
    rng = np.random.default_rng(k)
    for n in (2**k - 1, 2**k, 2**k + 1):
        raw = (bytes(rng.integers(65, 69, n, dtype=np.uint8)) if shape == "random"
               else (b"ACA" * n)[:n])
        text = Text.from_bytes(raw)
        assert build_suffix_structures(text).sa.tolist() == brute_force_order(text)


def test_suffix_array_long_internal_copy():
    rng = np.random.default_rng(2024)
    raw = bytearray(b"ab"[c] for c in rng.integers(0, 2, 20_000))
    raw[12_000:17_000] = raw[3_000:8_000]
    text = Text.from_bytes(bytes(raw))
    sa = build_suffix_structures(text).sa.tolist()
    assert sorted(sa) == list(range(text.n + 1))
    # as sentinel-terminated strings, a proper prefix sorts first
    codes = text.code_bytes
    assert all(codes[a:] < codes[b:] for a, b in zip(sa, sa[1:]))


# -- searches over suffix order ----------------------------------------------------

def edited_cut(data, tb):
    """A substring of tb with up to three codes replaced, inserted or deleted."""
    i = data.draw(st.integers(0, len(tb)))
    q = bytearray(tb[i : data.draw(st.integers(i, len(tb)))])
    for _ in range(data.draw(st.integers(0, 3))):
        at, code = data.draw(st.integers(0, len(q))), data.draw(st.integers(0, 4))
        edit = data.draw(st.sampled_from(["replace", "insert", "delete"]))
        if edit == "insert" or at == len(q):
            q.insert(at, code)
        elif edit == "replace":
            q[at] = code
        else:
            del q[at]
    return bytes(q)


def just_after_row_0(data, tb):
    """A prefix of the smallest nonempty suffix, its last code lowered if it can be."""
    q = bytearray(min(tb[p:] for p in range(len(tb)))[: data.draw(st.integers(1, len(tb)))])
    if q[-1] > 0 and data.draw(st.booleans()):
        q[-1] -= 1
    return bytes(q)


def with_absent_code(data, tb):
    """An edited cut with a code the text lacks inserted."""
    q = edited_cut(data, tb)
    at = data.draw(st.integers(0, len(q)))
    absent = data.draw(st.sampled_from([c for c in range(5) if c not in tb]))
    return q[:at] + bytes([absent]) + q[at:]


QUERIES = {
    "edited cut": edited_cut,
    "empty": lambda data, tb: b"",
    "longer than the text": lambda data, tb: tb + edited_cut(data, tb) + b"\x00",
    "a code the text lacks": with_absent_code,
    "just after row 0": just_after_row_0,
}


@given(st.integers(1, 4), st.integers(1, 60), st.booleans(), st.data())
@settings(max_examples=150, deadline=None)
def test_searches_equal_a_naive_scan(sigma, n, periodic, data):
    # codes from `low` up; the alphabet's code 4 never occurs in the text
    low = data.draw(st.integers(0, 4 - sigma))
    symbols = st.integers(low, low + sigma - 1)
    if periodic:
        codes = data.draw(st.lists(symbols, min_size=1, max_size=5)) * n
    else:
        codes = data.draw(st.lists(symbols, min_size=n, max_size=n))
    tb = bytes(codes[:n])
    sa = SuffixArray(Text(Alphabet(bytes(range(5))), tb))
    for kind in data.draw(st.lists(st.sampled_from(sorted(QUERIES)), min_size=5, max_size=5)):
        q = QUERIES[kind](data, tb)
        lengths = [naive_lcp(q, tb[p:]) for p in range(n)]
        best = max(lengths)
        assert sa.longest_prefix_match(q) == best, kind
        if q:
            assert sa.occurrences(q) == [p for p in range(n) if tb.startswith(q, p)], kind
        else:
            with pytest.raises(ValueError, match="^empty query$"):
                sa.occurrences(q)
        if best:
            at = [p for p in range(n) if lengths[p] == best]
            assert sa.best_match_position(q, "min") == (best, at[0]), kind
            assert sa.best_match_position(q, "max") == (best, at[-1]), kind
        else:
            with pytest.raises(ValueError, match="^no symbol of the query occurs"):
                sa.best_match_position(q)


# -- match pointers ------------------------------------------------------------

def test_match_pointers_demo_values(demo_bench):
    mp = demo_bench.pointers
    assert (mp.forward + 1).tolist() == DEMO_FORWARD_1BASED
    assert (mp.backward + 1).tolist() == DEMO_BACKWARD_1BASED


def test_match_pointers_adversarial_backward(adversarial_bench):
    mp = adversarial_bench.pointers
    assert (mp.backward + 1).tolist() == ADVERSARIAL_BACKWARD_1BASED
    # no two consecutive backward pointers are successive positions here
    diffs = np.diff(mp.backward)
    assert (diffs != 1).all()


def test_match_pointers_self_match_identity():
    # with all-distinct symbols each suffix is its own unique best match
    bench = make_bench(b"ABCDEFG", b"ABCDEFG")
    assert bench.pointers.forward.tolist() == list(range(7))


def test_match_pointers_self_match_lengths():
    # pattern == text: the best forward extension at i covers the whole suffix
    bench = make_bench(b"GATTAGATACAT", b"GATTAGATACAT")
    lce = bench.naive_lce()
    m = bench.pattern.m
    for i in range(m):
        assert lce.lce_forward(i, int(bench.pointers.forward[i])) == m - i


def test_match_pointers_reject_absent_symbol():
    # alphabet shared with a superset text; 'G' never occurs in this text
    big = Text.from_bytes(b"ACGT")
    text = Text(big.alphabet, big.alphabet.encode_bytes(b"ACACAC"))
    pattern = Pattern.from_bytes(b"AG", big.alphabet)
    sa_f = build_suffix_structures(text)
    sa_r = build_suffix_structures(text.reversed())
    with pytest.raises(ValueError, match="split"):
        compute_match_pointers(pattern, text, sa_f, sa_r)


def naive_lcp(a: bytes, b: bytes) -> int:
    k = 0
    while k < min(len(a), len(b)) and a[k] == b[k]:
        k += 1
    return k


def test_match_pointers_are_optimal_everywhere():
    rng = np.random.default_rng(11)
    for _ in range(15):
        sigma = int(rng.choice([2, 4]))
        n = int(rng.integers(10, 200))
        m = int(rng.integers(1, 40))
        symbols = bytes(range(65, 65 + sigma))
        t_raw = bytes(symbols[c] for c in rng.integers(0, sigma, n))
        text = Text.from_bytes(t_raw)
        p_raw = bytes(sorted(set(t_raw))[c] for c in
                      rng.integers(0, len(set(t_raw)), m))
        bench_text = text
        pattern = Pattern.from_bytes(p_raw, text.alphabet)
        sa_f = build_suffix_structures(text)
        sa_r = build_suffix_structures(text.reversed())
        mp = compute_match_pointers(pattern, bench_text, sa_f, sa_r)
        tb, pb = t_raw, p_raw
        for i in range(m):
            best = naive_lcp(pb[i:], tb[int(mp.forward[i]):])
            assert all(naive_lcp(pb[i:], tb[j:]) <= best for j in range(n))
            rb_best = naive_lcp(pb[: i + 1][::-1], tb[: int(mp.backward[i]) + 1][::-1])
            assert all(
                naive_lcp(pb[: i + 1][::-1], tb[: j + 1][::-1]) <= rb_best
                for j in range(n)
            )


# -- brute-force oracle --------------------------------------------------------

def test_brute_force_demo_values(demo_bench):
    all_mems = brute_force_mems(demo_bench.pattern, demo_bench.text, 1,
                                sa=demo_bench.sa_fwd)
    assert spans_1based(all_mems) == DEMO_ALL_SPANS_1BASED
    long_mems = brute_force_mems(demo_bench.pattern, demo_bench.text, 4,
                                 sa=demo_bench.sa_fwd)
    assert spans_1based(long_mems) == DEMO_LONG_SPANS_1BASED


def test_brute_force_definition_on_tiny_cases():
    # independent quadratic check straight from the definition
    rng = np.random.default_rng(3)
    for _ in range(40):
        sigma = int(rng.choice([2, 3]))
        n = int(rng.integers(4, 40))
        m = int(rng.integers(1, 15))
        symbols = bytes(range(97, 97 + sigma))
        t_raw = bytes(symbols[c] for c in rng.integers(0, sigma, n))
        present = bytes(sorted(set(t_raw)))
        p_raw = bytes(present[c] for c in rng.integers(0, len(present), m))
        text = Text.from_bytes(t_raw)
        pattern = Pattern.from_bytes(p_raw, text.alphabet)
        expected = []
        for i in range(m):
            for j in range(i, m):
                sub = p_raw[i : j + 1]
                if sub not in t_raw:
                    continue
                left_ok = i == 0 or p_raw[i - 1 : j + 1] not in t_raw
                right_ok = j == m - 1 or p_raw[i : j + 2] not in t_raw
                if left_ok and right_ok:
                    expected.append((i, j - i + 1))
        got = [mem.span for mem in brute_force_mems(pattern, text, 1)]
        assert got == sorted(expected)


def test_brute_force_mems_never_nest_and_occur():
    rng = np.random.default_rng(5)
    for _ in range(20):
        sigma = int(rng.choice([2, 4, 20]))
        n = int(rng.integers(20, 800))
        m = int(rng.integers(1, 100))
        symbols = bytes(range(48, 48 + sigma))
        t_raw = bytes(symbols[c] for c in rng.integers(0, sigma, n))
        present = bytes(sorted(set(t_raw)))
        p_raw = bytes(present[c] for c in rng.integers(0, len(present), m))
        text = Text.from_bytes(t_raw)
        pattern = Pattern.from_bytes(p_raw, text.alphabet)
        mems = brute_force_mems(pattern, text, 1)
        starts = [mem.start for mem in mems]
        ends = [mem.end for mem in mems]
        assert starts == sorted(set(starts))
        assert ends == sorted(set(ends))
        for mem in mems:
            sub = p_raw[mem.start : mem.end]
            assert sub in t_raw
            assert mem.occurrences
            for pos in mem.occurrences:
                assert t_raw[pos : pos + mem.length] == sub
            if mem.start > 0:
                assert p_raw[mem.start - 1 : mem.end] not in t_raw
            if mem.end < m:
                assert p_raw[mem.start : mem.end + 1] not in t_raw


def test_brute_force_threshold_equals_filtered(demo_bench):
    base = brute_force_mems(demo_bench.pattern, demo_bench.text, 1,
                            sa=demo_bench.sa_fwd)
    for min_len in (1, 2, 3, 4, 5, 6, 7):
        filtered = [mem.span for mem in base if mem.length >= min_len]
        direct = brute_force_mems(demo_bench.pattern, demo_bench.text, min_len,
                                  sa=demo_bench.sa_fwd)
        assert [mem.span for mem in direct] == filtered


def _absent_symbol_query(_bench):
    # an alphabet with a symbol that this text never uses
    big = Text.from_bytes(b"ACGT")
    text = Text(big.alphabet, big.alphabet.encode_bytes(b"ACACAC"))
    build_suffix_structures(text).best_match_position(big.alphabet.encode_bytes(b"GT"))


@pytest.mark.parametrize("call, message", [
    (lambda b: SuffixArray(b.text, b.sa_fwd.sa[:-1]),
     "^suffix array length does not match the text$"),
    (_absent_symbol_query, "^no symbol of the query occurs in the text$"),
    (lambda b: b.sa_fwd.occurrences(b""), "^empty query$"),
    (lambda b: compute_match_pointers(Pattern(b.text.alphabet, b""), b.text, b.sa_fwd,
                                      b.sa_rev), "^empty pattern$"),
    (lambda b: brute_force_mems(b.pattern, b.text, min_len=0, sa=b.sa_fwd),
     "^minimum length must be at least 1$"),
])
def test_named_suffix_structure_errors(demo_bench, call, message):
    with pytest.raises(ValueError, match=message):
        call(demo_bench)


def test_pointer_family_and_oracle_reject_another_alphabet(demo_bench):
    # codes of another alphabet would be read as this text's codes
    pattern = Pattern.from_bytes(b"TT", Alphabet(b"T"))
    with pytest.raises(ValueError, match="alphabet"):
        compute_match_pointers(pattern, demo_bench.text, demo_bench.sa_fwd,
                               demo_bench.sa_rev)
    with pytest.raises(ValueError, match="alphabet"):
        brute_force_mems(pattern, demo_bench.text, sa=demo_bench.sa_fwd)
