import math
import random
import signal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memlight import (Alphabet, FingerprintLce, IndexFormatError, IndexPair, MatchPointers,
                      Pattern, QueryStats, Text, brute_force_mems,
                      build_fm, build_suffix_structures, compute_match_pointers,
                      find_all_mems, find_all_mems_fm, find_in_raw,
                      find_long_mems_fm, find_long_mems_lce,
                      longest_common_substring)

from conftest import (DEMO_ALL_SPANS_1BASED, DEMO_LONG_SPANS_1BASED,
                      DEMO_PATTERN, NOISY_MEM_LENGTHS, make_bench, random_raw_pair,
                      case_min_len, replay_window_probes)


def spans_1based(result):
    return [(m.start + 1, m.start + m.length) for m in result.mems]


# -- hand-checked instance -------------------------------------------------------

def test_find_all_mems_demo(demo_bench):
    result = find_all_mems(demo_bench.pattern, demo_bench.pointers,
                           demo_bench.naive_lce())
    assert spans_1based(result) == DEMO_ALL_SPANS_1BASED


def test_thresholded_demo_reports_and_query_counts(demo_bench):
    result = find_long_mems_lce(demo_bench.pattern, demo_bench.pointers,
                                demo_bench.naive_lce(), 4)
    assert spans_1based(result) == DEMO_LONG_SPANS_1BASED
    assert result.stats.lcs_queries == 6
    assert result.stats.lcp_queries == 3
    assert result.stats.loop_iterations == 4


def test_thresholded_fm_demo(demo_bench):
    result = find_long_mems_fm(demo_bench.pattern, demo_bench.fm_fwd,
                               demo_bench.fm_rev, 4)
    assert spans_1based(result) == DEMO_LONG_SPANS_1BASED


def test_threshold_one_equals_find_all(demo_bench):
    everything = find_all_mems(demo_bench.pattern, demo_bench.pointers,
                               demo_bench.naive_lce())
    assert find_long_mems_lce(demo_bench.pattern, demo_bench.pointers,
                              demo_bench.naive_lce(), 1).spans == everything.spans
    assert find_long_mems_fm(demo_bench.pattern, demo_bench.fm_fwd,
                             demo_bench.fm_rev, 1).spans == everything.spans


def test_threshold_beyond_pattern_reports_nothing(demo_bench):
    m = demo_bench.pattern.m
    result = find_long_mems_lce(demo_bench.pattern, demo_bench.pointers,
                                demo_bench.naive_lce(), m + 1)
    assert result.mems == []
    assert result.stats.loop_iterations == 0
    assert find_long_mems_fm(demo_bench.pattern, demo_bench.fm_fwd,
                             demo_bench.fm_rev, m + 1).mems == []


def test_find_all_mems_fm_demo(demo_bench):
    result = find_all_mems_fm(demo_bench.pattern, demo_bench.fm_fwd,
                              demo_bench.fm_rev)
    assert spans_1based(result) == DEMO_ALL_SPANS_1BASED


def test_pattern_inside_text_is_one_whole_mem(demo_bench):
    sub = Pattern.from_bytes(b"TAGATA", demo_bench.text.alphabet)
    sa_f, sa_r = demo_bench.sa_fwd, demo_bench.sa_rev
    pointers = compute_match_pointers(sub, demo_bench.text, sa_f, sa_r)
    from memlight import NaiveLce
    result = find_all_mems(sub, pointers, NaiveLce(demo_bench.text, sub))
    assert result.spans == [(0, 6)]
    fm_result = find_all_mems_fm(sub, demo_bench.fm_fwd, demo_bench.fm_rev)
    assert fm_result.spans == [(0, 6)]
    assert longest_common_substring(sub, demo_bench.fm_fwd,
                                    demo_bench.fm_rev).spans == [(0, 6)]


def test_longest_common_substring_demo(demo_bench):
    result = longest_common_substring(demo_bench.pattern, demo_bench.fm_fwd,
                                      demo_bench.fm_rev)
    assert spans_1based(result) == [(7, 12)]
    assert result.mems[0].length == 6
    assert result.mems[0].bwt_interval.width == 1
    at_six = find_in_raw(DEMO_PATTERN, demo_bench.pair, 6, longest=True)
    assert at_six.spans == [(6, 6)]
    assert at_six.mems[0].bwt_interval == result.mems[0].bwt_interval
    assert find_in_raw(DEMO_PATTERN, demo_bench.pair, 7, longest=True).mems == []


def test_adversarial_pattern_is_its_own_single_mem(adversarial_bench):
    bench = adversarial_bench
    result = find_all_mems(bench.pattern, bench.pointers, bench.naive_lce())
    assert result.spans == [(0, 8)]
    assert find_all_mems_fm(bench.pattern, bench.fm_fwd,
                            bench.fm_rev).spans == [(0, 8)]


def test_noisy_copy_lengths_and_threshold(noisy_bench):
    bench = noisy_bench
    oracle = brute_force_mems(bench.pattern, bench.text, 1, sa=bench.sa_fwd)
    assert [m.length for m in oracle] == NOISY_MEM_LENGTHS
    everything = find_all_mems(bench.pattern, bench.pointers, bench.naive_lce())
    assert everything.spans == [m.span for m in oracle]
    long_only = [m.span for m in oracle if m.length >= 8]
    assert len(long_only) == 2
    assert sorted(m.length for m in oracle if m.length >= 8) == [8, 12]
    assert find_long_mems_lce(bench.pattern, bench.pointers, bench.naive_lce(),
                              8).spans == long_only
    assert find_long_mems_fm(bench.pattern, bench.fm_fwd, bench.fm_rev,
                             8).spans == long_only


# -- interval reporting and splitting -----------------------------------------------

def test_reported_intervals_have_occurrence_width(demo_bench):
    result = find_long_mems_fm(demo_bench.pattern, demo_bench.fm_fwd,
                               demo_bench.fm_rev, 4, report_intervals=True)
    t_raw = demo_bench.text.to_raw()
    p_raw = demo_bench.pattern.to_raw()
    for mem in result.mems:
        sub = p_raw[mem.start : mem.end]
        count = sum(1 for s in range(len(t_raw) - mem.length + 1)
                    if t_raw[s : s + mem.length] == sub)
        assert mem.bwt_interval.width == count


# records over ACGT, joined as `index --concat-sep` joins them (one byte that
# no record uses, stored as the separator) or as one text; patterns hold N
# and the separator byte
@given(st.lists(st.binary(min_size=1, max_size=40).map(lambda b: bytes(b"ACGT"[x % 4] for x in b)),
                min_size=1, max_size=5),
       st.booleans(),
       st.binary(max_size=80).map(lambda b: bytes(b"ACGTN\x00"[x % 6] for x in b)),
       st.integers(1, 6), st.booleans(), st.integers(1, 5))
@settings(max_examples=150, deadline=None)
def test_pair_locates_every_mem_where_a_naive_scan_finds_it(records, concat_sep, p_raw,
                                                            min_len, longest, sample_rate):
    t_raw = (b"\x00" if concat_sep else b"").join(records)
    separators = b"\x00" if b"\x00" in t_raw else b""  # a record joins nothing
    text = Text.from_bytes(t_raw)
    pair = IndexPair(build_fm(text, sample_rate, separators=separators),
                     build_fm(text.reversed(), sample_rate, separators=separators))
    for mem in find_in_raw(p_raw, pair, min_len, longest).mems:
        sub = p_raw[mem.start : mem.end]
        assert pair.locate(mem) == [s for s in range(len(t_raw) - mem.length + 1)
                                    if t_raw[s : s + mem.length] == sub]


def test_split_results_use_original_coordinates(demo_bench):
    merged = find_in_raw(b"NNTACATNNNGATTAGNN", demo_bench.pair, 4)
    assert merged.spans == [(2, 5), (10, 6)]
    assert find_in_raw(b"NNTACATNNNGATTAGNN", demo_bench.pair, 1,
                       longest=True).spans == [(10, 6)]


def kept_runs(raw: bytes, kept: bytes) -> list[tuple[int, bytes]]:
    """Maximal runs of kept bytes and their offsets, by a plain scan."""
    runs, start = [], None
    for i, byte in enumerate(raw + b"\n"):  # b"\n" is never kept: closes a last run
        if byte in kept and start is None:
            start = i
        elif byte not in kept and start is not None:
            runs.append((start, raw[start:i]))
            start = None
    return runs


# texts over ACGT,; with any subset of their symbols as record separators;
# patterns add the foreign bytes N and #; the mode asks for every MEM (L = 1),
# the MEMs of length at least min_len, or the longest of at least min_len
@given(st.binary(min_size=1, max_size=60).map(lambda b: bytes(b"ACGT,;"[x % 6] for x in b)),
       st.binary(max_size=60).map(lambda b: bytes(b"ACGT,;N#"[x % 8] for x in b)),
       st.sets(st.sampled_from(b"ACGT,;")), st.integers(1, 4),
       st.sampled_from(("full", "threshold", "longest")))
@settings(max_examples=120, deadline=None)
def test_find_in_raw_equals_a_direct_run_on_each_piece(t_raw, p_raw, separators,
                                                       min_len, mode):
    text = Text.from_bytes(t_raw)
    alphabet = text.alphabet
    separators = bytes(sorted(separators & set(alphabet.symbols)))
    fwd = build_fm(text, sample_rate=3, separators=separators)
    rev = build_fm(text.reversed(), sample_rate=3, separators=separators)
    if mode == "full":
        min_len = 1
    got = find_in_raw(p_raw, IndexPair(fwd, rev), min_len, longest=mode == "longest")
    # below chance match length, sigma' ** (L - 1) < n with sigma' the
    # symbols but the separators, and at L = 1 the full scan answers
    full = min_len == 1 or (alphabet.size - len(separators)) ** (min_len - 1) < text.n
    expect, stats = [], QueryStats()
    for offset, piece in kept_runs(p_raw, alphabet.symbols.translate(None, separators)):
        sub = Pattern.from_bytes(piece, alphabet)
        part = (find_long_mems_fm(sub, fwd, rev, min_len, report_intervals=True)
                if mode == "threshold" and not full else
                find_all_mems_fm(sub, fwd, rev, report_intervals=True))
        expect += [(offset + m.start, m.length, m.bwt_interval) for m in part.mems
                   if mode == "longest" or m.length >= min_len]
        for name in vars(stats):
            setattr(stats, name, getattr(stats, name) + getattr(part.stats, name))
    if mode == "longest":
        # the leftmost longest MEM of full mode, if it is long enough
        best = max(expect, key=lambda mem: mem[1], default=None)
        expect = [best] if best and best[1] >= min_len else []
    else:
        assert got.stats == stats
    assert [(m.start, m.length, m.bwt_interval) for m in got.mems] == expect


# records over ACGT joined by one separator byte, or by a distinct one per
# boundary as in indexes written by earlier versions; patterns hold N and
# separator bytes
@given(st.lists(st.binary(min_size=1, max_size=30).map(lambda b: bytes(b"ACGT"[x % 4] for x in b)),
                min_size=1, max_size=6),
       st.binary(max_size=60).map(lambda b: bytes(b"ACGTN\x00\x01\x02\x03\x04"[x % 10] for x in b)),
       st.integers(1, 4))
@settings(max_examples=80, deadline=None)
def test_one_separator_answers_as_one_per_boundary(records, p_raw, min_len):
    modes = ((1, False), (min_len, False), (min_len, True))
    answers = []
    boundaries = range(len(records) - 1)
    for seps in ([b"\x00" for _ in boundaries], [bytes((i,)) for i in boundaries]):
        text = Text.from_bytes(records[0] + b"".join(map(bytes.__add__, seps, records[1:])))
        used = bytes(sorted(set(b"".join(seps))))
        fwd = build_fm(text, sample_rate=3, separators=used)
        rev = build_fm(text.reversed(), sample_rate=3, separators=used)
        answer = []
        for threshold, longest in modes:
            got = find_in_raw(p_raw, IndexPair(fwd, rev), threshold, longest)
            answer.append((got.stats, [(m.start, m.length, m.bwt_interval,
                                        rev.locate_all(m.bwt_interval)) for m in got.mems]))
        answers.append(answer)
    assert answers[0] == answers[1]


def scan_run_by_find_in_raw(t_raw, p_raw, min_len, separators=b""):
    """"full" or "thresholded": the scan whose summed stats over the
    pattern's pieces find_in_raw's stats equal, the two scans' stats being
    checked to differ; the rows must be the full scan's of length >= L."""
    text = Text.from_bytes(t_raw)
    fwd = build_fm(text, sample_rate=3, separators=separators)
    rev = build_fm(text.reversed(), sample_rate=3, separators=separators)
    got = find_in_raw(p_raw, IndexPair(fwd, rev), min_len)
    full, thresholded, rows = QueryStats(), QueryStats(), []
    for offset, piece in kept_runs(p_raw, text.alphabet.symbols.translate(None, separators)):
        sub = Pattern.from_bytes(piece, text.alphabet)
        every = find_all_mems_fm(sub, fwd, rev, report_intervals=True)
        rows += [(offset + m.start, m.length, m.bwt_interval) for m in every.mems
                 if m.length >= min_len]
        for total, part in ((full, every.stats),
                            (thresholded, find_long_mems_fm(sub, fwd, rev, min_len).stats)):
            for name in vars(total):
                setattr(total, name, getattr(total, name) + getattr(part, name))
    assert [(m.start, m.length, m.bwt_interval) for m in got.mems] == rows
    assert full != thresholded
    assert got.stats in (full, thresholded)
    return "full" if got.stats == full else "thresholded"


def test_scan_follows_chance_match_length():
    # the full scan answers while sigma' ** (L - 1) < n, sigma' counting the
    # symbols but the separators: the thresholded scan's probes skip nothing
    # at chance match length (about log_sigma' n) and below
    rng = random.Random(12)
    dna = bytes(rng.choice(b"ACGT") for _ in range(64))
    mutated = bytes(rng.choice(b"ACGT") if rng.random() < 0.2 else b for b in dna)
    binary = bytes(rng.choice(b"ab") for _ in range(16))
    for t_raw, p_raw, separators, edge in [
            (binary, binary[::-1] + binary, b"", 4),  # 2 ** 3 < 16 <= 2 ** 4
            (dna, mutated, b"", 3),  # 4 ** 2 < 64 <= 4 ** 3
            (dna + b"A", mutated, b"", 4),  # 4 ** 3 < 65 <= 4 ** 4
            # one separator joins two records into 65 symbols: sigma' is 4,
            # not 5, so L = 4 is still below the edge
            (dna[:30] + b"#" + dna[30:], mutated, b"#", 4),
            (dna[:30] + b"#" + dna[30:], mutated, b"", 3)]:  # 5 ** 2 < 65 <= 5 ** 3
        assert scan_run_by_find_in_raw(t_raw, p_raw, edge, separators) == "full"
        assert scan_run_by_find_in_raw(t_raw, p_raw, edge + 1, separators) == "thresholded"


def test_one_symbol_text_always_takes_the_full_scan():
    # sigma' = 1: 1 ** (L - 1) < n at every L from n = 2 on, however large L
    # is; at n = 1 only L = 1, where no MEM is short, takes it
    for min_len in (1, 2, 5, 9, 10, 10**9):
        assert scan_run_by_find_in_raw(b"a" * 9, b"ab" * 3 + b"a" * 12, min_len) == "full"
    assert scan_run_by_find_in_raw(b"a", b"aba", 1) == "full"
    assert scan_run_by_find_in_raw(b"a", b"aba", 2) == "thresholded"


# texts over ACGT,; with any subset of their symbols as record separators,
# at every L, whichever scan answers
@given(st.binary(min_size=1, max_size=300).map(lambda b: bytes(b"ACGT,;"[x % 6] for x in b)),
       st.binary(max_size=100).map(lambda b: bytes(b"ACGT,;N"[x % 7] for x in b)),
       st.sets(st.sampled_from(b"ACGT,;")), st.integers(1, 12))
@settings(max_examples=150, deadline=None)
def test_find_in_raw_rows_are_the_long_mems_of_the_full_scan(t_raw, p_raw, separators, min_len):
    text = Text.from_bytes(t_raw)
    separators = bytes(sorted(separators & set(text.alphabet.symbols)))
    fwd = build_fm(text, sample_rate=3, separators=separators)
    rev = build_fm(text.reversed(), sample_rate=3, separators=separators)
    expect = []
    for offset, piece in kept_runs(p_raw, text.alphabet.symbols.translate(None, separators)):
        every = find_all_mems_fm(Pattern.from_bytes(piece, text.alphabet), fwd, rev,
                                 report_intervals=True)
        expect += [(offset + m.start, m.length, m.bwt_interval) for m in every.mems
                   if m.length >= min_len]
    got = find_in_raw(p_raw, IndexPair(fwd, rev), min_len)
    assert [(m.start, m.length, m.bwt_interval) for m in got.mems] == expect


def test_all_foreign_pattern_finds_nothing(demo_bench):
    for mode in ((1, False), (4, False), (1, True)):
        merged = find_in_raw(b"XXXX", demo_bench.pair, *mode)
        assert merged.mems == []
        assert merged.stats == QueryStats()


def test_absent_symbol_degrades_gracefully_in_fm_finders():
    # alphabet includes a symbol the text never uses
    big = Text.from_bytes(b"ab")
    text = Text(big.alphabet, big.alphabet.encode_bytes(b"aaaa"))
    fm_f = build_fm(text)
    fm_r = build_fm(text.reversed())
    pattern = Pattern.from_bytes(b"aabaa", big.alphabet)
    result = find_all_mems_fm(pattern, fm_f, fm_r)
    assert result.spans == [(0, 2), (3, 2)]
    only_b = Pattern.from_bytes(b"bb", big.alphabet)
    assert find_all_mems_fm(only_b, fm_f, fm_r).mems == []
    assert longest_common_substring(only_b, fm_f, fm_r).mems == []


def test_mismatched_index_pair_is_rejected(demo_bench):
    other = build_fm(Text.from_bytes(b"xyz"))
    with pytest.raises(ValueError, match="alphabet"):
        find_long_mems_fm(demo_bench.pattern, demo_bench.fm_fwd, other, 2)
    with pytest.raises(IndexFormatError, match="different alphabets"):
        IndexPair(demo_bench.fm_fwd, other)


def test_index_pair_over_different_texts_is_rejected(demo_bench):
    # same alphabet, but another length, then the same length with other counts
    for other in (b"ACGTACGT", b"GGTTAGATACAT"):
        rev = build_fm(Text.from_bytes(other).reversed())
        with pytest.raises(ValueError, match="different texts"):
            find_long_mems_fm(demo_bench.pattern, demo_bench.fm_fwd, rev, 2)
        with pytest.raises(IndexFormatError, match="different texts"):
            IndexPair(demo_bench.fm_fwd, rev)


@pytest.mark.parametrize("finder", [
    lambda p, f, r: find_long_mems_fm(p, f, r, 1),
    find_all_mems_fm,
    longest_common_substring,
])
def test_pattern_with_another_alphabet_is_rejected(demo_bench, finder):
    # code 0 means T here but A in the index: it used to match as "AA"
    pattern = Pattern.from_bytes(b"TT", Alphabet(b"T"))
    with pytest.raises(ValueError, match="pattern alphabet"):
        finder(pattern, demo_bench.fm_fwd, demo_bench.fm_rev)


def test_min_len_must_be_positive(demo_bench):
    with pytest.raises(ValueError):
        find_long_mems_lce(demo_bench.pattern, demo_bench.pointers,
                           demo_bench.naive_lce(), 0)
    with pytest.raises(ValueError):
        find_long_mems_fm(demo_bench.pattern, demo_bench.fm_fwd,
                          demo_bench.fm_rev, 0)
    for raw in (DEMO_PATTERN, b"XXXX"):  # a pattern of pieces, and one of none
        with pytest.raises(ValueError, match="at least 1"):
            find_in_raw(raw, demo_bench.pair, 0)


def _stop_hung_test(signum, frame):
    raise TimeoutError("the finder did not stop")


@pytest.mark.parametrize("finder", [
    find_all_mems,
    lambda p, pointers, lce: find_long_mems_lce(p, pointers, lce, 4),
])
@pytest.mark.parametrize("shift", range(1, 12))
def test_pointer_finders_stop_on_inconsistent_pointers(demo_bench, finder, shift):
    # forward pointers shifted by 4 put the next start at or before the
    # current one, and a finder without the progress check loops forever;
    # other shifts give a forward match shorter than the probe's
    n = demo_bench.text.n
    bad = MatchPointers((demo_bench.pointers.forward + shift) % n,
                        demo_bench.pointers.backward.copy())
    previous = signal.signal(signal.SIGALRM, _stop_hung_test)
    signal.setitimer(signal.ITIMER_REAL, 10)
    try:
        with pytest.raises(ValueError, match="match pointers are inconsistent"):
            finder(demo_bench.pattern, bad, demo_bench.naive_lce())
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


# -- randomized equivalence ----------------------------------------------------------

def build_case(t_raw, p_raw):
    return make_bench(t_raw, p_raw)


def test_equivalence_on_random_instances():
    rng = np.random.default_rng(101)
    overlap_probes = 0
    for case in range(120):
        t_raw, p_raw = random_raw_pair(rng, max_n=800, max_m=120)
        bench = make_bench(t_raw, p_raw)
        min_len = case_min_len(case, bench.pattern.m)
        oracle = brute_force_mems(bench.pattern, bench.text, 1, sa=bench.sa_fwd)
        wanted = [m.span for m in oracle if m.length >= min_len]
        lce_result = find_long_mems_lce(bench.pattern, bench.pointers,
                                        bench.naive_lce(), min_len)
        fm_result = find_long_mems_fm(bench.pattern, bench.fm_fwd,
                                      bench.fm_rev, min_len)
        assert lce_result.spans == wanted
        assert fm_result.spans == wanted
        assert find_all_mems(bench.pattern, bench.pointers,
                             bench.naive_lce()).spans == [m.span for m in oracle]
        assert find_all_mems_fm(bench.pattern, bench.fm_fwd,
                                bench.fm_rev).spans == [m.span for m in oracle]
        best = max(m.length for m in oracle)
        lcs = longest_common_substring(bench.pattern, bench.fm_fwd, bench.fm_rev)
        assert lcs.mems[0].length == best
        assert lcs.mems[0].start == next(m.start for m in oracle
                                         if m.length == best)
        # work counters: at most two window probes and one extension per pass
        stats = lce_result.stats
        assert stats.lcs_queries <= 2 * stats.loop_iterations
        assert stats.lcp_queries <= stats.loop_iterations
        # starts and ends strictly increase
        for result in (lce_result, fm_result):
            starts = [m.start for m in result.mems]
            ends = [m.end for m in result.mems]
            assert starts == sorted(set(starts))
            assert ends == sorted(set(ends))
        trail = replay_window_probes(bench.pattern, bench.pointers,
                                     bench.naive_lce(), min_len)
        positions = [i for i, _ in trail]
        assert positions == sorted(set(positions))  # strict progress
        overlap_probes += sum(1 for _, b in trail if b > min_len)
    assert overlap_probes > 0  # deep window overlaps do happen at random


def test_window_overlap_probe_exceeds_threshold_on_crafted_case():
    # two long matches starting one position apart: the window probe at the
    # second one sees deeper backward context than the threshold itself
    t_raw = b"abcdefghXbcdefghiY"
    p_raw = b"abcdefghi"
    bench = make_bench(t_raw, p_raw)
    min_len = 4
    trail = replay_window_probes(bench.pattern, bench.pointers,
                                 bench.naive_lce(), min_len)
    assert any(b > min_len for _, b in trail)
    oracle = brute_force_mems(bench.pattern, bench.text, 1, sa=bench.sa_fwd)
    wanted = [m.span for m in oracle if m.length >= min_len]
    assert find_long_mems_lce(bench.pattern, bench.pointers,
                              bench.naive_lce(), min_len).spans == wanted


def test_iteration_bound_on_random_instances():
    rng = np.random.default_rng(202)
    for case in range(60):
        t_raw, p_raw = random_raw_pair(rng, max_n=600, max_m=100)
        bench = make_bench(t_raw, p_raw)
        m = bench.pattern.m
        min_len = case_min_len(case, m)
        oracle = brute_force_mems(bench.pattern, bench.text, 1, sa=bench.sa_fwd)
        result = find_long_mems_lce(bench.pattern, bench.pointers,
                                    bench.naive_lce(), min_len)
        half = math.ceil(min_len / 2)
        mu_half = sum(1 for mem in oracle if mem.length >= half)
        bound = 2 * mu_half + math.ceil(2 * m / min_len) + 2
        assert result.stats.loop_iterations <= bound


def test_fingerprint_backend_agrees_with_naive():
    rng = np.random.default_rng(303)
    for case in range(40):
        t_raw, p_raw = random_raw_pair(rng, max_n=500, max_m=80)
        bench = make_bench(t_raw, p_raw)
        min_len = case_min_len(case, bench.pattern.m)
        fingerprint = FingerprintLce(bench.text, bench.pattern, seed=case)
        exact = find_long_mems_lce(bench.pattern, bench.pointers,
                                   bench.naive_lce(), min_len)
        probabilistic = find_long_mems_lce(bench.pattern, bench.pointers,
                                           fingerprint, min_len)
        assert probabilistic.spans == exact.spans
