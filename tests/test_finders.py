import math
import signal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memlight import (Alphabet, FingerprintLce, MatchPointers,
                      Pattern, QueryStats, Text, brute_force_mems,
                      build_fm, build_suffix_structures, compute_match_pointers,
                      find_all_mems, find_all_mems_fm, find_in_raw,
                      find_long_mems_fm, find_long_mems_lce,
                      longest_common_substring)

from conftest import (DEMO_ALL_SPANS_1BASED, DEMO_LONG_SPANS_1BASED,
                      NOISY_MEM_LENGTHS, make_bench, random_raw_pair,
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
        # rows belong to the reversed-text index: mirror and check positions
        rev_positions = demo_bench.fm_rev.locate_all(mem.bwt_interval)
        fwd = sorted(demo_bench.text.n - p - mem.length for p in rev_positions)
        assert fwd == [s for s in range(len(t_raw) - mem.length + 1)
                       if t_raw[s : s + mem.length] == sub]


def test_split_results_use_original_coordinates(demo_bench):
    bench = demo_bench

    def runner(sub):
        return find_long_mems_fm(sub, bench.fm_fwd, bench.fm_rev, 4)

    merged = find_in_raw(b"NNTACATNNNGATTAGNN", bench.text.alphabet, runner)
    assert merged.spans == [(2, 5), (10, 6)]


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
# patterns add the foreign bytes N and #
@given(st.binary(min_size=1, max_size=60).map(lambda b: bytes(b"ACGT,;"[x % 6] for x in b)),
       st.binary(max_size=60).map(lambda b: bytes(b"ACGT,;N#"[x % 8] for x in b)),
       st.sets(st.sampled_from(b"ACGT,;")), st.integers(1, 4))
@settings(max_examples=80, deadline=None)
def test_find_in_raw_equals_a_direct_run_on_each_piece(t_raw, p_raw, separators, min_len):
    text = Text.from_bytes(t_raw)
    alphabet = text.alphabet
    separators = bytes(sorted(separators & set(alphabet.symbols)))
    fwd, rev = build_fm(text, sample_rate=3), build_fm(text.reversed(), sample_rate=3)

    def finder(sub):
        return find_long_mems_fm(sub, fwd, rev, min_len, report_intervals=True)

    got = find_in_raw(p_raw, alphabet, finder, separators)
    expect, stats = [], QueryStats()
    for offset, piece in kept_runs(p_raw, alphabet.symbols.translate(None, separators)):
        part = finder(Pattern.from_bytes(piece, alphabet))
        expect += [(offset + m.start, m.length, m.bwt_interval) for m in part.mems]
        for name in vars(stats):
            setattr(stats, name, getattr(stats, name) + getattr(part.stats, name))
    assert [(m.start, m.length, m.bwt_interval) for m in got.mems] == expect
    assert got.stats == stats


# records over ACGT joined by one separator byte, or by a distinct one per
# boundary as in indexes written by earlier versions; patterns hold N and
# separator bytes
@given(st.lists(st.binary(min_size=1, max_size=30).map(lambda b: bytes(b"ACGT"[x % 4] for x in b)),
                min_size=1, max_size=6),
       st.binary(max_size=60).map(lambda b: bytes(b"ACGTN\x00\x01\x02\x03\x04"[x % 10] for x in b)),
       st.integers(1, 4))
@settings(max_examples=80, deadline=None)
def test_one_separator_answers_as_one_per_boundary(records, p_raw, min_len):
    finders = (
        lambda sub, fwd, rev: find_all_mems_fm(sub, fwd, rev, report_intervals=True),
        lambda sub, fwd, rev: find_long_mems_fm(sub, fwd, rev, min_len, report_intervals=True),
        longest_common_substring,
    )
    answers = []
    boundaries = range(len(records) - 1)
    for seps in ([b"\x00" for _ in boundaries], [bytes((i,)) for i in boundaries]):
        text = Text.from_bytes(records[0] + b"".join(map(bytes.__add__, seps, records[1:])))
        used = bytes(sorted(set(b"".join(seps))))
        fwd = build_fm(text, sample_rate=3, separators=used)
        rev = build_fm(text.reversed(), sample_rate=3, separators=used)
        answer = []
        for finder in finders:
            got = find_in_raw(p_raw, fwd.alphabet, lambda sub: finder(sub, fwd, rev),
                              fwd.separators)
            answer.append((got.stats, [(m.start, m.length, m.bwt_interval,
                                        rev.locate_all(m.bwt_interval)) for m in got.mems]))
        answers.append(answer)
    assert answers[0] == answers[1]


def test_all_foreign_pattern_finds_nothing(demo_bench):
    merged = find_in_raw(b"XXXX", demo_bench.text.alphabet,
                         lambda sub: find_all_mems_fm(sub, demo_bench.fm_fwd,
                                                      demo_bench.fm_rev))
    assert merged.mems == []


def test_absent_symbol_degrades_gracefully_in_fm_finders():
    # alphabet includes a symbol the text never uses
    big = Text.from_bytes(b"ab")
    text = Text(big.alphabet, np.frombuffer(big.alphabet.encode_bytes(b"aaaa"), dtype=np.uint8))
    fm_f = build_fm(text)
    fm_r = build_fm(text.reversed())
    pattern = Pattern.from_bytes(b"aabaa", big.alphabet)
    result = find_all_mems_fm(pattern, fm_f, fm_r)
    assert result.spans == [(0, 2), (3, 2)]
    only_b = Pattern.from_bytes(b"bb", big.alphabet)
    assert find_all_mems_fm(only_b, fm_f, fm_r).mems == []
    assert longest_common_substring(only_b, fm_f, fm_r).mems == []


def test_mismatched_index_pair_is_rejected(demo_bench):
    other = Text.from_bytes(b"xyz")
    with pytest.raises(ValueError, match="alphabet"):
        find_long_mems_fm(demo_bench.pattern, demo_bench.fm_fwd,
                          build_fm(other), 2)


def test_index_pair_over_different_texts_is_rejected(demo_bench):
    # same alphabet, but another length, then the same length with other counts
    for other in (b"ACGTACGT", b"GGTTAGATACAT"):
        rev = build_fm(Text.from_bytes(other).reversed())
        with pytest.raises(ValueError, match="different texts"):
            find_long_mems_fm(demo_bench.pattern, demo_bench.fm_fwd, rev, 2)


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
        fingerprint = FingerprintLce.build(bench.text, bench.pattern, seed=case)
        exact = find_long_mems_lce(bench.pattern, bench.pointers,
                                   bench.naive_lce(), min_len)
        probabilistic = find_long_mems_lce(bench.pattern, bench.pointers,
                                           fingerprint, min_len)
        assert probabilistic.spans == exact.spans
