"""Acceptance gate: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; any assertion failure marks that criterion red.
"""

import math
import time
from dataclasses import dataclass

import numpy as np
import pytest

from memlight import (ExperimentSpec, FingerprintLce, FmIndex, IndexFormatError,
                      NaiveLce, Pattern, Text, brute_force_mems, build_fm,
                      build_suffix_structures, compute_match_pointers,
                      find_all_mems, find_long_mems_fm, find_long_mems_lce,
                      run_comparison)

from conftest import (ADVERSARIAL_BACKWARD_1BASED, ADVERSARIAL_PATTERN,
                      ADVERSARIAL_TEXT, DEMO_PATTERN, DEMO_TEXT, NOISY_PATTERN,
                      NOISY_TEXT, case_min_len, make_bench, random_raw_pair)

CORPUS_SIZE = 1000
CORPUS_SEED = 20240601


def ok(criterion: int, message: str) -> None:
    print(f"[criterion {criterion:2d}] PASS  {message}")


@dataclass
class CorpusCase:
    m: int
    min_len: int
    oracle_spans: list
    oracle_lengths: list
    lce_spans: list
    fm_spans: list
    loop_iterations: int


@pytest.fixture(scope="module")
def corpus():
    rng = np.random.default_rng(CORPUS_SEED)
    cases = []
    started = time.perf_counter()
    for index in range(CORPUS_SIZE):
        t_raw, p_raw = random_raw_pair(rng, max_n=2000, max_m=200)
        bench = make_bench(t_raw, p_raw)
        min_len = case_min_len(index, bench.pattern.m)
        oracle = brute_force_mems(bench.pattern, bench.text, 1, sa=bench.sa_fwd)
        lce_result = find_long_mems_lce(bench.pattern, bench.pointers,
                                        bench.naive_lce(), min_len)
        fm_result = find_long_mems_fm(bench.pattern, bench.fm_fwd,
                                      bench.fm_rev, min_len)
        cases.append(CorpusCase(
            m=bench.pattern.m,
            min_len=min_len,
            oracle_spans=[mem.span for mem in oracle],
            oracle_lengths=[mem.length for mem in oracle],
            lce_spans=lce_result.spans,
            fm_spans=fm_result.spans,
            loop_iterations=lce_result.stats.loop_iterations,
        ))
    return cases, time.perf_counter() - started


def test_criterion_1_match_pointer_fixture():
    started = time.perf_counter()
    bench = make_bench(DEMO_TEXT, DEMO_PATTERN)
    assert (bench.pointers.forward + 1).tolist() == \
        [8, 9, 10, 7, 4, 5, 1, 2, 3, 4, 5, 1]
    assert (bench.pointers.backward + 1).tolist() == \
        [3, 5, 10, 11, 12, 9, 6, 7, 8, 4, 5, 6]
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    ok(1, f"match pointers exact on the 12-symbol fixture ({elapsed:.3f}s)")


def test_criterion_2_thresholded_trace_fixture():
    bench = make_bench(DEMO_TEXT, DEMO_PATTERN)
    result = find_long_mems_lce(bench.pattern, bench.pointers,
                                bench.naive_lce(), 4)
    spans_1based = [(m.start + 1, m.start + m.length) for m in result.mems]
    assert spans_1based == [(1, 5), (5, 9), (7, 12)]
    assert result.stats.lcs_queries == 6
    assert result.stats.lcp_queries == 3
    fm_result = find_long_mems_fm(bench.pattern, bench.fm_fwd, bench.fm_rev, 4)
    assert fm_result.spans == result.spans
    ok(2, "L=4 reports the three long MEMs with exactly 6 LCS and 3 LCP queries")


def test_criterion_3_adversarial_fixture():
    bench = make_bench(ADVERSARIAL_TEXT, ADVERSARIAL_PATTERN)
    assert (bench.pointers.backward + 1).tolist() == ADVERSARIAL_BACKWARD_1BASED
    result = find_all_mems(bench.pattern, bench.pointers, bench.naive_lce())
    assert result.spans == [(0, len(ADVERSARIAL_PATTERN))]
    ok(3, "backward pointers exact and the whole pattern is the only MEM")


def test_criterion_4_noisy_copy_fixture():
    bench = make_bench(NOISY_TEXT, NOISY_PATTERN)
    oracle = brute_force_mems(bench.pattern, bench.text, 1, sa=bench.sa_fwd)
    everything = find_all_mems(bench.pattern, bench.pointers, bench.naive_lce())
    assert everything.spans == [mem.span for mem in oracle]
    long_lengths = sorted(mem.length for mem in oracle if mem.length >= 8)
    assert long_lengths == [8, 12]
    wanted = [mem.span for mem in oracle if mem.length >= 8]
    assert find_long_mems_lce(bench.pattern, bench.pointers,
                              bench.naive_lce(), 8).spans == wanted
    assert find_long_mems_fm(bench.pattern, bench.fm_fwd, bench.fm_rev,
                             8).spans == wanted
    ok(4, "noisy-copy instance: two long MEMs (12 and 8), both finders agree")


def test_criterion_5_oracle_equivalence(corpus):
    cases, elapsed = corpus
    assert len(cases) == CORPUS_SIZE
    failures = 0
    for case in cases:
        wanted = [span for span in case.oracle_spans
                  if span[1] >= case.min_len]
        if case.lce_spans != wanted or case.fm_spans != wanted:
            failures += 1
    assert failures == 0
    assert elapsed < 120.0
    ok(5, f"{CORPUS_SIZE} randomized cases, exact three-way agreement "
          f"({elapsed:.1f}s)")


def test_criterion_6_iteration_bound(corpus):
    cases, _ = corpus
    violations = 0
    for case in cases:
        half = math.ceil(case.min_len / 2)
        mu_half = sum(1 for length in case.oracle_lengths if length >= half)
        bound = 2 * mu_half + math.ceil(2 * case.m / case.min_len) + 2
        if case.loop_iterations > bound:
            violations += 1
    assert violations == 0
    ok(6, f"loop iterations within 2*mu + ceil(2m/L) + 2 on all "
          f"{CORPUS_SIZE} cases")


def test_criterion_7_fingerprint_extension_queries():
    rng = np.random.default_rng(777)
    total = 0
    worst_ratio = 0.0
    while total < 100_000:
        sigma = int(rng.choice([2, 4, 20]))
        n = int(rng.integers(100, 10_001))
        m = int(rng.integers(10, 1001))
        symbols = bytes(range(48, 48 + sigma))
        t_raw = bytes(symbols[c] for c in rng.integers(0, sigma, n))
        text = Text.from_bytes(t_raw)
        present = text.alphabet.symbols
        if rng.random() < 0.5:
            start = int(rng.integers(0, n - min(m, n) + 1))
            p_raw = t_raw[start : start + min(m, n)]
        else:
            p_raw = bytes(present[c] for c in rng.integers(0, len(present), m))
        pattern = Pattern.from_bytes(p_raw, text.alphabet)
        naive = NaiveLce(text, pattern)
        fingerprint = FingerprintLce(text, pattern, seed=total)
        for _ in range(5000):
            i = int(rng.integers(0, pattern.m))
            j = int(rng.integers(0, text.n))
            if total % 2 == 0:
                answer, comparisons = fingerprint.lce_forward_counted(i, j)
                assert answer == naive.lce_forward(i, j)
            else:
                answer, comparisons = fingerprint.lce_backward_counted(i, j)
                assert answer == naive.lce_backward(i, j)
            bound = 2 * math.ceil(math.log2(answer + 2)) + 2
            assert comparisons <= bound
            worst_ratio = max(worst_ratio, comparisons / bound)
            total += 1
    ok(7, f"{total} fingerprint queries match the exact scan; worst "
          f"comparison budget used {worst_ratio:.2f}")


def test_criterion_8_backward_search_oracle():
    rng = np.random.default_rng(888)
    probes = 0
    locate_checks = 0
    while probes < 10_000:
        sigma = int(rng.choice([2, 4]))
        n = int(rng.integers(50, 2001))
        symbols = bytes(range(48, 48 + sigma))
        t_raw = bytes(symbols[c] for c in rng.integers(0, sigma, n))
        text = Text.from_bytes(t_raw)
        index = build_fm(text, sample_rate=16)
        present = text.alphabet.symbols
        for _ in range(500):
            qlen = int(rng.integers(1, 30))
            if rng.random() < 0.5 and qlen <= n:
                start = int(rng.integers(0, n - qlen + 1))
                q_raw = t_raw[start : start + qlen]
            else:
                q_raw = bytes(present[c]
                              for c in rng.integers(0, len(present), qlen))
            prefix_len = int(rng.integers(0, qlen + 1))
            matched, iv = index.backward_search_prefix(
                np.frombuffer(text.alphabet.encode_bytes(q_raw), dtype=np.uint8), prefix_len)
            head = q_raw[:prefix_len]
            expect = 0
            for k in range(1, prefix_len + 1):
                if head[prefix_len - k:] in t_raw:
                    expect = k
                else:
                    break
            assert matched == expect
            if matched and probes % 10 == 0:
                sub = head[prefix_len - matched:]
                scan = [s for s in range(n - matched + 1)
                        if t_raw[s : s + matched] == sub]
                assert index.locate_all(iv) == scan
                locate_checks += 1
            probes += 1
    ok(8, f"{probes} backward-search probes match the scan oracle "
          f"({locate_checks} located)")


def test_criterion_9_step_count_reduction():
    started = time.perf_counter()
    report = run_comparison(ExperimentSpec())  # n=1e6, m=1e4, flip 10%, L=40
    elapsed = time.perf_counter() - started
    assert report.crosscheck_ok
    assert report.steps_full > 0
    ratio = report.steps_thresholded / report.steps_full
    assert ratio <= 0.2
    assert report.steps_lcs < report.steps_thresholded
    assert elapsed < 60.0
    ok(9, f"thresholded/full step ratio {ratio:.3f} <= 0.2 and "
          f"LCS mode cheaper still ({elapsed:.1f}s)")


def test_criterion_10_determinism_and_serialization(tmp_path):
    spec = ExperimentSpec(n=2000, m=300, sigma=2, mutation="flip", rate=0.1,
                          min_len=10, seed=123, cyclic=True)
    first = run_comparison(spec).to_tsv().encode()
    second = run_comparison(spec).to_tsv().encode()
    assert first == second

    text = Text.from_bytes(DEMO_TEXT)
    index = build_fm(text, sample_rate=4)
    path = tmp_path / "round.memidx"
    index.save(path)
    reloaded = FmIndex.load(path)
    assert reloaded.to_bytes() == index.to_bytes()
    reloaded.save(tmp_path / "again.memidx")
    assert (tmp_path / "again.memidx").read_bytes() == path.read_bytes()

    blob = bytearray(index.to_bytes())
    blob[len(blob) // 3] ^= 0x80
    (tmp_path / "bad.memidx").write_bytes(bytes(blob))
    with pytest.raises(IndexFormatError):
        FmIndex.load(tmp_path / "bad.memidx")
    with pytest.raises(IndexFormatError):
        FmIndex.from_bytes(index.to_bytes()[:50])
    with pytest.raises(IndexFormatError):
        FmIndex.from_bytes(b"WRONGMAG" + index.to_bytes()[8:])
    ok(10, "byte-identical reports, byte-exact index round trip, corrupt "
           "files rejected")
