import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import memlight
from memlight import (ExperimentSpec, LengthHistogramRow, Pattern, Text,
                      brute_force_mems, build_suffix_structures, classify_mems,
                      generate_instance, make_cyclic_text, run_comparison)


SMALL = dict(n=2500, m=350, sigma=2, mutation="flip", rate=0.1, min_len=12,
             seed=7, cyclic=True)


# -- spec validation ---------------------------------------------------------------

@pytest.mark.parametrize("kwargs", [
    dict(n=10, m=11),
    dict(n=10, m=0),
    dict(rate=1.5),
    dict(rate=-0.1),
    dict(sigma=0),
    dict(mutation="swap"),
    dict(min_len=0),
])
def test_spec_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        ExperimentSpec(**{**dict(n=100, m=10), **kwargs})


def test_spec_names_the_alphabet_limit():
    # checked when the spec is made, not when its instance is generated
    text, _ = generate_instance(ExperimentSpec(n=300, m=10, sigma=208))
    assert text.alphabet.symbols == bytes(range(48, 256))
    with pytest.raises(ValueError, match="limited to 208 symbols"):
        ExperimentSpec(sigma=209)


# -- instance generation -------------------------------------------------------------

def test_zero_rate_copies_the_prefix():
    text, pattern = generate_instance(ExperimentSpec(n=64, m=32, rate=0.0, seed=1))
    assert pattern.data.tolist() == text.data[:32].tolist()


def test_certain_flip_complements_binary():
    text, pattern = generate_instance(
        ExperimentSpec(n=64, m=32, sigma=2, mutation="flip", rate=1.0, seed=1))
    assert pattern.data.tolist() == (1 - text.data[:32]).tolist()


def test_flip_never_copies_but_replace_may():
    spec = ExperimentSpec(n=4000, m=4000, sigma=4, mutation="flip", rate=1.0,
                          seed=3)
    text, pattern = generate_instance(spec)
    assert (pattern.data != text.data[:4000]).all()
    spec2 = ExperimentSpec(n=4000, m=4000, sigma=4, mutation="replace_uniform",
                           rate=1.0, seed=3)
    text2, pattern2 = generate_instance(spec2)
    same = int((pattern2.data == text2.data[:4000]).sum())
    assert 0 < same < 4000  # roughly a quarter stay identical


def test_same_seed_same_instance():
    spec = ExperimentSpec(n=1000, m=100, seed=5)
    a_text, a_pat = generate_instance(spec)
    b_text, b_pat = generate_instance(spec)
    assert a_text.data.tolist() == b_text.data.tolist()
    assert a_pat.data.tolist() == b_pat.data.tolist()


def test_mutation_count_is_binomial_at_scale():
    spec = ExperimentSpec(n=1_000_000, m=10_000, sigma=2, mutation="flip",
                          rate=0.1, seed=42)
    text, pattern = generate_instance(spec)
    hamming = int((pattern.data != text.data[:10_000]).sum())
    mean = 0.1 * 10_000
    sdev = (10_000 * 0.1 * 0.9) ** 0.5
    assert abs(hamming - mean) <= 3 * sdev


def test_scaling_probe_runs_three_lengths():
    script = Path(__file__).resolve().parents[1] / "scripts" / "scaling_probe.py"
    src = str(Path(memlight.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, str(script), "--n", "2000"],
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=src))
    assert done.returncode == 0, done.stderr
    rows = done.stdout.split("m\tsteps\tsteps/m\tlongest\tseconds\n")[1].splitlines()
    assert [row.split("\t")[0] for row in rows] == ["20", "200", "2000"]


# -- cyclic indexing -----------------------------------------------------------------

def test_cyclic_text_is_windowed_doubling():
    text = Text.from_bytes(b"ABC")
    assert make_cyclic_text(text, 2).to_raw() == b"ABCAB"


@pytest.mark.parametrize("window", [0, 4])
def test_cyclic_window_bounds(window):
    with pytest.raises(ValueError):
        make_cyclic_text(Text.from_bytes(b"ABC"), window)


def occurrences(raw: bytes, text: Text) -> list[int]:
    return build_suffix_structures(text).occurrences(text.alphabet.encode_bytes(raw))


def test_seam_crossing_match_is_found_only_when_cyclic():
    text = Text.from_bytes(b"BBCD")
    assert occurrences(b"DB", text) == []
    wrapped = make_cyclic_text(text, 2)
    positions = occurrences(b"DB", wrapped)
    assert len(positions) == 1
    assert [p % text.n for p in positions] == [3]


def test_position_past_the_seam_maps_back():
    text = Text.from_bytes(b"ABCD")
    wrapped = make_cyclic_text(text, 3)
    positions = occurrences(b"BC", wrapped)
    assert positions == [1, 5]  # the copy past the seam is the same spot
    assert sorted(set(p % text.n for p in positions)) == [1]


# -- classification ------------------------------------------------------------------

def test_classify_unique_aligned_mems():
    text = Text.from_bytes(b"ABCDEFGH")
    pattern = Pattern.from_bytes(b"ABCDEFGH", text.alphabet)
    sa = build_suffix_structures(text)
    mems = brute_force_mems(pattern, text, 1, sa=sa)
    rows = classify_mems(mems, pattern, sa)
    assert rows == [LengthHistogramRow(length=8, count=1, unique=1, correct=1)]


def test_classify_repeated_mem_is_not_unique():
    text = Text.from_bytes(b"ABXAB")
    pattern = Pattern.from_bytes(b"AB", text.alphabet)
    sa = build_suffix_structures(text)
    mems = brute_force_mems(pattern, text, 1, sa=sa)
    rows = classify_mems(mems, pattern, sa)
    assert rows == [LengthHistogramRow(length=2, count=1, unique=0, correct=0)]


def test_classify_unique_but_misaligned():
    text = Text.from_bytes(b"XXAB")
    pattern = Pattern.from_bytes(b"AB", text.alphabet)
    sa = build_suffix_structures(text)
    mems = brute_force_mems(pattern, text, 1, sa=sa)
    rows = classify_mems(mems, pattern, sa)
    assert rows == [LengthHistogramRow(length=2, count=1, unique=1, correct=0)]


def test_histogram_row_invariant():
    with pytest.raises(ValueError):
        LengthHistogramRow(length=5, count=1, unique=2, correct=0)


# -- full comparison runs -------------------------------------------------------------

def test_reports_are_byte_identical_for_equal_specs():
    a = run_comparison(ExperimentSpec(**SMALL))
    b = run_comparison(ExperimentSpec(**SMALL))
    assert a.to_tsv() == b.to_tsv()


def test_default_report_equals_the_committed_one():
    # the default `memlight experiment` report, kept byte-identical across
    # changes to the index and the finders
    golden = (Path(__file__).parent / "data" / "experiment_default.tsv").read_bytes()
    assert run_comparison(ExperimentSpec()).to_tsv().encode() == golden, (
        "the default report differs from tests/data/experiment_default.tsv, which was "
        "generated with numpy 2.4.6's PCG64 streams: another numpy may draw other instances")


def test_report_crosscheck_and_tallies():
    report = run_comparison(ExperimentSpec(**SMALL))
    assert report.crosscheck_ok
    assert sum(row.count for row in report.histogram) == report.mems_total
    lengths = [row.length for row in report.histogram]
    assert lengths == sorted(lengths)
    assert report.mems_thresholded == sum(
        row.count for row in report.histogram if row.length >= SMALL["min_len"])
    assert report.longest_length == max(lengths)
    assert report.steps_full > 0
    body = report.to_tsv()
    assert body.startswith("# memlight experiment report")
    assert f"# seed: {SMALL['seed']}" in body


def test_whole_text_pattern_is_one_mem():
    report = run_comparison(ExperimentSpec(n=400, m=400, sigma=2, rate=0.0,
                                           min_len=1, seed=11, cyclic=False))
    assert report.mems_total == 1
    assert report.longest_length == 400


def test_linear_vs_cyclic_flag_changes_window():
    linear = run_comparison(ExperimentSpec(**{**SMALL, "cyclic": False}))
    assert linear.cyclic_window is None
    cyclic = run_comparison(ExperimentSpec(**SMALL))
    assert cyclic.cyclic_window == SMALL["m"] + 200
