"""Randomized experiments: instance generation, MEM classification, step-count comparison.

A run generates a pseudo-random text, derives a pattern by mutating its
prefix, indexes the text (optionally as cyclic: the text followed by its
first min(m + 200, n) symbols), and compares the backward-step budgets of
the full, thresholded, and longest-substring finders on the same instance.
Reports are byte-identical for identical specs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import __version__
from .finders import find_all_mems_fm, find_long_mems_fm, longest_common_substring
from .fm import SAMPLE_RATE, build_fm
from .sequence import Alphabet, MemRecord, Pattern, Text
from .suffixes import SuffixArray, build_suffix_structures

PRNG_NAME = "numpy-PCG64"
CYCLIC_MARGIN = 200


@dataclass(frozen=True)
class ExperimentSpec:
    """Parameters of one experiment; equal specs reproduce equal reports."""

    n: int = 1_000_000
    m: int = 10_000
    sigma: int = 2
    mutation: str = "flip"  # "flip" or "replace_uniform"
    rate: float = 0.1
    min_len: int = 40
    seed: int = 42
    cyclic: bool = True

    def __post_init__(self):
        if not 1 <= self.m <= self.n:
            raise ValueError("need 1 <= m <= n")
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError("mutation rate must be in [0, 1]")
        if self.sigma < 1:
            raise ValueError("alphabet size must be at least 1")
        if self.sigma > 208:  # the symbols are the byte values from '0' (48) up
            raise ValueError("experiment alphabets are limited to 208 symbols")
        if self.mutation not in ("flip", "replace_uniform"):
            raise ValueError(f"unknown mutation model: {self.mutation}")
        if self.min_len < 1:
            raise ValueError("minimum MEM length must be at least 1")


def generate_instance(spec: ExperimentSpec) -> tuple[Text, Pattern]:
    """Deterministic (text, pattern) pair for the spec.

    The pattern is the first m symbols of the text pushed through the
    mutation model: "flip" swaps a position to a different uniformly chosen
    symbol with the given probability, "replace_uniform" redraws it
    uniformly over the whole alphabet (possibly onto itself).
    """
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    # consecutive byte values starting at '0': printable for the usual sizes
    alphabet = Alphabet(bytes(range(48, 48 + spec.sigma)))
    t_codes = rng.integers(0, spec.sigma, size=spec.n, dtype=np.uint8)
    p_codes = t_codes[: spec.m].copy()
    hit = rng.random(spec.m) < spec.rate
    if spec.mutation == "flip":
        if spec.sigma > 1:
            shift = rng.integers(1, spec.sigma, size=spec.m, dtype=np.uint8)
            p_codes[hit] = (p_codes[hit] + shift[hit]) % spec.sigma
    else:
        repl = rng.integers(0, spec.sigma, size=spec.m, dtype=np.uint8)
        p_codes[hit] = repl[hit]
    return Text(alphabet, t_codes.tobytes()), Pattern(alphabet, p_codes.tobytes())


def make_cyclic_text(text: Text, window: int) -> Text:
    """Text followed by its first `window` symbols, so matches may cross the seam.

    Occurrence positions found downstream are meant modulo the original
    length; classify_mems applies that reduction.
    """
    if not 1 <= window <= text.n:
        raise ValueError("window must be between 1 and the text length")
    return Text(text.alphabet, text.code_bytes + text.code_bytes[:window])


@dataclass(frozen=True)
class LengthHistogramRow:
    """Per-length tallies: all MEMs, those occurring once, and those aligned."""

    length: int
    count: int
    unique: int
    correct: int

    def __post_init__(self):
        if not 0 <= self.correct <= self.unique <= self.count:
            raise ValueError("need correct <= unique <= count")


def classify_mems(mems: list[MemRecord], pattern: Pattern, counter: SuffixArray,
                  base_n: int | None = None) -> list[LengthHistogramRow]:
    """Histogram rows, ascending by length.

    A MEM is "unique" when it occurs at exactly one position (positions
    reduced modulo base_n and deduplicated for cyclic texts) and "correct"
    when that single position equals its start offset in the pattern.
    """
    tally: dict[int, list[int]] = {}
    cap = base_n if base_n is not None else counter.n
    for mem in mems:
        positions = counter.occurrences(pattern.code_bytes[mem.start : mem.end])
        if base_n is not None:
            positions = sorted({p % base_n for p in positions})
        length = min(mem.length, cap)
        row = tally.setdefault(length, [0, 0, 0])
        row[0] += 1
        if len(positions) == 1:
            row[1] += 1
            if positions[0] == mem.start:
                row[2] += 1
    return [
        LengthHistogramRow(length, *tally[length]) for length in sorted(tally)
    ]


@dataclass(frozen=True)
class ComparisonReport:
    """Everything run_comparison measured, plus a canonical TSV rendering."""

    spec: ExperimentSpec
    cyclic_window: int | None
    histogram: tuple[LengthHistogramRow, ...]
    steps_full: int
    steps_thresholded: int
    steps_lcs: int
    mems_total: int
    mems_thresholded: int
    longest_length: int
    crosscheck_ok: bool

    @property
    def step_ratio(self) -> float:
        return self.steps_thresholded / self.steps_full if self.steps_full else 0.0

    def to_tsv(self) -> str:
        spec = self.spec
        lines = [
            "# memlight experiment report",
            f"# version: {__version__}",
            f"# prng: {PRNG_NAME}",
            f"# seed: {spec.seed}",
            f"# n: {spec.n}",
            f"# m: {spec.m}",
            f"# sigma: {spec.sigma}",
            f"# mutation: {spec.mutation}",
            f"# rate: {spec.rate}",
            f"# L: {spec.min_len}",
            f"# cyclic: {str(spec.cyclic).lower()}",
            f"# cyclic_window: {self.cyclic_window if self.cyclic_window is not None else '-'}",
            f"# sample_rate: {SAMPLE_RATE}",
            "# columns: length\tcount\tunique\tcorrect",
        ]
        for row in self.histogram:
            lines.append(f"{row.length}\t{row.count}\t{row.unique}\t{row.correct}")
        lines += [
            "# summary",
            f"# backward_steps_full: {self.steps_full}",
            f"# backward_steps_thresholded: {self.steps_thresholded}",
            f"# backward_steps_lcs: {self.steps_lcs}",
            f"# step_ratio_thresholded_vs_full: {self.step_ratio:.6f}",
            f"# mems_total: {self.mems_total}",
            f"# mems_at_least_L: {self.mems_thresholded}",
            f"# longest_mem_length: {self.longest_length}",
            f"# crosscheck_thresholded_equals_filtered_full: {'ok' if self.crosscheck_ok else 'FAIL'}",
        ]
        return "\n".join(lines) + "\n"


def run_comparison(spec: ExperimentSpec) -> ComparisonReport:
    """Run all three finders on one generated instance and tally the results."""
    text, pattern = generate_instance(spec)
    window = None
    indexed = text
    if spec.cyclic:
        window = min(spec.m + CYCLIC_MARGIN, spec.n)
        indexed = make_cyclic_text(text, window)
    sa_fwd = build_suffix_structures(indexed)
    # the pair `memlight index` writes: the forward index samples only its
    # sentinel row, the reverse one the default rate (nothing here locates)
    fm_fwd = build_fm(indexed, indexed.n + 1, sa=sa_fwd)
    fm_rev = build_fm(indexed.reversed())

    full = find_all_mems_fm(pattern, fm_fwd, fm_rev)
    thresholded = find_long_mems_fm(pattern, fm_fwd, fm_rev, spec.min_len)
    lcs = longest_common_substring(pattern, fm_fwd, fm_rev)

    wanted = [mem.span for mem in full.mems if mem.length >= spec.min_len]
    crosscheck_ok = wanted == thresholded.spans

    histogram = classify_mems(full.mems, pattern, sa_fwd,
                              base_n=spec.n if spec.cyclic else None)
    return ComparisonReport(
        spec=spec,
        cyclic_window=window,
        histogram=tuple(histogram),
        steps_full=full.stats.backward_steps,
        steps_thresholded=thresholded.stats.backward_steps,
        steps_lcs=lcs.stats.backward_steps,
        mems_total=len(full.mems),
        mems_thresholded=len(thresholded.mems),
        longest_length=lcs.mems[0].length if lcs.mems else 0,
        crosscheck_ok=crosscheck_ok,
    )
