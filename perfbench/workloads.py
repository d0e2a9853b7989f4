"""Seeded inputs for the benchmark workloads.

Each generator writes the files the CLI is given into a directory and
returns an `Inputs` record holding, besides the file paths, the exact text
the CLI indexes and the patterns it reads, so the oracle can be computed
without going through the program.  The same seed gives byte-identical
files; `Inputs.sha256` lets two runs show it.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from memlight.experiment import (CYCLIC_MARGIN, ExperimentSpec,
                                 generate_instance, make_cyclic_text)

DNA = np.frombuffer(b"ACGT", dtype=np.uint8)
FASTA_WIDTH = 60


@dataclass(frozen=True)
class Query:
    """One query command of a workload and the library finder behind it."""

    name: str
    args: tuple[str, ...]
    finder: str  # "long", "all" or "lcs"

    @property
    def locate(self) -> bool:
        return "--locate" in self.args


@dataclass
class Inputs:
    workload: str
    seed: int
    text_path: Path
    patterns_path: Path
    index_args: tuple[str, ...]
    pattern_args: tuple[str, ...]
    text: bytes  # the bytes the CLI indexes, separators included
    patterns: list[tuple[str, bytes]]
    min_len: int
    queries: tuple[Query, ...]
    base_n: int | None = None  # set for cyclic texts, as in the experiment
    generate_s: float = 0.0
    sha256: dict[str, str] = field(default_factory=dict)

    @property
    def pattern_symbols(self) -> int:
        return sum(len(raw) for _, raw in self.patterns)

    def record_files(self) -> None:
        self.sha256 = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                       for p in (self.text_path, self.patterns_path)}


def _fasta(records: list[tuple[str, bytes]]) -> bytes:
    lines = []
    for rid, seq in records:
        lines.append(b">" + rid.encode())
        lines.extend(seq[i : i + FASTA_WIDTH] for i in range(0, len(seq), FASTA_WIDTH))
    return b"\n".join(lines) + b"\n"


def concat_with_separators(records: list[bytes]) -> bytes:
    """Records joined as `index --concat-sep` joins them: the smallest unused
    byte values, ascending, one per boundary."""
    free = sorted(set(range(256)) - set(b"".join(records)))
    out = bytearray(records[0])
    for sep, seq in zip(free, records[1:]):
        out.append(sep)
        out.extend(seq)
    return bytes(out)


def _substitute(rng: np.random.Generator, codes: np.ndarray, rate: float) -> np.ndarray:
    """Each position moves to a different base with probability `rate`."""
    out = codes.copy()
    hit = rng.random(out.size) < rate
    out[hit] = (out[hit] + rng.integers(1, 4, size=int(hit.sum()), dtype=np.uint8)) % 4
    return out


def paper_binary(seed: int, workdir: Path, n: int = 1_000_000,
                 m: int = 10_000) -> Inputs:
    """The default ExperimentSpec instance: cyclic binary text, one flipped prefix."""
    started = time.perf_counter()
    spec = ExperimentSpec(n=n, m=m, seed=seed)
    text, pattern = generate_instance(spec)
    indexed = make_cyclic_text(text, min(spec.m + CYCLIC_MARGIN, spec.n))
    text_bytes, pattern_bytes = indexed.to_raw(), pattern.to_raw()
    text_path, patterns_path = workdir / "text.raw", workdir / "pattern.raw"
    text_path.write_bytes(text_bytes)
    patterns_path.write_bytes(pattern_bytes)
    L = spec.min_len
    inputs = Inputs(
        "paper-binary", seed, text_path, patterns_path, ("--raw",), ("--raw",),
        text_bytes, [(patterns_path.stem, pattern_bytes)], L,
        (Query("mems_long", ("mems", "-L", str(L)), "long"),
         Query("mems_all", ("mems", "--all"), "all"),
         Query("lcs", ("lcs",), "lcs")),
        base_n=spec.n, generate_s=time.perf_counter() - started)
    inputs.record_files()
    return inputs


def _repeat_genome(rng: np.random.Generator, n: int) -> np.ndarray:
    # copies of four repeat units (two of 300, two of 1,000 symbols) at 0-3%
    # divergence between random spacers of the same mean length, so about
    # half the genome is repeat copies
    units = [rng.integers(0, 4, size=size, dtype=np.uint8)
             for size in (300, 300, 1000, 1000)]
    parts, total = [], 0
    while total < n:
        spacer = rng.integers(0, 4, size=int(rng.integers(100, 1201)), dtype=np.uint8)
        copy = _substitute(rng, units[int(rng.integers(0, len(units)))],
                           float(rng.uniform(0.0, 0.03)))
        parts += [spacer, copy]
        total += spacer.size + copy.size
    return np.concatenate(parts)[:n]


def dna_repeats(seed: int, workdir: Path, n: int = 500_000, m: int = 5_000,
                reads: int = 16, records: int = 8) -> Inputs:
    """Repeat-rich ACGT genome as multi-record FASTA; reads with runs of N."""
    started = time.perf_counter()
    rng = np.random.Generator(np.random.PCG64(seed))
    genome = _repeat_genome(rng, n)
    per_record = n // records
    chroms = [DNA[genome[i * per_record : (i + 1) * per_record]].tobytes()
              for i in range(records)]
    read_records = []
    for r in range(reads):
        rec = int(rng.integers(0, records))
        start = int(rng.integers(0, per_record - m + 1))
        read = _substitute(rng, genome[rec * per_record + start :][:m], 0.05)
        raw = bytearray(DNA[read].tobytes())
        for _ in range(2):
            run = int(rng.integers(5, 51))
            at = int(rng.integers(0, m - run + 1))
            raw[at : at + run] = b"N" * run
        read_records.append((f"read{r}", bytes(raw)))
    text_path, patterns_path = workdir / "genome.fa", workdir / "reads.fa"
    text_path.write_bytes(_fasta([(f"chr{i + 1}", seq) for i, seq in enumerate(chroms)]))
    patterns_path.write_bytes(_fasta(read_records))
    L = 30
    inputs = Inputs(
        "dna-repeats", seed, text_path, patterns_path, ("--concat-sep",), (),
        concat_with_separators(chroms), read_records, L,
        (Query("mems_long", ("mems", "-L", str(L), "--locate"), "long"),
         Query("lcs", ("lcs",), "lcs")),
        generate_s=time.perf_counter() - started)
    inputs.record_files()
    return inputs


GENERATORS = {
    "paper-binary": paper_binary,
    "dna-repeats": dna_repeats,
}
