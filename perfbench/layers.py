"""The library calls the CLI makes, made in process, and the per-layer numbers they give.

`count_steps` runs the workload's finders untraced on the index a CLI
child wrote; `traced_pass` repeats a whole workload in CLI order with a
span around every call into a layer (the modules of `src/memlight`).
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

from memlight import (FmIndex, QueryStats, Text, build_fm, build_suffix_structures,
                      classify_mems, find_all_mems_fm, find_long_mems_fm,
                      longest_common_substring, split_by_foreign_chars)
from memlight.fasta import read_fasta

from spans import Tracer
from workloads import Inputs, concat_with_separators

FINDERS = ("all", "long", "lcs")
SAMPLE_RATE = 32  # the CLI default
PROBE_STRIDE = 8  # the backward-search probe starts at every 8th pattern position
STAT_FIELDS = ("backward_steps", "loop_iterations", "lcp_queries", "lcs_queries")


def index_paths(prefix: Path) -> tuple[Path, Path]:
    return Path(f"{prefix}.fwd.memidx"), Path(f"{prefix}.rev.memidx")


def _strip_newline(data: bytes) -> bytes:
    # what `--raw` does: strip one trailing newline, nothing else
    for end in (b"\r\n", b"\n"):
        if data.endswith(end):
            return data[: -len(end)]
    return data


def read_text(inputs: Inputs) -> bytes:
    """The bytes `memlight index` indexes for these inputs."""
    if "--raw" in inputs.index_args:
        return _strip_newline(inputs.text_path.read_bytes())
    records = [r.sequence for r in read_fasta(inputs.text_path)]
    return concat_with_separators(records) if "--concat-sep" in inputs.index_args else records[0]


def read_patterns(inputs: Inputs) -> list[tuple[str, bytes]]:
    if "--raw" in inputs.pattern_args:
        return [(inputs.patterns_path.stem, _strip_newline(inputs.patterns_path.read_bytes()))]
    return [(r.id, r.sequence) for r in read_fasta(inputs.patterns_path)]


def call_finder(finder: str, piece, fwd: FmIndex, rev: FmIndex, min_len: int):
    """`all` is the paper's full scan, `long` the thresholded finder, `lcs` the longest MEM."""
    if finder == "all":
        return find_all_mems_fm(piece, fwd, rev, report_intervals=True)
    if finder == "long":
        return find_long_mems_fm(piece, fwd, rev, min_len, report_intervals=True)
    return longest_common_substring(piece, fwd, rev)


@dataclass
class FinderTotals:
    stats: QueryStats = field(default_factory=QueryStats)
    mems: int = 0
    results: list = field(default_factory=list)  # (piece, FinderResult)


def run_finders(finders, pieces, fwd: FmIndex, rev: FmIndex, min_len: int,
                tracer: Tracer | None = None) -> dict[str, FinderTotals]:
    """Each finder on every piece, with counters summed per finder."""
    out = {}
    for finder in finders:
        totals = FinderTotals()
        for piece in pieces:
            with tracer.span("finders." + finder) if tracer else nullcontext():
                result = call_finder(finder, piece, fwd, rev, min_len)
            for name in STAT_FIELDS:
                setattr(totals.stats, name,
                        getattr(totals.stats, name) + getattr(result.stats, name))
            totals.mems += len(result.mems)
            totals.results.append((piece, result))
        out[finder] = totals
    return out


def count_steps(inputs: Inputs, prefix: Path) -> int:
    """backward_steps of the workload's finders on the index at prefix."""
    fwd, rev = (FmIndex.load(p) for p in index_paths(prefix))
    pieces = [piece for _, raw in inputs.patterns
              for _, piece in split_by_foreign_chars(raw, fwd.alphabet)]
    finders = [f for f in FINDERS if any(q.finder == f for q in inputs.queries)]
    totals = run_finders(finders, pieces, fwd, rev, inputs.min_len)
    return sum(t.stats.backward_steps for t in totals.values())


@dataclass
class TracedPass:
    metrics: dict[str, float]
    library_s: dict[str, float]  # per CLI command, time in traced library calls
    wall_s: float  # traced wall of the CLI commands


def traced_pass(inputs: Inputs, workdir: Path, tracer: Tracer) -> TracedPass:
    """The workload's CLI commands in process, then the layer-only measurements."""
    fwd_path, rev_path = index_paths(workdir / "traced")
    commands = []
    with tracer.span("index") as command:
        with tracer.span("fasta.parse"):
            text_bytes = read_text(inputs)
        with tracer.span("sequence.encode"):
            text = Text.from_bytes(text_bytes)
        with tracer.span("suffixes.sort"):
            sa_fwd = build_suffix_structures(text)
            sa_rev = build_suffix_structures(text.reversed())
        with tracer.span("fm.build"):
            fm_fwd = build_fm(text, SAMPLE_RATE, sa=sa_fwd)
            fm_rev = build_fm(text.reversed(), SAMPLE_RATE, sa=sa_rev)
        with tracer.span("fm.save"):
            fm_fwd.save(fwd_path)
            fm_rev.save(rev_path)
    commands.append(command)
    if text_bytes != inputs.text:
        raise RuntimeError("the traced pass read another text than the one generated")
    del fm_fwd, fm_rev, sa_rev

    pieces = []
    occurrences = 0
    for query in inputs.queries:
        with tracer.span(query.name) as command:
            with tracer.span("fm.load"):
                fwd, rev = FmIndex.load(fwd_path), FmIndex.load(rev_path)
            with tracer.span("fasta.parse"):
                patterns = read_patterns(inputs)
            split_pieces = []
            for _, raw in patterns:
                with tracer.span("sequence.split"):
                    split_pieces += [p for _, p in split_by_foreign_chars(raw, fwd.alphabet)]
            pieces = pieces or split_pieces
            for piece in split_pieces:
                # the calls `mems` and `lcs` make: `mems --all` is the
                # thresholded loop at L = 1, not the full scan
                if query.finder == "lcs":
                    with tracer.span("finders.longest_common_substring"):
                        result = longest_common_substring(piece, fwd, rev)
                else:
                    min_len = 1 if query.finder == "all" else inputs.min_len
                    with tracer.span("finders.find_long_mems_fm"):
                        result = find_long_mems_fm(piece, fwd, rev, min_len,
                                                   report_intervals=True)
                if query.locate:
                    with tracer.span("fm.locate"):
                        for mem in result.mems:
                            occurrences += len(rev.locate_all(mem.bwt_interval))
        commands.append(command)

    # layer-only measurements, outside every CLI command
    totals = run_finders(FINDERS, pieces, fwd, rev, inputs.min_len, tracer)
    if not any(q.locate for q in inputs.queries):
        # keep locate measured: the longest MEM of each piece
        for _, result in totals["lcs"].results:
            with tracer.span("fm.locate"):
                for mem in result.mems:
                    occurrences += len(rev.locate_all(mem.bwt_interval))
    probe = QueryStats()
    with tracer.span("fm.backward_search"):
        for piece in pieces:
            codes = piece.data.tolist()
            for end in range(piece.m, 0, -PROBE_STRIDE):
                fwd.backward_search_prefix(codes, end, probe)
    with tracer.span("experiment.classify"):
        for piece, result in totals["all"].results:
            classify_mems(result.mems, piece, sa_fwd, base_n=inputs.base_n)

    self_s = tracer.self_times()
    n = len(inputs.text)
    metrics = {
        "suffixes.sort_s": self_s["suffixes.sort"],
        "suffixes.sort_ns_per_sym": self_s["suffixes.sort"] / (2 * n) * 1e9,
        "fm.build_s": self_s["fm.build"],
        "fm.save_s": self_s["fm.save"],
        "fm.load_s": self_s["fm.load"],
        "fm.index_bytes_per_symbol": (fwd_path.stat().st_size + rev_path.stat().st_size) / n,
        "fm.steps": probe.backward_steps,
        "fm.step_us": self_s["fm.backward_search"] / max(1, probe.backward_steps) * 1e6,
        "fm.locate_s": self_s["fm.locate"],
        "fm.occurrences": occurrences,
        "fm.locate_us_per_occ": self_s["fm.locate"] / max(1, occurrences) * 1e6,
        "sequence.encode_s": self_s["sequence.encode"],
        "sequence.split_s": self_s["sequence.split"],
        "sequence.pieces": len(pieces),
        "fasta.parse_s": self_s["fasta.parse"],
        "experiment.classify_s": self_s["experiment.classify"],
    }
    for finder, t in totals.items():
        metrics[f"finders.{finder}.s"] = self_s[f"finders.{finder}"]
        for name in STAT_FIELDS:
            metrics[f"finders.{finder}.{name}"] = getattr(t.stats, name)
        metrics[f"finders.{finder}.mems"] = t.mems
    long = totals["long"]
    metrics["finders.long.mems_per_probe"] = long.mems / max(1, long.stats.lcs_queries)
    metrics["finders.step_ratio"] = (long.stats.backward_steps
                                     / max(1, totals["all"].stats.backward_steps))
    return TracedPass(metrics,
                      {c.name: tracer.child_time(c) for c in commands},
                      sum(c.duration for c in commands))
