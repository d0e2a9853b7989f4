"""Command-line front end: build indexes, query MEMs, run experiments."""

from __future__ import annotations

import argparse
import signal
import sys
import time
from pathlib import Path

from .fasta import read_fasta
from .finders import (find_all_mems_fm, find_in_raw, find_long_mems_fm,
                      longest_common_substring)
from .fm import FmIndex, IndexFormatError, build_fm
from .sequence import Text

# `mems` and `lcs` import only the standard library: `index` and
# `experiment` import their numpy modules when they run

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INDEX = 3


def index_paths(prefix: str) -> tuple[Path, Path]:
    """The forward and the reverse index files at a path prefix."""
    return Path(prefix + ".fwd.memidx"), Path(prefix + ".rev.memidx")


# -- input reading -----------------------------------------------------------

def _read_raw(path: Path) -> bytes:
    """The file's bytes minus one trailing newline, as `--raw` promises."""
    data = path.read_bytes()
    for end in (b"\r\n", b"\n"):
        if data.endswith(end):
            return data[: -len(end)]
    return data


def _read_text_input(path: Path, raw: bool, concat_sep: bool) -> tuple[bytes, bytes]:
    """The text to index and the record separator it holds, if any.

    A FASTA text is its first record, or with `concat_sep` all its records
    joined by one byte value: the smallest that no record uses.  There is
    always one, since no record holds a line break.
    """
    if raw:
        return _read_raw(path), b""
    sequences = [r.sequence for r in read_fasta(path)]
    if not concat_sep or len(sequences) < 2:
        return b"".join(sequences[:1]), b""
    separator = bytes((min(set(range(256)).difference(*sequences)),))
    return separator.join(sequences), separator


def _read_pattern_inputs(path: Path, raw: bool) -> list[tuple[str, bytes]]:
    if raw:
        return [(path.stem, _read_raw(path))]
    return [(r.id, r.sequence) for r in read_fasta(path)]


# -- commands ----------------------------------------------------------------

def cmd_index(args) -> int:
    from .suffixes import build_suffix_structures

    text_bytes, separators = _read_text_input(Path(args.text), args.raw,
                                              args.concat_sep)
    fwd_path, rev_path = index_paths(args.output)
    sort_s = fm_s = write_s = 0.0
    started = clock = time.perf_counter()
    text = Text.from_bytes(text_bytes)
    # one direction at a time: its suffix array and index are dropped
    # before the other direction's are built
    for path in (fwd_path, rev_path):
        if path is rev_path:
            text = text.reversed()
        sa = build_suffix_structures(text)
        sorted_at = time.perf_counter()
        fm = build_fm(text, args.sample_rate, sa=sa, separators=separators)
        del sa
        built_at = time.perf_counter()
        fm.save(path)
        del fm
        done_at = time.perf_counter()
        sort_s += sorted_at - clock
        fm_s += built_at - sorted_at
        write_s += done_at - built_at
        clock = done_at
    print(f"n={text.n}\tsigma={text.alphabet.size}"
          f"\tbuild_seconds={clock - started:.3f}"
          f"\tsort_seconds={sort_s:.3f}"
          f"\tfm_seconds={fm_s:.3f}"
          f"\twrite_seconds={write_s:.3f}")
    return EXIT_OK


def _locate_forward(rev_index: FmIndex, interval, length: int) -> list[int]:
    # rows come from the reversed-text index; mirror positions back
    n = rev_index.n
    return sorted(n - p - length for p in rev_index.locate_all(interval))


def cmd_mems(args) -> int:
    patterns = _read_pattern_inputs(Path(args.patterns), args.raw)
    fm_fwd, fm_rev = map(FmIndex.load, index_paths(args.index))

    def finder(sub):
        if args.all:
            return find_all_mems_fm(sub, fm_fwd, fm_rev, report_intervals=True)
        return find_long_mems_fm(sub, fm_fwd, fm_rev, args.min_mem_length,
                                 report_intervals=True)

    for rid, raw in patterns:
        for mem in find_in_raw(raw, fm_fwd.alphabet, finder, fm_fwd.separators).mems:
            iv = mem.bwt_interval
            fields = [rid, str(mem.start + 1), str(mem.end), str(mem.length),
                      str(iv.width)]
            if args.intervals:
                fields.append(f"{iv.lo}:{iv.hi}")
            if args.locate:
                fields.extend(str(p + 1) for p in _locate_forward(fm_rev, iv, mem.length))
            print("\t".join(fields))
    return EXIT_OK


def cmd_lcs(args) -> int:
    patterns = _read_pattern_inputs(Path(args.patterns), args.raw)
    fm_fwd, fm_rev = map(FmIndex.load, index_paths(args.index))
    for rid, raw in patterns:
        result = find_in_raw(raw, fm_fwd.alphabet,
                             lambda sub: longest_common_substring(sub, fm_fwd, fm_rev),
                             fm_fwd.separators)
        if result.mems:
            best = max(result.mems, key=lambda mem: mem.length)  # the leftmost maximum
            print(f"{rid}\t{best.start + 1}\t{best.end}\t"
                  f"{best.length}\t{best.bwt_interval.width}")
    return EXIT_OK


def cmd_experiment(args) -> int:
    from .experiment import ExperimentSpec, run_comparison

    spec = ExperimentSpec(n=args.n, m=args.m, sigma=args.sigma,
                          mutation=args.mutation, rate=args.rate,
                          min_len=args.min_mem_length, seed=args.seed,
                          cyclic=args.cyclic, sample_rate=args.sample_rate)
    report = run_comparison(spec)
    text = report.to_tsv()
    if args.output:
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _min_length(value: str) -> int:
    # checked here too: a file whose patterns are all foreign bytes never
    # reaches the finders, which check it for library callers
    length = int(value)
    if length < 1:
        raise argparse.ArgumentTypeError("minimum MEM length must be at least 1")
    return length


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="memlight",
        description="Find maximal exact matches of at least a given length "
                    "against an indexed text.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("index", help="build and save an index")
    p.add_argument("text", help="text file (FASTA by default)")
    p.add_argument("-o", "--output", required=True, help="output path prefix")
    p.add_argument("--sample-rate", type=int, default=32)
    p.add_argument("--raw", action="store_true", help="treat input as raw bytes")
    p.add_argument("--concat-sep", action="store_true",
                   help="join all FASTA records with one unused byte value")
    p.set_defaults(func=cmd_index)

    p = sub.add_parser("mems", help="report MEMs of a pattern, TSV on stdout")
    p.add_argument("index", help="index path prefix")
    p.add_argument("patterns", help="pattern file (FASTA by default)")
    scan = p.add_mutually_exclusive_group()
    scan.add_argument("-L", "--L", "--min-mem-length", dest="min_mem_length",
                      type=_min_length, default=1)
    scan.add_argument("--all", action="store_true", help="report every MEM (full scan)")
    p.add_argument("--locate", action="store_true",
                   help="append 1-based occurrence positions")
    p.add_argument("--intervals", action="store_true",
                   help="append the suffix-order interval")
    p.add_argument("--raw", action="store_true")
    p.set_defaults(func=cmd_mems)

    p = sub.add_parser("lcs", help="report one longest MEM per pattern")
    p.add_argument("index")
    p.add_argument("patterns")
    p.add_argument("--raw", action="store_true")
    p.set_defaults(func=cmd_lcs)

    p = sub.add_parser("experiment", help="run a step-count comparison")
    p.add_argument("--n", type=int, default=1_000_000)
    p.add_argument("--m", type=int, default=10_000)
    p.add_argument("--sigma", type=int, default=2)
    p.add_argument("--mutation", choices=("flip", "replace_uniform"),
                   default="flip")
    p.add_argument("--rate", type=float, default=0.1)
    p.add_argument("-L", "--L", "--min-mem-length", dest="min_mem_length",
                   type=int, default=40)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--cyclic", action=argparse.BooleanOptionalAction, default=True)
    p.add_argument("--sample-rate", type=int, default=32)
    p.add_argument("--output", help="write the report here instead of stdout")
    p.set_defaults(func=cmd_experiment)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except IndexFormatError as exc:
        print(f"memlight: {exc}", file=sys.stderr)
        return EXIT_INDEX
    except (ValueError, OSError) as exc:
        print(f"memlight: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    # a closed stdout (`memlight mems ... | head`) ends the process quietly,
    # as it ends `cat`, instead of raising BrokenPipeError
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(main())


if __name__ == "__main__":
    entry()
