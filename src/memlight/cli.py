"""Command-line front end: build indexes, query MEMs, run experiments."""

from __future__ import annotations

import argparse
import gc
import os
import signal
import sys
from pathlib import Path

from .fasta import read_patterns, read_text
from .finders import find_in_raw
from .fm import SAMPLE_RATE, IndexFormatError, IndexPair, write_index_pair

# `mems` and `lcs` import only the standard library: `index` and
# `experiment` import their numpy modules when they run

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INDEX = 3


# -- commands ----------------------------------------------------------------

def cmd_index(args) -> int:
    text_bytes, separators = read_text(args.text, args.raw, args.concat_sep)
    n, sigma, seconds = write_index_pair(text_bytes, args.output,
                                         args.sample_rate, separators)
    print(f"n={n}\tsigma={sigma}",
          *(f"{phase}_seconds={s:.3f}" for phase, s in seconds.items()), sep="\t")
    return EXIT_OK


def _print_mems(args) -> int:
    """One TSV row per MEM: id, 1-based start and end, length, occurrences;
    `lcs` is `mems -L 1` that keeps one longest MEM per pattern.

    Each pattern's rows go out in one write: on an unbuffered stdout, one
    print per row would cost two system calls.  Every pattern is searched
    first, and `--locate` then locates the whole command's MEMs in one
    batch, whose walks stop at each other's start rows.
    """
    # checked here too: a patterns file with no records never reaches
    # find_in_raw, which checks it for library callers
    if args.min_len < 1:
        raise ValueError("minimum MEM length must be at least 1")
    patterns = read_patterns(args.patterns, args.raw)
    pair = IndexPair.load(args.index)
    symbols = pair.fwd.alphabet.symbols
    if not args.raw and symbols.upper() != symbols:
        # FASTA reading folds a-z to A-Z, so no pattern could reach those
        # bytes of the index: the rows would be silently few or none
        raise ValueError(f"the index at {args.index} holds lower-case letters, which FASTA "
                         "patterns never hold (a-z is folded to A-Z); read the patterns "
                         "with --raw")
    found = [(rid, find_in_raw(raw, pair, args.min_len, args.longest).mems)
             for rid, raw in patterns]
    if args.locate:
        located = iter(pair.locate_many([mem for _, mems in found for mem in mems]))
    for rid, mems in found:
        rows = []
        for mem in mems:
            iv = mem.bwt_interval
            fields = [rid, str(mem.start + 1), str(mem.end), str(mem.length),
                      str(iv.width)]
            if args.intervals:
                fields.append(f"{iv.lo}:{iv.hi}")
            if args.locate:
                fields.extend(str(p + 1) for p in next(located))
            rows.append("\t".join(fields) + "\n")
        sys.stdout.write("".join(rows))
    return EXIT_OK


def cmd_experiment(args) -> int:
    from .experiment import ExperimentSpec, run_comparison

    given = {key: value for key, value in vars(args).items()
             if key not in ("command", "func", "output")}
    report = run_comparison(ExperimentSpec(**given))
    text = report.to_tsv()
    if args.output:
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="memlight",
        description="Find maximal exact matches of at least a given length "
                    "against an indexed text.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("index", help="build and save an index")
    p.add_argument("text", help="text file (FASTA by default)")
    p.add_argument("-o", "--output", required=True, help="output path prefix")
    p.add_argument("--sample-rate", type=int, default=SAMPLE_RATE,
                   help="sample rate of the reverse index, the one that locates")
    layout = p.add_mutually_exclusive_group()
    layout.add_argument("--raw", action="store_true", help="treat input as raw bytes")
    layout.add_argument("--concat-sep", action="store_true",
                        help="join all FASTA records with one unused byte value")
    p.set_defaults(func=cmd_index)

    p = sub.add_parser("mems", help="report MEMs of a pattern, TSV on stdout")
    p.add_argument("index", help="index path prefix")
    p.add_argument("patterns", help="pattern file (FASTA by default)")
    scan = p.add_mutually_exclusive_group()
    scan.add_argument("-L", "--L", "--min-mem-length", dest="min_len",
                      type=int, default=1)
    scan.add_argument("--all", action="store_const", dest="min_len", const=1,
                      help="report every MEM: the same as -L 1")
    p.add_argument("--locate", action="store_true",
                   help="append 1-based occurrence positions")
    p.add_argument("--intervals", action="store_true",
                   help="append the suffix-order interval")
    p.add_argument("--raw", action="store_true")
    p.set_defaults(func=_print_mems, longest=False)

    p = sub.add_parser("lcs", help="report one longest MEM per pattern")
    p.add_argument("index")
    p.add_argument("patterns")
    p.add_argument("--raw", action="store_true")
    p.set_defaults(func=_print_mems, longest=True, min_len=1, intervals=False, locate=False)

    # the defaults are ExperimentSpec's: an option not given is left out
    p = sub.add_parser("experiment", help="run a step-count comparison",
                       argument_default=argparse.SUPPRESS)
    p.add_argument("--n", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--sigma", type=int)
    p.add_argument("--mutation", choices=("flip", "replace_uniform"))
    p.add_argument("--rate", type=float)
    p.add_argument("-L", "--L", "--min-mem-length", dest="min_len", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--cyclic", action=argparse.BooleanOptionalAction)
    p.add_argument("--output", default=None, help="write the report here instead of stdout")
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
    # memlight calls no BLAS routine, so numpy's OpenBLAS, which reads this
    # when numpy is first imported, need not start and stop a thread per
    # core; a value the user set wins
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    code = main()
    # the interpreter's last collection at exit would only walk the index,
    # the rows and every module, all about to go: frozen objects are not
    # collected, while atexit handlers, flushes and teardown still run
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    entry()
