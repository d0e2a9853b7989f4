"""Command-line front end: build indexes, query MEMs, run experiments."""

from __future__ import annotations

import argparse
import struct
import sys
import time
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .experiment import ExperimentSpec, run_comparison
from .fasta import read_fasta
from .finders import (FinderConfig, find_in_raw, find_long_mems_fm,
                      find_long_mems_lce, longest_common_substring)
from .fm import FmIndex, IndexFormatError, build_fm
from .sequence import Alphabet, Pattern, Text, split_by_foreign_chars
from .suffixes import SuffixArray, build_suffix_structures, compute_match_pointers
from .lce import NaiveLce

SUP_MAGIC = b"MEMLSUP1"

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INDEX = 3


# -- support file (text + both suffix arrays, for the lce backend) ----------

def _save_support(path: Path, text: Text, sa_fwd: SuffixArray, sa_rev: SuffixArray) -> None:
    parts = [SUP_MAGIC,
             struct.pack("<2Q", text.n, text.alphabet.size),
             text.alphabet.symbols,
             text.data.tobytes(),
             sa_fwd.sa.astype("<i8").tobytes(),
             sa_rev.sa.astype("<i8").tobytes()]
    body = b"".join(parts)
    path.write_bytes(body + struct.pack("<I", zlib.crc32(body)))


def _load_support(path: Path) -> tuple[Text, SuffixArray, SuffixArray]:
    data = path.read_bytes()
    if data[:8] != SUP_MAGIC:
        raise IndexFormatError("not a memlight support file")
    if len(data) < 8 + 16 + 4:
        raise IndexFormatError("truncated support file")
    n, sigma = struct.unpack_from("<2Q", data, 8)
    if n < 1 or not 1 <= sigma <= 256:
        raise IndexFormatError("support file header is inconsistent")
    expected = 8 + 16 + sigma + n + 2 * (n + 1) * 8 + 4
    if len(data) != expected:
        raise IndexFormatError("truncated support file")
    if zlib.crc32(data[:-4]) != struct.unpack_from("<I", data, len(data) - 4)[0]:
        raise IndexFormatError("support file checksum mismatch")
    off = 24
    alphabet = Alphabet(data[off : off + sigma])
    off += sigma
    codes = np.frombuffer(data, dtype=np.uint8, count=n, offset=off)
    off += n
    sa_f = np.frombuffer(data, dtype="<i8", count=n + 1, offset=off).astype(np.int64)
    off += (n + 1) * 8
    sa_r = np.frombuffer(data, dtype="<i8", count=n + 1, offset=off).astype(np.int64)
    text = Text(alphabet, codes)
    return text, SuffixArray(text, sa_f), SuffixArray(text.reversed(), sa_r)


@dataclass
class IndexPaths:
    fwd: Path
    rev: Path
    sup: Path

    @classmethod
    def at(cls, prefix: str) -> "IndexPaths":
        return cls(Path(prefix + ".fwd.memidx"), Path(prefix + ".rev.memidx"),
                   Path(prefix + ".sup.memsup"))


# -- input reading -----------------------------------------------------------

def _read_text_input(path: Path, raw: bool, concat_sep: bool) -> bytes:
    if raw:
        data = path.read_bytes()
        if data.endswith(b"\r\n"):
            data = data[:-2]
        elif data.endswith(b"\n"):
            data = data[:-1]
        return data
    records = read_fasta(path)
    if not records:
        raise ValueError("empty text")
    if len(records) == 1 or not concat_sep:
        return records[0].sequence
    used = set(b"".join(r.sequence for r in records))
    free = sorted(set(range(256)) - used)
    if len(free) < len(records) - 1:
        raise ValueError("not enough unused byte values for record separators")
    out = bytearray(records[0].sequence)
    for sep, record in zip(free, records[1:]):
        out.append(sep)
        out.extend(record.sequence)
    return bytes(out)


def _read_pattern_inputs(path: Path, raw: bool) -> list[tuple[str, bytes]]:
    if raw:
        data = path.read_bytes()
        if data.endswith(b"\r\n"):
            data = data[:-2]
        elif data.endswith(b"\n"):
            data = data[:-1]
        return [(path.stem, data)]
    return [(r.id, r.sequence) for r in read_fasta(path)]


# -- commands ----------------------------------------------------------------

def cmd_index(args) -> int:
    text_bytes = _read_text_input(Path(args.text), args.raw, args.concat_sep)
    if not text_bytes:
        raise ValueError("empty text")
    started = time.perf_counter()
    text = Text.from_bytes(text_bytes)
    rev = text.reversed()
    sa_fwd = build_suffix_structures(text)
    sa_rev = build_suffix_structures(rev)
    sorted_at = time.perf_counter()
    fm_fwd = build_fm(text, args.sample_rate, sa=sa_fwd)
    fm_rev = build_fm(rev, args.sample_rate, sa=sa_rev)
    built_at = time.perf_counter()
    paths = IndexPaths.at(args.output)
    fm_fwd.save(paths.fwd)
    fm_rev.save(paths.rev)
    _save_support(paths.sup, text, sa_fwd, sa_rev)
    done_at = time.perf_counter()
    print(f"n={text.n}\tsigma={text.alphabet.size}"
          f"\tbuild_seconds={done_at - started:.3f}"
          f"\tsort_seconds={sorted_at - started:.3f}"
          f"\tfm_seconds={built_at - sorted_at:.3f}"
          f"\twrite_seconds={done_at - built_at:.3f}")
    return EXIT_OK


def _locate_forward(rev_index: FmIndex, interval, length: int) -> list[int]:
    # rows come from the reversed-text index; mirror positions back
    n = rev_index.n
    return sorted(n - p - length for p in rev_index.locate_all(interval))


def cmd_mems(args) -> int:
    config = FinderConfig(min_len=1 if args.all else args.min_mem_length,
                          backend=args.backend,
                          report_intervals=args.intervals,
                          locate=args.locate)
    if config.report_intervals and config.backend != "fm":
        raise ValueError("interval reporting requires the fm backend")
    paths = IndexPaths.at(args.index)
    patterns = _read_pattern_inputs(Path(args.patterns), args.raw)

    if config.backend == "fm":
        fm_fwd = FmIndex.load(paths.fwd)
        fm_rev = FmIndex.load(paths.rev)
        alphabet = fm_fwd.alphabet

        def finder(sub: Pattern):
            return find_long_mems_fm(sub, fm_fwd, fm_rev, config.min_len,
                                     report_intervals=True)

        for rid, raw in patterns:
            result = find_in_raw(raw, alphabet, finder)
            for mem in result.mems:
                fields = [rid, str(mem.start + 1), str(mem.start + mem.length),
                          str(mem.length), str(mem.bwt_interval.width)]
                if config.report_intervals:
                    fields.append(f"{mem.bwt_interval.lo}:{mem.bwt_interval.hi}")
                if config.locate:
                    pos = _locate_forward(fm_rev, mem.bwt_interval, mem.length)
                    fields.extend(str(p + 1) for p in pos)
                print("\t".join(fields))
    else:
        text, sa_fwd, sa_rev = _load_support(paths.sup)
        alphabet = text.alphabet
        for rid, raw in patterns:
            for offset, sub in split_by_foreign_chars(raw, alphabet):
                pointers = compute_match_pointers(sub, text, sa_fwd, sa_rev)
                result = find_long_mems_lce(sub, pointers, NaiveLce(text, sub),
                                            config.min_len)
                for mem in result.mems:
                    start = mem.start + offset
                    positions = sa_fwd.occurrences(sub.data[mem.start : mem.end])
                    fields = [rid, str(start + 1), str(start + mem.length),
                              str(mem.length), str(len(positions))]
                    if config.locate:
                        fields.extend(str(p + 1) for p in positions)
                    print("\t".join(fields))
    return EXIT_OK


def cmd_lcs(args) -> int:
    paths = IndexPaths.at(args.index)
    fm_fwd = FmIndex.load(paths.fwd)
    fm_rev = FmIndex.load(paths.rev)
    patterns = _read_pattern_inputs(Path(args.patterns), args.raw)
    for rid, raw in patterns:
        best = None
        best_start = -1
        for offset, sub in split_by_foreign_chars(raw, fm_fwd.alphabet):
            result = longest_common_substring(sub, fm_fwd, fm_rev)
            if result.mems and (best is None or result.mems[0].length > best.length):
                best = result.mems[0]
                best_start = best.start + offset
        if best is not None:
            print(f"{rid}\t{best_start + 1}\t{best_start + best.length}\t"
                  f"{best.length}\t{best.bwt_interval.width}")
    return EXIT_OK


def cmd_experiment(args) -> int:
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
                   help="concatenate FASTA records with unique separators")
    p.set_defaults(func=cmd_index)

    p = sub.add_parser("mems", help="report MEMs of a pattern, TSV on stdout")
    p.add_argument("index", help="index path prefix")
    p.add_argument("patterns", help="pattern file (FASTA by default)")
    p.add_argument("-L", "--L", "--min-mem-length", dest="min_mem_length",
                   type=int, default=1)
    p.add_argument("--backend", choices=("lce", "fm"), default="fm")
    p.add_argument("--all", action="store_true", help="report every MEM (L=1)")
    p.add_argument("--locate", action="store_true",
                   help="append 1-based occurrence positions")
    p.add_argument("--intervals", action="store_true",
                   help="append suffix-order interval (fm backend)")
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
    sys.exit(main())


if __name__ == "__main__":
    entry()
