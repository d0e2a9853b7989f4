#!/usr/bin/env python3
"""Time the search of two source trees in one process, round by round.

    python3 scripts/paired_search.py OLD/src NEW/src PREFIX patterns.raw --raw \\
        -L 40 --rounds 15

Each tree's `memlight` is imported under its own package name, and each
loads its own index pair at PREFIX; a literal `{tree}` in PREFIX becomes 1
under the first tree and 2 under the second, as in `query_children.py`, so
that two trees whose index formats differ can each read a pair they built
themselves.  The patterns are read once, as `mems` reads them, by the
second tree's `memlight.fasta.read_patterns`.  A pass runs `find_in_raw`
over every pattern at `-L` (default 1), or for one longest MEM with
`--lcs`, and with `--locate` also locates every MEM in the reverse index.
One warm-up pass per tree builds what the first search and the first
locate build; then each round times one pass per tree, back to back, and
which tree goes first alternates from round to round.

The script prints each tree's median pass time with its quartiles, the
median of the per-round ratio of the second tree's time to the first's,
the rounds each tree won, and each tree's `backward_steps` per pass.  It
exits 1 when the trees' rows differ.  Timing both trees in one process
takes out the interpreter start-up and the process-to-process noise that
`query_children.py` measures with them, so that a change of a few percent
in the search shows.
"""

from __future__ import annotations

import argparse
import importlib.util
import statistics
import sys
import time
from pathlib import Path

from query_children import quartiles


def import_tree(src: str, name: str):
    """The `memlight` package of a src directory, imported as `name`."""
    package = Path(src) / "memlight"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def search_pass(memlight, fwd, rev, patterns, min_len, longest, locate):
    """The rows of one pass over every pattern and its backward steps."""
    rows, steps = [], 0
    for raw in patterns:
        result = memlight.find_in_raw(raw, fwd, rev, min_len, longest)
        steps += result.stats.backward_steps
        for mem in result.mems:
            iv = mem.bwt_interval
            rows.append((mem.start, mem.end, iv.lo, iv.hi,
                         rev.locate_all(iv) if locate else None))
    return rows, steps


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("trees", nargs=2, metavar="SRC",
                        help="a source tree's src directory")
    parser.add_argument("prefix", help="index path prefix; {tree} becomes 1 or 2")
    parser.add_argument("patterns", help="pattern file (FASTA unless --raw)")
    parser.add_argument("--raw", action="store_true")
    scan = parser.add_mutually_exclusive_group()
    scan.add_argument("-L", dest="min_len", type=int, default=1)
    scan.add_argument("--lcs", action="store_true", help="one longest MEM per pattern")
    parser.add_argument("--locate", action="store_true", help="also locate every MEM")
    parser.add_argument("--rounds", type=int, default=15)
    args = parser.parse_args(argv)
    if args.rounds < 1 or args.min_len < 1:
        parser.error("--rounds and -L must be at least 1")
    trees = [import_tree(src, f"memlight_tree{t + 1}") for t, src in enumerate(args.trees)]
    fasta = importlib.import_module(f"{trees[1].__name__}.fasta")
    patterns = [raw for _, raw in fasta.read_patterns(args.patterns, args.raw)]
    pairs = [[memlight.FmIndex.load(path) for path in memlight.index_paths(
        args.prefix.replace("{tree}", str(t + 1)))] for t, memlight in enumerate(trees)]

    def run(t):
        return search_pass(trees[t], *pairs[t], patterns, args.min_len, args.lcs, args.locate)

    warm = [run(t) for t in (0, 1)]
    walls = [[], []]
    for round_ in range(args.rounds):
        for t in ((0, 1) if round_ % 2 == 0 else (1, 0)):
            started = time.perf_counter()
            run(t)
            walls[t].append(time.perf_counter() - started)

    print("tree\tpass_ms_median\tpass_ms_q1-q3\tbackward_steps")
    for src, wall, (_, steps) in zip(args.trees, walls, warm):
        q1, median, q3 = quartiles(wall)
        print(f"{src}\t{median * 1e3:.2f}\t{q1 * 1e3:.2f}-{q3 * 1e3:.2f}\t{steps}")
    ratio = statistics.median(new / old for old, new in zip(*walls))
    wins = sum(new < old for old, new in zip(*walls))
    print(f"# second / first, median of {args.rounds} rounds: {ratio:.3f}; "
          f"the first tree won {args.rounds - wins} rounds, the second {wins}")
    same = warm[0][0] == warm[1][0]
    print(f"# MEMs per pass: {len(warm[1][0])}; rows: {'same' if same else 'DIFFERENT'}")
    return int(not same)


if __name__ == "__main__":
    sys.exit(main())
