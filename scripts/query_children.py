#!/usr/bin/env python3
"""Time memlight CLI commands as child processes under two source trees.

    python3 scripts/query_children.py OLD/src NEW/src --rounds 20 \\
        -c "mems PREFIX pattern.raw --raw -L 40" -c "lcs PREFIX pattern.raw --raw"

Each command runs as `python -m memlight.cli ...` with one tree's `src` on
PYTHONPATH.  A literal `{tree}` in a command becomes 1 under the first
tree and 2 under the second, so that two trees whose index formats differ
can each query an index they built themselves: `-c "lcs idx{tree} p.raw
--raw"` reads `idx1.*.memidx` under the first tree.  `--setup CMD` runs
one command once under each tree before the first round, `{tree}`
substituted the same way, so that each tree can build its own index:
`--setup "index text.raw -o idx{tree} --raw"`; its wall time and peak RSS
are printed first, as rows named `(setup) CMD`.  A round runs every
command once under each tree, back to back; which tree goes first
alternates from round to round.  For each command and tree the script
prints the median wall time with its quartiles, the median peak RSS
(`ru_maxrss` from `os.wait4`), and whether every run of the command gave
the same output; then the same for one round of all commands; and in how
many rounds the second tree was faster, for each command and for the whole
round.  It exits 1 when a child fails or the outputs differ.  The output of
an `index` command is the pair of files it writes at `-o PREFIX`, since
its stdout holds timings: `-c "index text.raw --raw -o idx{tree}"` times
`index` under both trees and checks that they write the same bytes.

This launcher imports only the standard library and spawns the children
itself, because a child's `ru_maxrss` keeps its parent's high-water mark
through exec: spawned from a large process, it reads that process's size.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import shlex
import statistics
import subprocess
import sys
import tempfile
import time


def output_digest(args: list[str], out) -> bytes:
    """The digest of a child's output: for `index -o PREFIX`, whose stdout
    holds timings, the two index files it wrote; else its stdout."""
    digest = hashlib.sha256()
    if args[:1] == ["index"]:
        prefix = next(value for flag, value in zip(args, args[1:])
                      if flag in ("-o", "--output"))
        for suffix in (".fwd.memidx", ".rev.memidx"):
            with open(prefix + suffix, "rb") as written:
                digest.update(written.read())
    else:
        out.seek(0)
        digest.update(out.read())
    return digest.digest()


def run_child(src: str, args: list[str], out) -> tuple[float, float, bytes]:
    """Wall seconds, peak RSS in MB and the output digest of one child."""
    out.seek(0)
    out.truncate()
    env = dict(os.environ, PYTHONPATH=src)
    started = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "memlight.cli", *args],
                            stdout=out, env=env)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode:
        sys.exit(f"query_children: {shlex.join(args)} under {src} "
                 f"exited with {proc.returncode}")
    return wall, usage.ru_maxrss / 1024.0, output_digest(args, out)


def tree_args(command: str, tree: int) -> list[str]:
    """The CLI arguments of a command under tree 1 or 2."""
    return shlex.split(command.replace("{tree}", str(tree)))


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("trees", nargs=2, metavar="SRC",
                        help="a source tree's src directory")
    parser.add_argument("-c", "--command", action="append", required=True,
                        help="CLI arguments after `memlight`, as one shell-quoted string")
    parser.add_argument("--setup", metavar="CMD",
                        help="CLI arguments run once under each tree before the first round")
    parser.add_argument("--rounds", type=int, default=10)
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    # commands[t][c] is command c with {tree} made tree t's number
    commands = [[tree_args(c, t) for c in args.command] for t in (1, 2)]
    # walls[t][c] and rss[t][c] hold one value per round
    walls = [[[] for _ in args.command] for _ in args.trees]
    rss = [[[] for _ in args.command] for _ in args.trees]
    digests = [set() for _ in args.command]
    setup = []  # (wall, peak) under each tree
    with tempfile.TemporaryFile() as out:
        if args.setup:
            for t, tree in enumerate(args.trees):
                setup.append(run_child(tree, tree_args(args.setup, t + 1), out)[:2])
        for round_ in range(args.rounds):
            order = (0, 1) if round_ % 2 == 0 else (1, 0)
            for c in range(len(args.command)):
                for t in order:
                    wall, peak, digest = run_child(args.trees[t], commands[t][c], out)
                    walls[t][c].append(wall)
                    rss[t][c].append(peak)
                    digests[c].add(digest)

    print("command\ttree\twall_ms_median\twall_ms_q1-q3\trss_mb_median\toutput")
    for tree, (wall, peak) in zip(args.trees, setup):
        print(f"(setup) {args.setup}\t{tree}\t{wall * 1e3:.1f}\t-\t{peak:.1f}\t-")
    for c, command in enumerate(args.command):
        same = "same" if len(digests[c]) == 1 else "DIFFERENT"
        for t, tree in enumerate(args.trees):
            q1, median, q3 = quartiles(walls[t][c])
            print(f"{command}\t{tree}\t{median * 1e3:.1f}"
                  f"\t{q1 * 1e3:.1f}-{q3 * 1e3:.1f}"
                  f"\t{statistics.median(rss[t][c]):.1f}\t{same}")
    rounds = [list(map(sum, zip(*walls[t]))) for t in range(2)]
    for t, tree in enumerate(args.trees):
        q1, median, q3 = quartiles(rounds[t])
        print(f"(one round)\t{tree}\t{median * 1e3:.1f}\t{q1 * 1e3:.1f}-{q3 * 1e3:.1f}"
              f"\t{max(map(statistics.median, rss[t])):.1f}\t-")
    pairs = [(command, walls[0][c], walls[1][c])
             for c, command in enumerate(args.command)]
    pairs.append(("one round", *rounds))
    for name, old, new in pairs:
        wins = sum(b < a for a, b in zip(old, new))
        print(f"# {name}: the second tree was faster in {wins} of {args.rounds} rounds")
    return int(any(len(d) > 1 for d in digests))


if __name__ == "__main__":
    sys.exit(main())
