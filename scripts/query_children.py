#!/usr/bin/env python3
"""Time memlight CLI commands under two source trees, as children and in process.

    python3 scripts/query_children.py OLD/src NEW/src --rounds 20 \\
        --setup "index text.raw --raw -o idx{tree}" \\
        -c "mems idx{tree} pattern.raw --raw -L 40" -c "lcs idx{tree} pattern.raw --raw"

A literal `{tree}` in a command becomes 1 under the first tree and 2 under
the second, so that each tree can query an index it built itself: `--setup
CMD` runs once under each tree before the first round, and its wall time
and peak RSS are printed as rows named `(setup) CMD`, whose output column
holds, for `index -o PREFIX`, the total bytes of the two index files it
wrote, so that a change of size shows next to the times.  A round runs every
command as `python -m memlight.cli ...` once under each tree, with that
tree's `src` on PYTHONPATH; which tree goes first alternates from round to
round.

Then every command is run as many rounds in this process, by each tree's
own `cli.main(argv)` with stdout captured: each tree's `memlight` is
imported under its own package name, and a run does all that a child does
(parse, load, lazy builds, search, locate and format) without the
interpreter's start-up and the noise between processes, so a change of a
few percent shows.  Each command gets one warm-up run per tree, and the
garbage is collected before every run.  Rows named `(in process) CMD` give
its times.

For each command and tree, and for one round of all commands as children,
the script prints the median wall time with its quartiles, the median peak
RSS of the children (`ru_maxrss` from `os.wait4`) and whether every run gave
the same output; then, for the children and in process alike, the median
per-round ratio of the second tree's time to the first's and in how many
rounds the second tree was faster.  A query's runs, children and in process,
must agree under both trees.  The output of `index -o PREFIX` is the two
files it wrote, since its stdout holds timings, and its runs must agree only
under the same tree: two trees may write different files on purpose, at
another sample rate or in another format.  Its two files are removed before
each run, as children and in process alike, outside the timed span, so that
no run pays for replacing the files of the run before.

Every child, `--setup` included, exits before either tree is imported: a
child's `ru_maxrss` keeps its parent's high-water mark through exec, so a
child spawned later would read the size of this process and its indexes.
For the same reason the modules that only the in-process phase and the
summary need are imported there, and outputs are digested by zlib's CRC-32:
zlib is loaded at start-up anyway, where hashlib would add megabytes.
The script exits 1 when a run fails or the outputs differ.
"""

from __future__ import annotations

import argparse
import os
import shlex
import subprocess
import sys
import tempfile
import time
import zlib


def index_files(args: list[str]) -> list[str]:
    """The two files that `index -o PREFIX` writes, the prefix given in any
    form the CLI takes; none for a query."""
    if args[:1] != ["index"]:
        return []
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("-o", "--output")
    prefix = output.parse_known_args(args[1:])[0].output
    return [prefix + suffix for suffix in (".fwd.memidx", ".rev.memidx")]


def remove_index_files(args: list[str]) -> None:
    """Remove the two files that `index -o PREFIX` is about to write, so
    that every run writes new files: rewriting a file in place can wait on
    the writeback of the file it replaces."""
    for path in index_files(args):
        try:
            os.remove(path)
        except FileNotFoundError:
            pass


def output_digest(args: list[str], stdout: bytes) -> int:
    """The CRC-32 of a run's output: for `index -o PREFIX`, whose stdout
    holds timings, the two index files it wrote; else its stdout."""
    files = index_files(args)
    if not files:
        return zlib.crc32(stdout)
    digest = 0
    for path in files:
        with open(path, "rb") as written:
            digest = zlib.crc32(written.read(), digest)
    return digest


def check_exit(src: str, args: list[str], code: int) -> None:
    if code:
        sys.exit(f"query_children: {shlex.join(args)} under {src} exited with {code}")


def run_child(src: str, args: list[str], out) -> tuple[float, float, int]:
    """Wall seconds, peak RSS in MB and the output digest of one child."""
    out.seek(0)
    out.truncate()
    remove_index_files(args)
    env = dict(os.environ, PYTHONPATH=src)
    started = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "memlight.cli", *args],
                            stdout=out, env=env)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    check_exit(src, args, proc.returncode)
    out.seek(0)
    return wall, usage.ru_maxrss / 1024.0, output_digest(args, out.read())


def tree_args(command: str, tree: int) -> list[str]:
    """The CLI arguments of a command under tree 1 or 2."""
    return shlex.split(command.replace("{tree}", str(tree)))


def tree_order(round_: int) -> tuple[int, int]:
    return (0, 1) if round_ % 2 == 0 else (1, 0)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """The first quartile, the median and the third quartile."""
    import statistics

    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def summary(name: str, old: list[float], new: list[float]) -> str:
    """The median per-round ratio of the second tree's time to the first's,
    and the rounds the second tree won."""
    ratio = quartiles([b / a for a, b in zip(old, new)])[1]
    wins = sum(b < a for a, b in zip(old, new))
    return (f"# {name}: second / first, median of {len(old)} rounds: {ratio:.3f}; "
            f"the second tree was faster in {wins} of {len(old)} rounds")


def tree_main(src: str, name: str):
    """The `cli.main` of a src directory's `memlight`, imported as `name`."""
    import importlib
    import importlib.util

    package = os.path.join(src, "memlight")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(package, "__init__.py"), submodule_search_locations=[package])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return importlib.import_module(f"{name}.cli").main


def time_in_process(trees: list[str], commands: list[list[list[str]]], rounds: int,
                    digests: list[list[set]]) -> list[list[list[float]]]:
    """The wall times of each command under each tree's own `cli.main` in
    this process, one per round after a warm-up run; every run's output
    digest joins the children's in digests[t][c].

    It imports both trees, so no child may be spawned after it is called.
    """
    import contextlib
    import gc
    import io

    mains = [tree_main(src, f"memlight_tree{t + 1}") for t, src in enumerate(trees)]

    def run(t, c):
        out = io.StringIO()
        remove_index_files(commands[t][c])
        gc.collect()
        started = time.perf_counter()
        with contextlib.redirect_stdout(out):
            code = mains[t](commands[t][c])
        wall = time.perf_counter() - started
        check_exit(trees[t], commands[t][c], code)
        digests[t][c].add(output_digest(commands[t][c], out.getvalue().encode()))
        return wall

    walls = [[[] for _ in commands[0]] for _ in trees]
    for c in range(len(commands[0])):
        for t in (0, 1):
            run(t, c)
        for round_ in range(rounds):
            for t in tree_order(round_):
                walls[t][c].append(run(t, c))
    return walls


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
    # digests[t][c] holds the output digests of command c under tree t
    digests = [[set() for _ in args.command] for _ in args.trees]
    setup = []  # (wall, peak, index pair bytes or "-") under each tree
    with tempfile.TemporaryFile() as out:
        if args.setup:
            for t, tree in enumerate(args.trees):
                setup_args = tree_args(args.setup, t + 1)
                wall, peak, _ = run_child(tree, setup_args, out)
                # read now: the other tree's setup may write the same files
                files = index_files(setup_args)
                setup.append((wall, peak, sum(map(os.path.getsize, files)) if files else "-"))
        for round_ in range(args.rounds):
            for c in range(len(args.command)):
                for t in tree_order(round_):
                    wall, peak, digest = run_child(args.trees[t], commands[t][c], out)
                    walls[t][c].append(wall)
                    rss[t][c].append(peak)
                    digests[t][c].add(digest)
    in_process = time_in_process(args.trees, commands, args.rounds, digests)

    def agree(c):
        """Whether command c's runs gave the same output: within each tree
        for `index`, across both trees for a query."""
        if index_files(commands[0][c]):
            return all(len(d[c]) == 1 for d in digests)
        return len(digests[0][c] | digests[1][c]) == 1

    def row(name, tree, times, peak, output):
        q1, median, q3 = quartiles(times)
        print(f"{name}\t{tree}\t{median * 1e3:.2f}\t{q1 * 1e3:.2f}-{q3 * 1e3:.2f}"
              f"\t{peak}\t{output}")

    print("command\ttree\twall_ms_median\twall_ms_q1-q3\trss_mb_median\toutput")
    for tree, (wall, peak, size) in zip(args.trees, setup):
        row(f"(setup) {args.setup}", tree, [wall], f"{peak:.1f}", size)
    same = ["same" if agree(c) else "DIFFERENT" for c in range(len(args.command))]
    for c, command in enumerate(args.command):
        for t, tree in enumerate(args.trees):
            row(command, tree, walls[t][c], f"{quartiles(rss[t][c])[1]:.1f}", same[c])
    rounds = [list(map(sum, zip(*walls[t]))) for t in range(2)]
    for t, tree in enumerate(args.trees):
        row("(one round)", tree, rounds[t],
            f"{max(quartiles(peaks)[1] for peaks in rss[t]):.1f}", "-")
    for c, command in enumerate(args.command):
        for t, tree in enumerate(args.trees):
            row(f"(in process) {command}", tree, in_process[t][c], "-", same[c])
    pairs = [(command, walls[0][c], walls[1][c]) for c, command in enumerate(args.command)]
    pairs.append(("one round", *rounds))
    pairs += [(f"(in process) {command}", in_process[0][c], in_process[1][c])
              for c, command in enumerate(args.command)]
    for name, old, new in pairs:
        print(summary(name, old, new))
    return int("DIFFERENT" in same)


if __name__ == "__main__":
    sys.exit(main())
