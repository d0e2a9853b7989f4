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
round.  For each command and tree, and for one round of all commands, the
script prints the median wall time with its quartiles, the median peak RSS
(`ru_maxrss` from `os.wait4`) and whether every run gave the same output;
then in how many rounds the second tree was faster.  A query's runs must
agree under both trees.  The output of `index -o PREFIX` is the two files
it wrote, since its stdout holds timings, and its runs must agree only
under the same tree: two trees may write different files on purpose, at
another sample rate or in another format.

Then each `mems` and `lcs` command is timed in this process for as many
rounds: each tree's `memlight` is imported under its own package name and
parses the command with its own CLI parser.  The patterns are read once,
by the second tree's `memlight.fasta.read_patterns`; each tree loads its
own `IndexPair` and runs one warm-up pass.  A pass runs `find_in_raw` over
every pattern and, under `--locate`, gives every MEM's text positions, the
ones `--locate` prints, through one `LocateMemo` per pass, as the CLI keeps
one per command.
Rows named `(in process) CMD` give each tree's median pass time with its
quartiles and its `backward_steps` per pass; a line per command gives the
median per-round ratio of the second tree's time to the first's, the
rounds the second tree won, the MEMs per pass and whether the trees' rows
are the same.  A pass carries no interpreter start-up and none of the
noise between processes, so a change of a few percent in the search shows.
A tree that lacks the library API this phase calls, such as one from
before `IndexPair`, or, for a `--locate` command, one from before
`LocateMemo`, gets a line `# (in process) CMD: skipped, SRC cannot be
driven: ERROR` for each such command instead.

Every child, `--setup` included, exits before either tree is imported: a
child's `ru_maxrss` keeps its parent's high-water mark through exec, so a
child spawned later would read the size of this process and its indexes.
For the same reason the modules that only the in-process phase and the
summary need are imported there, and outputs are digested by zlib's CRC-32:
zlib is loaded at start-up anyway, where hashlib would add megabytes.
The script exits 1 when a child fails or the outputs or the rows differ.
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
    """The two files that `index -o PREFIX` writes; none for a query."""
    if args[:1] != ["index"]:
        return []
    prefix = next(value for flag, value in zip(args, args[1:]) if flag in ("-o", "--output"))
    return [prefix + suffix for suffix in (".fwd.memidx", ".rev.memidx")]


def output_digest(args: list[str], out) -> int:
    """The CRC-32 of a child's output: for `index -o PREFIX`, whose stdout
    holds timings, the two index files it wrote; else its stdout."""
    files = index_files(args)
    if not files:
        out.seek(0)
        return zlib.crc32(out.read())
    digest = 0
    for path in files:
        with open(path, "rb") as written:
            digest = zlib.crc32(written.read(), digest)
    return digest


def run_child(src: str, args: list[str], out) -> tuple[float, float, int]:
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


def tree_order(round_: int) -> tuple[int, int]:
    return (0, 1) if round_ % 2 == 0 else (1, 0)


def faster_in(old: list[float], new: list[float]) -> str:
    wins = sum(b < a for a, b in zip(old, new))
    return f"the second tree was faster in {wins} of {len(old)} rounds"


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """The first quartile, the median and the third quartile."""
    import statistics

    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def import_tree(src: str, name: str):
    """The `memlight` package of a src directory, imported as `name`."""
    import importlib.util

    package = os.path.join(src, "memlight")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(package, "__init__.py"), submodule_search_locations=[package])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def search_pass(memlight, pair, patterns, min_len, longest, locate):
    """The rows of one pass over every pattern and its backward steps."""
    rows, steps = [], 0
    memo = memlight.LocateMemo(pair.rev) if locate else None
    for raw in patterns:
        result = memlight.find_in_raw(raw, pair, min_len, longest)
        steps += result.stats.backward_steps
        for mem in result.mems:
            iv = mem.bwt_interval
            rows.append((mem.start, mem.end, iv.lo, iv.hi,
                         pair.locate(mem, memo) if locate else None))
    return rows, steps


def time_in_process(trees: list[str], commands: list[str], rounds: int) -> bool:
    """Time each `mems` and `lcs` command's pass under both trees in this
    process, print the rows and return whether the trees' rows differ.

    It imports both trees, so no child may be spawned after it is called.
    """
    import importlib

    memlights = [import_tree(src, f"memlight_tree{t + 1}") for t, src in enumerate(trees)]
    differ = False
    print("command\ttree\tpass_ms_median\tpass_ms_q1-q3\tbackward_steps")
    for command in commands:
        def run(t):
            a = parsed[t]
            return search_pass(memlights[t], pairs[t], patterns, a.min_len, a.longest,
                               a.locate)

        # a tree without the library API called here, such as an older one,
        # is named and the command skipped
        parsed, pairs, warm, t = [], [], [], 0
        try:
            for t, m in enumerate(memlights):
                parsed.append(importlib.import_module(f"{m.__name__}.cli").build_parser()
                              .parse_args(tree_args(command, t + 1)))
                pairs.append(m.IndexPair.load(parsed[t].index))
            fasta = importlib.import_module(f"{memlights[1].__name__}.fasta")
            patterns = [raw for _, raw in fasta.read_patterns(parsed[1].patterns, parsed[1].raw)]
            for t in (0, 1):
                warm.append(run(t))
        except (AttributeError, ImportError, TypeError) as exc:
            print(f"# (in process) {command}: skipped, {trees[t]} cannot be driven: {exc}")
            continue
        walls = [[], []]
        for round_ in range(rounds):
            for t in tree_order(round_):
                started = time.perf_counter()
                run(t)
                walls[t].append(time.perf_counter() - started)
        for src, wall, (_, steps) in zip(trees, walls, warm):
            q1, median, q3 = quartiles(wall)
            print(f"(in process) {command}\t{src}\t{median * 1e3:.2f}"
                  f"\t{q1 * 1e3:.2f}-{q3 * 1e3:.2f}\t{steps}")
        ratio = quartiles([new / old for old, new in zip(*walls)])[1]
        same = warm[0][0] == warm[1][0]
        differ |= not same
        print(f"# (in process) {command}: second / first, median of {rounds} rounds: "
              f"{ratio:.3f}; {faster_in(*walls)}; MEMs per pass: {len(warm[1][0])}; "
              f"rows: {'same' if same else 'DIFFERENT'}")
    return differ


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

    def agree(c):
        """Whether command c's runs gave the same output: within each tree
        for `index`, across both trees for a query."""
        if index_files(commands[0][c]):
            return all(len(d[c]) == 1 for d in digests)
        return len(digests[0][c] | digests[1][c]) == 1

    print("command\ttree\twall_ms_median\twall_ms_q1-q3\trss_mb_median\toutput")
    for tree, (wall, peak, size) in zip(args.trees, setup):
        print(f"(setup) {args.setup}\t{tree}\t{wall * 1e3:.1f}\t-\t{peak:.1f}\t{size}")
    for c, command in enumerate(args.command):
        same = "same" if agree(c) else "DIFFERENT"
        for t, tree in enumerate(args.trees):
            q1, median, q3 = quartiles(walls[t][c])
            print(f"{command}\t{tree}\t{median * 1e3:.1f}"
                  f"\t{q1 * 1e3:.1f}-{q3 * 1e3:.1f}"
                  f"\t{quartiles(rss[t][c])[1]:.1f}\t{same}")
    rounds = [list(map(sum, zip(*walls[t]))) for t in range(2)]
    for t, tree in enumerate(args.trees):
        q1, median, q3 = quartiles(rounds[t])
        print(f"(one round)\t{tree}\t{median * 1e3:.1f}\t{q1 * 1e3:.1f}-{q3 * 1e3:.1f}"
              f"\t{max(quartiles(peaks)[1] for peaks in rss[t]):.1f}\t-")
    pairs = [(command, walls[0][c], walls[1][c])
             for c, command in enumerate(args.command)]
    pairs.append(("one round", *rounds))
    for name, old, new in pairs:
        print(f"# {name}: {faster_in(old, new)}")
    differ = not all(map(agree, range(len(args.command))))
    queries = [c for c in args.command if tree_args(c, 1)[:1] in (["mems"], ["lcs"])]
    if queries:
        differ |= time_in_process(args.trees, queries, args.rounds)
    return int(differ)


if __name__ == "__main__":
    sys.exit(main())
