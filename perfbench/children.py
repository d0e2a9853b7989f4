"""Running the memlight CLI as child processes, one at a time, and checking what they print."""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from oracle import Oracle, parse_tsv
from workloads import Inputs, Query

CHILD_TIMEOUT_S = 150.0


class ChildTimeout(Exception):
    """A child ran past CHILD_TIMEOUT_S and was killed."""


def _alarm(signum, frame):
    raise ChildTimeout


@dataclass
class Child:
    wall_s: float
    rss_mb: float
    returncode: int
    out: bytes


class Cli:
    """Runs `python -m memlight.cli` from the checkout's `src`, in a work directory."""

    def __init__(self, root: Path, workdir: Path):
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))

    def run(self, *args: str, python_args: tuple[str, ...] = ("-m", "memlight.cli")) -> Child:
        """Wall time from spawn to exit, and the child's own peak RSS (wait4).

        Standard output goes to a file and is returned; standard error is
        passed through, so a failing child's message shows in the run's log.
        """
        out_path = self.workdir / "child.out"
        with open(out_path, "wb") as out:
            started = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *python_args, *args], stdout=out,
                                    env=self.env, cwd=self.workdir)
            previous = signal.signal(signal.SIGALRM, _alarm)
            signal.setitimer(signal.ITIMER_REAL, CHILD_TIMEOUT_S)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # a timeout or a signal: leave no child behind
                proc.kill()
                os.wait4(proc.pid, 0)
                raise
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
            wall = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Child(wall, usage.ru_maxrss / 1024.0, proc.returncode, out_path.read_bytes())

    def index(self, inputs: Inputs, prefix: Path) -> Child:
        return self.run("index", str(inputs.text_path), "-o", str(prefix), *inputs.index_args)

    def query(self, inputs: Inputs, query: Query, prefix: Path) -> Child:
        return self.run(*query.args[:1], str(prefix), str(inputs.patterns_path),
                        *query.args[1:], *inputs.pattern_args)

    def startup(self) -> Child:
        """A child that only imports the CLI module."""
        return self.run(python_args=("-c", "import memlight.cli"))


def index_files(prefix: Path) -> list[Path]:
    return sorted(prefix.parent.glob(prefix.name + ".*"))


def check_query(inputs: Inputs, oracle: Oracle, query: Query,
                child: Child) -> tuple[dict[str, list] | None, int]:
    """Parsed rows and the number of patterns whose rows are wrong.

    Every pattern fails when the child exits non-zero or prints a malformed
    row; a row for a pattern id that was not asked for fails one more.
    """
    if child.returncode != 0:
        return None, len(inputs.patterns)
    try:
        rows = parse_tsv(child.out, query.locate)
    except ValueError:
        return None, len(inputs.patterns)
    ids = {rid for rid, _ in inputs.patterns}
    failed = sum(rows.get(rid, []) != oracle.rows(rid, query.finder, inputs.min_len,
                                                  query.locate)
                 for rid in ids)
    return rows, failed + len(set(rows) - ids)


def crosscheck(inputs: Inputs, long_rows: dict, all_rows: dict) -> int:
    """Patterns whose `-L` rows differ from the `--all` rows of length >= L."""
    return sum([r[:4] for r in long_rows.get(rid, [])]
               != [r[:4] for r in all_rows.get(rid, []) if r[2] >= inputs.min_len]
               for rid, _ in inputs.patterns)
