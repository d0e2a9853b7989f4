#!/usr/bin/env python3
"""memlight benchmark: the CLI's index and query cost on one seeded workload.

    python3 perfbench/run.py --workload dna-repeats --seed 1 --seconds 24 --trace 0

Run from a memlight source tree: the CLI runs as `python -m memlight.cli`
with the tree's `src` on the path.  The last line of standard output is one
JSON object: `correct`, `attempted`, `failed` and `metrics`, which holds
every end-to-end metric of BENCHMARK.json with `--trace 0` and every
per-layer one with `--trace 1`.  Lines before it starting with `#` are run
metadata and per-child detail.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SETUP_RUNS = 3
STARTUP_RUNS = 3

if not (SRC / "memlight" / "__init__.py").is_file():
    sys.exit(f"perfbench: {SRC / 'memlight'} is missing; run from a memlight source tree")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import memlight  # noqa: E402
from children import Cli, check_query, crosscheck, index_files  # noqa: E402
from layers import count_steps, traced_pass  # noqa: E402
from oracle import Oracle  # noqa: E402
from spans import Tracer, span_cost  # noqa: E402
from workloads import GENERATORS, Inputs  # noqa: E402


class Tally:
    """(pattern, command) results checked against the oracle, and how many failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, attempted: int, failed: int) -> None:
        self.attempted += attempted
        self.failed += failed


def metadata() -> dict:
    """Context for comparing runs; none of it is a gated metric."""
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = done.stdout.strip() or None
    src_lines = sum(len(p.read_bytes().splitlines()) for p in SRC.rglob("*.py"))
    return {"python": platform.python_version(), "numpy": np.__version__,
            "nproc": os.cpu_count(), "cpu": cpu, "commit": commit,
            "src_lines": src_lines}


def end_to_end(inputs: Inputs, oracle: Oracle, cli: Cli, seconds: float,
               tally: Tally) -> dict[str, float]:
    """SETUP_RUNS rounds, each one `index` child and then the query commands
    in a closed loop with one client for a share of `seconds`.

    Interleaving spreads the samples over the whole run, so a burst of load
    from other tenants of the machine shifts fewer of them.
    """
    prefix = cli.workdir / "idx"
    setups, query_walls, query_rss = [], [], 0.0
    for _ in range(SETUP_RUNS):
        for path in index_files(prefix):
            path.unlink()
        child = cli.index(inputs, prefix)
        tally.add(1, int(child.returncode != 0 or not index_files(prefix)))
        setups.append(child)
        print(f"# index wall_s={child.wall_s:.4f} rss_mb={child.rss_mb:.1f} "
              f"rc={child.returncode}")
        deadline = time.perf_counter() + seconds / SETUP_RUNS
        while True:
            rows = {}
            for query in inputs.queries:
                child = cli.query(inputs, query, prefix)
                rows[query.finder], failed = check_query(inputs, oracle, query, child)
                tally.add(len(inputs.patterns), failed)
                query_walls.append(child.wall_s)
                query_rss = max(query_rss, child.rss_mb)
                print(f"# {query.name} wall_s={child.wall_s:.4f} "
                      f"rss_mb={child.rss_mb:.1f} rc={child.returncode} failed={failed}")
            if rows.get("long") is not None and rows.get("all") is not None:
                tally.add(len(inputs.patterns),
                          crosscheck(inputs, rows["long"], rows["all"]))
            if time.perf_counter() >= deadline:
                break

    return {
        "setup_s": statistics.median(c.wall_s for c in setups),
        "setup_rss_mb": statistics.median(c.rss_mb for c in setups),
        "index_bytes_per_symbol": (sum(p.stat().st_size for p in index_files(prefix))
                                   / len(inputs.text)),
        "query_sym_per_s": inputs.pattern_symbols * len(query_walls) / sum(query_walls),
        "query_rss_mb": query_rss,
        "backward_steps": count_steps(inputs, prefix),
    }


def traced(inputs: Inputs, oracle: Oracle, cli: Cli, tally: Tally,
           trace_path: Path) -> dict[str, float]:
    """One pass of the CLI commands as children, then the same work traced in process."""
    startup = statistics.median(cli.startup().wall_s for _ in range(STARTUP_RUNS))
    prefix = cli.workdir / "idx"
    index_child = cli.index(inputs, prefix)
    tally.add(1, int(index_child.returncode != 0))
    query_children = {}
    for query in inputs.queries:
        child = query_children[query.name] = cli.query(inputs, query, prefix)
        tally.add(len(inputs.patterns), check_query(inputs, oracle, query, child)[1])

    tracer = Tracer(f"{inputs.workload}/seed={inputs.seed}")
    layers = traced_pass(inputs, cli.workdir, tracer)
    tracer.write(trace_path)

    self_s = {"index": index_child.wall_s - layers.library_s["index"]}
    for name, child in query_children.items():
        self_s[name] = child.wall_s - layers.library_s[name]
    print("# cli self_s " + json.dumps(self_s))
    cli_wall = index_child.wall_s + sum(c.wall_s for c in query_children.values())
    traced_wall = sum(s.duration for s in tracer.spans if s.parent is None)
    metrics = dict(layers.metrics)
    metrics.update({
        "cli.startup_s": startup,
        "cli.index.self_s": self_s.pop("index"),
        "cli.query.self_s": sum(self_s.values()),
        "cli.rows": sum(c.out.count(b"\n") for c in query_children.values()),
        "cli.out_bytes": sum(len(c.out) for c in query_children.values()),
        "experiment.generate_s": inputs.generate_s,
        "trace.wall_s": layers.wall_s,
        "trace.cli_wall_s": cli_wall,
        "trace.overhead_ratio": len(tracer.spans) * span_cost() / traced_wall,
    })
    return metrics


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def result(spec: dict, trace: bool, metrics: dict[str, float], tally: Tally) -> dict:
    """The last output line: exactly the metrics BENCHMARK.json lists, with units."""
    listed = spec["per_layer" if trace else "end_to_end"]
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in listed},
    }


def run(workload: str, seed: int, seconds: float, trace: bool, **sizes) -> dict:
    """Generate the inputs, compute the oracle, measure; returns the result object."""
    spec = load_spec()
    WORK.mkdir(parents=True, exist_ok=True)
    workdir = WORK / f"{workload}-seed{seed}-pid{os.getpid()}"
    workdir.mkdir()
    try:
        inputs = GENERATORS[workload](seed, workdir, **sizes)
        print("# meta " + json.dumps(metadata()))
        print("# inputs " + json.dumps({"workload": workload, "seed": seed,
                                        "generate_s": inputs.generate_s,
                                        "text_symbols": len(inputs.text),
                                        "pattern_symbols": inputs.pattern_symbols,
                                        "sha256": inputs.sha256}))
        started = time.perf_counter()
        oracle = Oracle(inputs.text, inputs.patterns)
        print(f"# oracle_s={time.perf_counter() - started:.3f}")
        cli = Cli(ROOT, workdir)
        tally = Tally()
        if trace:
            metrics = traced(inputs, oracle, cli, tally,
                             WORK / "traces" / f"{workload}-seed{seed}.jsonl")
        else:
            metrics = end_to_end(inputs, oracle, cli, seconds, tally)
        return result(spec, trace, metrics, tally)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if Path(memlight.__file__).resolve().parent != (SRC / "memlight").resolve():
        sys.exit(f"perfbench: memlight was imported from {memlight.__file__}, not {SRC}")
    out = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
