#!/usr/bin/env python3
"""How does longest-common-substring search cost grow with pattern length?

Indexes one cyclic random binary text, then runs the adaptive-threshold
search for patterns of increasing length (mutated prefixes of the text) and
prints the backward-step counts.  Sublinear growth in m is the interesting
outcome; this script measures and logs, it does not assert.
"""

import argparse
import time

from memlight import (ExperimentSpec, build_fm, generate_instance,
                      longest_common_substring, make_cyclic_text)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=1_000_000)
    parser.add_argument("--sigma", type=int, default=2)
    parser.add_argument("--rate", type=float, default=0.1)
    parser.add_argument("--seed", type=int, default=42)
    args = parser.parse_args()

    lengths = [args.n // 100, args.n // 10, args.n]
    base_spec = ExperimentSpec(n=args.n, m=lengths[-1], sigma=args.sigma,
                               rate=args.rate, seed=args.seed)
    text, _ = generate_instance(base_spec)
    # the longest pattern is n long, so run_comparison's window of m plus a
    # margin, capped at n, is always n: the text is indexed twice over
    window = args.n
    indexed = make_cyclic_text(text, window)

    print(f"indexing n={args.n} (cyclic window {window})...", flush=True)
    started = time.perf_counter()
    # the forward index never locates: it samples only its sentinel row
    fm_fwd = build_fm(indexed, indexed.n + 1)
    fm_rev = build_fm(indexed.reversed())
    print(f"  built in {time.perf_counter() - started:.1f}s")

    print("m\tsteps\tsteps/m\tlongest\tseconds")
    for m in lengths:
        spec = ExperimentSpec(n=args.n, m=m, sigma=args.sigma, rate=args.rate,
                              seed=args.seed)
        _, pattern = generate_instance(spec)
        started = time.perf_counter()
        result = longest_common_substring(pattern, fm_fwd, fm_rev)
        elapsed = time.perf_counter() - started
        steps = result.stats.backward_steps
        longest = result.mems[0].length if result.mems else 0
        print(f"{m}\t{steps}\t{steps / m:.3f}\t{longest}\t{elapsed:.2f}")


if __name__ == "__main__":
    main()
