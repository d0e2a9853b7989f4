#!/usr/bin/env python3
"""How do the backward steps per pattern symbol grow with the text length?

Runs the experiment for alphabets of 2 and 4 symbols on texts of n/100, n/10
and n symbols, with m = min(10,000, n/2) and L = round(2 log_sigma n), and
prints both scans' steps per pattern symbol and the MEMs of length >= L.
"""

import argparse
import math

from memlight import ExperimentSpec, run_comparison

parser = argparse.ArgumentParser(description=__doc__)
parser.add_argument("--n", type=int, default=1_000_000)
parser.add_argument("--rate", type=float, default=0.1)
parser.add_argument("--seed", type=int, default=42)
args = parser.parse_args()
if args.n < 200:
    parser.error("--n must be at least 200, so that the shortest run has a pattern")
print("sigma\tn\tm\tL\tsteps/m\tfull_steps/m\tmems_at_least_L")
for sigma in (2, 4):
    for n in (args.n // 100, args.n // 10, args.n):
        spec = ExperimentSpec(n=n, m=min(10_000, n // 2), sigma=sigma, rate=args.rate,
                              min_len=round(2 * math.log(n, sigma)), seed=args.seed)
        r = run_comparison(spec)
        print(f"{sigma}\t{n}\t{spec.m}\t{spec.min_len}\t{r.steps_thresholded / spec.m:.2f}"
              f"\t{r.steps_full / spec.m:.2f}\t{r.mems_thresholded}")
