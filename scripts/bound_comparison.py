#!/usr/bin/env python3
"""Compare eigenvalue-location estimates across a purity sweep.

For each built-in frame and a grid of random states, prints the true
largest Gram eigenvalue next to the trace/Frobenius interval bound, the
closed-form purity bound and the Gershgorin union bound. The last column
shows which estimate is tighter at that state. Every column is read off
the report that ``kdf bounds`` prints, built by ``build_bounds_report``.
"""

import argparse

import numpy as np

from kdframes.cli import build_bounds_report
from kdframes.frames import (
    coherence_constant,
    complement_etf,
    orthonormal_frame,
    random_density_matrix,
    sic_qubit,
)


def scan(frame, name: str, states: int, seed: int) -> None:
    n, d = frame.n, frame.d
    print(f"\n{name} (n={n}, d={d}, c={coherence_constant(n, d):.4f})")
    print(f"{'purity':>8} {'true max':>10} {'interval':>10} {'closed':>10} {'gershgorin':>11}  winner")
    for k in range(states):
        rho = random_density_matrix(d, np.random.default_rng([seed, k]))
        report = build_bounds_report(frame, rho, f"ginibre:{seed},{k}", [])
        true_max = report["true_spectrum"][0]
        interval_bound = report["eigen_interval"]["upper"]
        closed_bound = report["closed_form_interval"]["upper"]
        gershgorin_bound = report["gershgorin"]["union_upper"]
        winner = "interval" if interval_bound <= gershgorin_bound else "gershgorin"
        print(
            f"{report['purity']:8.4f} {true_max:10.6f} {interval_bound:10.6f} "
            f"{closed_bound:10.6f} {gershgorin_bound:11.6f}  {winner}"
        )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--states", type=int, default=8, help="random states per frame")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    base = sic_qubit()
    scan(base, "qubit SIC", args.states, args.seed)
    scan(complement_etf(base), "qubit SIC complement", args.states, args.seed + 1)
    scan(orthonormal_frame(3), "orthonormal basis d=3", args.states, args.seed + 2)


if __name__ == "__main__":
    main()
