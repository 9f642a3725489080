#!/usr/bin/env python3
"""Benchmark the compiled prime-field rank kernel against the pure fallback.

Two workloads:
* random dense matrices over F_p at growing sizes;
* the actual action matrices of every nilpotent orbit of a few gradings,
  evaluated at random points (the shape the checker produces in sweeps).

Run:  python benchmarks/bench_modrank.py
"""

import random
import time
from array import array

from thetagib import ThetaRep, build_action_matrix, build_centralizer
from thetagib._modrank_py import rank_mod_p as rank_py
from thetagib.exact_linalg import EVAL_PRIME
from thetagib.orbits import all_nilpotent_orbits

try:
    from thetagib._modrank import rank_mod_p as rank_c
except ImportError:
    rank_c = None


def timed(fn, reps=1):
    t0 = time.perf_counter()
    for _ in range(reps):
        fn()
    return (time.perf_counter() - t0) / reps


def bench_random(sizes=(10, 20, 40, 80), per_size=20, seed=7):
    rng = random.Random(seed)
    print(f"{'size':>6} {'pure (ms)':>12} {'compiled (ms)':>14} {'speedup':>8}")
    for n in sizes:
        mats = [
            array("q", [rng.randrange(EVAL_PRIME) for _ in range(n * n)])
            for _ in range(per_size)
        ]

        def run(kernel):
            def inner():
                for m in mats:
                    kernel(m, n, n, EVAL_PRIME)
            return inner

        t_py = timed(run(rank_py)) / per_size * 1e3
        if rank_c is None:
            print(f"{n:>6} {t_py:>12.3f} {'-':>14} {'-':>8}")
        else:
            t_c = timed(run(rank_c)) / per_size * 1e3
            print(f"{n:>6} {t_py:>12.3f} {t_c:>14.3f} {t_py / t_c:>7.1f}x")


def bench_action_matrices(vectors=((3, 3, 3), (3, 3, 4), (2, 2, 6)), trials=3, seed=11):
    rng = random.Random(seed)
    print(f"\n{'grading':>12} {'matrices':>9} {'pure (s)':>10} {'compiled (s)':>13} {'speedup':>8}")
    for vec in vectors:
        rep = ThetaRep.of(*vec)
        flats = []
        for orbit in all_nilpotent_orbits(rep):
            matrix = build_action_matrix(build_centralizer(orbit, rep.m))
            if matrix.rows == 0 or matrix.cols == 0:
                continue
            for _ in range(trials):
                point = [rng.randrange(EVAL_PRIME)
                         for _ in range(matrix.num_indeterminates)]
                flat = array("q", [
                    sum(c * point[k] for k, c in e.coeffs.items()) % EVAL_PRIME
                    for row in matrix.entries for e in row
                ])
                flats.append((flat, matrix.rows, matrix.cols))

        def run(kernel):
            def inner():
                for flat, nr, nc in flats:
                    kernel(flat, nr, nc, EVAL_PRIME)
            return inner

        t_py = timed(run(rank_py))
        label = "(" + ",".join(str(x) for x in vec) + ")"
        if rank_c is None:
            print(f"{label:>12} {len(flats):>9} {t_py:>10.3f} {'-':>13} {'-':>8}")
        else:
            t_c = timed(run(rank_c))
            print(f"{label:>12} {len(flats):>9} {t_py:>10.3f} {t_c:>13.3f} "
                  f"{t_py / t_c:>7.1f}x")


if __name__ == "__main__":
    if rank_c is None:
        print("compiled kernel not available; showing pure-Python timings only\n")
    bench_random()
    bench_action_matrices()
