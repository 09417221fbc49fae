"""Time `tenspec.jacobi.sym_eig` over a ladder of matrix orders.

    python3 scripts/eig_ladder.py [--src DIR] [--sizes 16,32,...] [--repeats 5]

Each order n gets one seeded semidefinite Gram B B^T of rank n // 3 (B with
uniform entries in [-1, 1); its pivoted Cholesky factor stops after n // 3
columns, and `sym_eig` sweeps those) and one seeded Gaussian Gram G G^T (G
n x n with standard normal entries; positive definite, so it sweeps all n
columns, in block pairs above `SINGLE_BLOCK_MAX`), each solved `--repeats`
times after one untimed warm-up solve.  One JSON line per order goes to
stdout: for the semidefinite Gram at the top level and for the Gaussian
Gram under "gram", the median and all times, the sweep count,
max|V^T V - I| over the returned vectors and the largest eigenvalue error
against `numpy.linalg.eigvalsh`, relative to max|lambda|.  `--src` selects
the source tree to import, so two checkouts can be compared with one
script; sweeps are read from `EigenResult.sweeps`.  BLAS threads are what
the environment sets.
"""

import argparse
import json
import statistics
import sys
import time

import numpy as np

LADDER = (16, 32, 48, 64, 96, 128, 256, 400, 768)


def semidefinite_gram(n, seed):
    b = np.random.Generator(np.random.PCG64(seed)).random((n, n // 3)) * 2.0 - 1.0
    return b @ b.T


def gaussian_gram(n, seed):
    g = np.random.Generator(np.random.PCG64(seed)).standard_normal((n, n))
    return g @ g.T


def measure(sym_eig, a, repeats):
    res = sym_eig(a)
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        sym_eig(a)
        times.append(time.perf_counter() - started)
    v = res.vectors
    reference = np.linalg.eigvalsh(a)[::-1]
    return {
        "median_s": round(statistics.median(times), 5),
        "times_s": [round(t, 5) for t in times],
        "sweeps": res.sweeps,
        "ortho_err": float(np.abs(v.T @ v - np.eye(v.shape[1])).max(initial=0.0)),
        "eig_rel_err": float(
            np.abs(res.eigenvalues - reference).max() / np.abs(reference).max()
        ),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default="src")
    parser.add_argument("--sizes", default=",".join(map(str, LADDER)))
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args(argv)
    sys.path.insert(0, args.src)
    from tenspec import jacobi

    for n in (int(size) for size in args.sizes.split(",")):
        row = {"n": n, **measure(jacobi.sym_eig, semidefinite_gram(n, n), args.repeats)}
        row["gram"] = measure(jacobi.sym_eig, gaussian_gram(n, n), args.repeats)
        print(json.dumps(row), flush=True)


if __name__ == "__main__":
    main()
