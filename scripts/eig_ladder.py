"""Time `tenspec.jacobi.sym_eig` over a ladder of matrix orders.

    python3 scripts/eig_ladder.py [--src DIR] [--sizes 16,32,...] [--repeats 5]

Each order n gets one seeded random symmetric matrix (uniform entries in
[-1, 1), symmetrized), solved `--repeats` times after one untimed warm-up
solve.  One JSON line per order goes to stdout: the median and all times,
the sweep count, max|V^T V - I| and the largest eigenvalue error against
`numpy.linalg.eigvalsh`, relative to max|lambda|.  `--src` selects the
source tree to import, so two checkouts can be compared with one script;
sweeps are read from `EigenResult.sweeps`.  BLAS threads are what the
environment sets.
"""

import argparse
import json
import statistics
import sys
import time

import numpy as np

LADDER = (16, 32, 48, 64, 96, 128, 256, 400, 768)


def random_symmetric(n, seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    m = rng.random((n, n)) * 2.0 - 1.0
    return 0.5 * (m + m.T)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default="src")
    parser.add_argument("--sizes", default=",".join(map(str, LADDER)))
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args(argv)
    sys.path.insert(0, args.src)
    from tenspec import jacobi

    for n in (int(size) for size in args.sizes.split(",")):
        a = random_symmetric(n, n)
        res = jacobi.sym_eig(a)
        times = []
        for _ in range(args.repeats):
            started = time.perf_counter()
            jacobi.sym_eig(a)
            times.append(time.perf_counter() - started)
        v = res.vectors
        reference = np.linalg.eigvalsh(a)[::-1]
        row = {
            "n": n,
            "median_s": round(statistics.median(times), 5),
            "times_s": [round(t, 5) for t in times],
            "sweeps": res.sweeps,
            "ortho_err": float(np.abs(v.T @ v - np.eye(n)).max()),
            "eig_rel_err": float(
                np.abs(res.eigenvalues - reference).max() / np.abs(reference).max()
            ),
        }
        print(json.dumps(row), flush=True)


if __name__ == "__main__":
    main()
