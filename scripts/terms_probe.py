"""Time the term sums of a triple decomposition, layer by layer.

    python3 scripts/terms_probe.py [--src DIR] [--seed 4242] [--repeats 15]
                                   [--blocks 32,64,128,256]

The input is the tensor of the `triple` benchmark workload for `--seed`
(64 x 32 x 32, uniform entries in [-1, 1), 2048 components).  One JSON
line per measurement goes to stdout:

* `distinct_u_rows`: per block size, the min / median / max number of
  distinct U rows (first-family rows) that a block of consecutive
  components holds;
* `reconstruct`, `replay`: median wall time of the full `reconstruct`
  and of the oracle's `replay_reconstruction`, with the relative error of
  the former;
* `curve_block`: median wall time of `residual_curve` with
  `decompose.TERM_BLOCK` set to each block size.

Each timing is the median of `--repeats` calls after one untimed call.
`--src` selects the source tree to import, so two checkouts can be
compared with one script.  BLAS threads are what the environment sets.
"""

import argparse
import json
import statistics
import sys
import time

import numpy as np


def median_time(call, repeats):
    call()
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        call()
        times.append(time.perf_counter() - started)
    return round(statistics.median(times), 5)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default="src")
    parser.add_argument("--seed", type=int, default=4242)
    parser.add_argument("--repeats", type=int, default=15)
    parser.add_argument("--blocks", default="32,64,128,256")
    args = parser.parse_args(argv)
    sys.path.insert(0, args.src)
    import tenspec as ts
    from tenspec import decompose, oracle

    # The benchmark draws each input's tensor seed from the workload seed.
    seed = int(np.random.default_rng(args.seed).integers(0, 2**31, size=1)[0])
    a = ts.GroupedTensor(ts.random_tensor((64, 32, 32), seed), (1, 1, 1))
    dec = ts.decompose_triple(a)
    blocks = [int(b) for b in args.blocks.split(",")]

    p = dec.pair_map[:, 0]
    for block in blocks:
        counts = [len(np.unique(p[lo : lo + block])) for lo in range(0, len(p), block)]
        row = {"distinct_u_rows": block, "min": min(counts), "max": max(counts)}
        row["median"] = statistics.median(counts)
        print(json.dumps(row), flush=True)

    rebuilt = ts.reconstruct(dec).data
    error = np.linalg.norm(rebuilt - a.tensor.data) / np.linalg.norm(a.tensor.data)
    for name, call in (
        ("reconstruct", lambda: ts.reconstruct(dec)),
        ("replay", lambda: oracle.replay_reconstruction(dec)),
    ):
        row = {name: median_time(call, args.repeats)}
        if name == "reconstruct":
            row["rel_error"] = float(error)
        print(json.dumps(row), flush=True)

    saved = decompose.TERM_BLOCK
    try:
        for block in blocks:
            decompose.TERM_BLOCK = block
            seconds = median_time(lambda: ts.residual_curve(a, dec), args.repeats)
            print(json.dumps({"curve_block": block, "s": seconds}), flush=True)
    finally:
        decompose.TERM_BLOCK = saved


if __name__ == "__main__":
    main()
