"""Time the term sums of a triple decomposition, layer by layer.

    python3 scripts/terms_probe.py [--src DIR] [--src DIR2 ...] [--seed 4242]
                                   [--repeats 15] [--blocks 32,64,128,256]

The input is the tensor of the `triple` benchmark workload for `--seed`
(64 x 32 x 32, uniform entries in [-1, 1), 2048 components).  One JSON
line per measurement goes to stdout:

* `distinct_u_rows`: per block size, the min / median / max number of
  distinct U rows (first-family rows) that a block of consecutive
  components holds;
* `reconstruct`: median wall time of the full `reconstruct`, with its
  relative error;
* `curve_block`: median wall time of `residual_curve` with
  `decompose.TERM_BLOCK` set to each block size;
* `replay`: per source tree, median wall time of the oracle's
  `replay_reconstruction` at each block size and at the tree's own
  default (`"block": "default"`), with the largest absolute error of the
  replay against the input.

Each timing is the median of `--repeats` calls after one untimed call.
`--src` selects the source tree to import; given more than once, the
replay is timed in every tree, the trees taking turns at each block size,
and the other measurements use the first tree.  A tree's replay block is
set through `oracle.REPLAY_BUDGET` (elements of a block's outer-product
rows, so block x 1024 here).  BLAS threads are what the environment sets.
"""

import argparse
import importlib
import json
import statistics
import sys
import time

import numpy as np

DIMS = (64, 32, 32)


def median_time(call, repeats):
    call()
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        call()
        times.append(time.perf_counter() - started)
    return round(statistics.median(times), 5)


def load(src):
    # Import tenspec from `src`, apart from any tree imported before: the
    # modules of earlier trees stay alive through the references kept.
    for name in [n for n in sys.modules if n.partition(".")[0] == "tenspec"]:
        del sys.modules[name]
    sys.path.insert(0, src)
    try:
        return importlib.import_module("tenspec")
    finally:
        sys.path.remove(src)


def time_replay(ts, dec, block, repeats):
    # Median replay time with the tree's block set to `block` components
    # (None: the tree's default), and the replay's largest absolute error.
    oracle = ts.oracle
    saved = oracle.REPLAY_BUDGET
    if block is not None:
        oracle.REPLAY_BUDGET = block * DIMS[1] * DIMS[2]
    try:
        seconds = median_time(lambda: oracle.replay_reconstruction(dec), repeats)
        return seconds, oracle.replay_reconstruction(dec).data
    finally:
        oracle.REPLAY_BUDGET = saved


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", action="append")
    parser.add_argument("--seed", type=int, default=4242)
    parser.add_argument("--repeats", type=int, default=15)
    parser.add_argument("--blocks", default="32,64,128,256")
    args = parser.parse_args(argv)
    trees = [(src, load(src)) for src in args.src or ["src"]]
    ts = trees[0][1]
    decompose = ts.decompose

    # The benchmark draws each input's tensor seed from the workload seed.
    seed = int(np.random.default_rng(args.seed).integers(0, 2**31, size=1)[0])
    a = ts.GroupedTensor(ts.random_tensor(DIMS, seed), (1, 1, 1))
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
    row = {"reconstruct": median_time(lambda: ts.reconstruct(dec), args.repeats)}
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

    # Each tree replays its own decomposition of the same tensor.
    decs = [
        t.decompose_triple(t.GroupedTensor(t.DenseTensor(a.tensor.data), (1, 1, 1)))
        for _, t in trees
    ]
    for turn, block in enumerate(blocks + [None]):
        order = list(zip(trees, decs))
        for (src, ts_k), dec_k in order[::-1] if turn % 2 else order:
            seconds, replayed = time_replay(ts_k, dec_k, block, args.repeats)
            row = {"replay": src, "block": "default" if block is None else block}
            row["s"] = seconds
            row["max_abs_error"] = float(np.abs(replayed - a.tensor.data).max())
            print(json.dumps(row), flush=True)


if __name__ == "__main__":
    main()
