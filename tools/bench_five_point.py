"""Before/after record of the five-point solver and the benchmark workloads.

Run from the root of a checkout, with a second checkout of the commit to
compare against (for example made with ``git archive``):

    python3 tools/bench_five_point.py --before ../parent --pairs 10

It writes ``BENCH_five_point.json`` at the root of this checkout with

* ``kernel``: ``five_point_essential`` per call on one 5-point sample, and
  per sample on stacks of ``CHUNK`` samples (``null`` where a tree's solver
  takes one sample per call only), both with BLAS pinned to one thread;
* ``end_to_end``: ``wall_s``, ``cpu_s``, ``pose_auc_1deg`` and
  ``pose_auc_5deg`` of ``perfbench/run.py --trace 0`` on every workload of
  ``BENCHMARK.json``, for its ``run_seconds``, in ``--pairs`` pairs of runs
  that alternate which tree goes first, with each side's median and
  quartiles and the number of pairs the change wins.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUTPUT = ROOT / "BENCH_five_point.json"
METRICS = ("wall_s", "cpu_s", "pose_auc_1deg", "pose_auc_5deg")
LOWER_IS_BETTER = {"wall_s", "cpu_s"}
CHUNK = 64
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}


def kernel_times(n_samples=256, repeats=5):
    """Median solver times of the ``globalsfm`` on ``sys.path``, in seconds."""
    import time

    import numpy as np
    from globalsfm.essential import five_point_essential

    rng = np.random.default_rng(0)
    x_i = rng.uniform(-0.5, 0.5, size=(n_samples, 5, 2))
    x_j = rng.uniform(-0.5, 0.5, size=(n_samples, 5, 2))

    def median_time(run):
        times = []
        for _ in range(repeats):
            started = time.perf_counter()
            run()
            times.append(time.perf_counter() - started)
        return statistics.median(times)

    per_call = median_time(lambda: [five_point_essential(x_i[k], x_j[k])
                                    for k in range(n_samples)]) / n_samples
    try:
        five_point_essential(x_i[:2], x_j[:2])
    except (ValueError, IndexError):
        per_sample = None
    else:
        per_sample = median_time(lambda: [
            five_point_essential(x_i[k:k + CHUNK], x_j[k:k + CHUNK])
            for k in range(0, n_samples, CHUNK)]) / n_samples
    return {"per_call_s": per_call, "per_sample_s": per_sample,
            "chunk": CHUNK}


def run_kernel(tree):
    env = dict(os.environ, **THREAD_ENV,
               PYTHONPATH=str(Path(tree) / "src"))
    out = subprocess.run([sys.executable, __file__, "--kernel"], env=env,
                         check=True, capture_output=True, text=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def run_benchmark(tree, workload, seconds):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "0", "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, check=True, capture_output=True, text=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    record = {name: result["metrics"][name]["value"] for name in METRICS}
    record["correct"] = result["correct"]
    record["failed"] = result["failed"]
    return record


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def compare(before_runs, after_runs):
    out = {}
    for name in METRICS:
        before = [r[name] for r in before_runs]
        after = [r[name] for r in after_runs]
        sign = -1.0 if name in LOWER_IS_BETTER else 1.0
        out[name] = {"before": summary(before), "after": summary(after),
                     "after_wins": sum(sign * (a - b) > 0
                                       for a, b in zip(after, before)),
                     "pairs": len(before)}
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--before", help="checkout of the commit to compare against")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--kernel", action="store_true",
                        help="print the solver times of the globalsfm on PYTHONPATH")
    args = parser.parse_args()
    if args.kernel:
        print(json.dumps(kernel_times()))
        return
    if args.before is None:
        parser.error("--before is required")
    trees = {"before": Path(args.before).resolve(), "after": ROOT}
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = benchmark["run_seconds"]

    record = {"kernel": {side: run_kernel(tree) for side, tree in trees.items()},
              "end_to_end": {},
              "settings": {"pairs": args.pairs, "seconds": seconds,
                           "command": "perfbench/run.py --seed 0 --trace 0"}}
    for workload in (w["name"] for w in benchmark["workloads"]):
        runs = {"before": [], "after": []}
        for pair in range(args.pairs):
            order = ("before", "after") if pair % 2 == 0 else ("after", "before")
            for side in order:
                runs[side].append(run_benchmark(trees[side], workload, seconds))
                print(workload, pair, side, runs[side][-1], flush=True)
        record["end_to_end"][workload] = {"summary": compare(runs["before"], runs["after"]),
                                          "runs": runs}
    OUTPUT.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(f"wrote {OUTPUT}")


if __name__ == "__main__":
    main()
