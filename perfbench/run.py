"""Benchmark of the globalsfm pipeline on seeded synthetic workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload dense_orbit --seed 0 --seconds 12 --trace 0

One invocation builds the workload's inputs from the seed, then starts
every pipeline run in a freshly forked process:

1. a traced run at one worker, whose outputs are the reference;
2. untraced runs until ``--seconds`` have passed.  With ``--trace 0`` they
   use the workload's worker count and give the end-to-end metrics; with
   ``--trace 1`` they alternate untraced and traced runs at one worker,
   for the per-layer metrics and the tracing overhead, and one more run at
   the workload's worker count follows.

Before every run the inputs are built again (timed, for ``setup_s``), and
the run's process times a fixed calibration kernel that runs no project
code, on as many processes as the run has workers.  The speed of a shared
host drifts by up to half over minutes and moves the kernel with it;
``wall_s``, ``cpu_s`` and ``setup_s`` are the medians over the window
scaled by the kernel's reference time over its median time, so that two
windows compare at the same host speed.  The measured medians are printed
next to them.

Every run must write ``poses.txt`` and ``report.json`` byte-identical to
the reference, register every camera and reach the workload's pose-AUC
floor; a run that raises or fails a check counts as failed.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it list every
metric with its unit, the input statistics and the environment.  A fuller
record goes to ``.perfbench_work/<workload>/result.json``.
"""

import os

# One BLAS/OpenMP thread per process, set before numpy loads and inherited
# by every run, so a run uses exactly its worker count of cores.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUTPUTS = ("poses.txt", "report.json")
MIN_RUNS = 3
SETUPS_PER_RUN = 3
# Runs stop early rather than cross this many seconds after the start.
DEADLINE_S = 160.0
# Median time of measure.calibrate() on the host the bounds were set on
# (2-core VM, Python 3.11, numpy 2.4).  Times are reported at this speed.
CALIBRATION_REFERENCE_S = 0.038

END_TO_END_UNITS = {
    "wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
    "pose_auc_1deg": "%", "pose_auc_5deg": "%", "registered_frac": "ratio",
}


def layer_unit(name):
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("_frac"):
        return "ratio"
    if "bytes" in name:
        return "B"
    return "count"


class Bench:
    """Runs and checks the pipeline runs of one invocation."""

    def __init__(self, workload, inputs, work, deadline):
        self.workload = workload
        self.inputs = inputs
        self.work = work
        self.deadline = deadline
        self.reference = None
        self.attempted = 0
        self.failures = []
        self.records = []
        self.longest_run_s = 0.0

    def time_left_for_run(self):
        return time.monotonic() + 1.5 * self.longest_run_s < self.deadline

    def run(self, workers, trace):
        """One checked pipeline run; returns its record, or None if it failed."""
        from measure import measure

        index = self.attempted
        self.attempted += 1
        out = self.work / f"run{index}"
        result = self.work / f"run{index}.json"
        started = time.monotonic()
        # A forked child is a fresh process with its own resource usage, but
        # skips interpreter start-up and imports.  This process runs no
        # threads (BLAS is pinned to one), so forking it is safe.
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                os.setpgid(0, 0)
                measure(self.inputs, out, workers, self.workload.config,
                        trace, result)
                code = 0
            except BaseException:
                traceback.print_exc()
            finally:
                os._exit(code)
        try:
            os.setpgid(pid, pid)
        except OSError:
            pass  # the child got there first, or has already exited
        returncode = self._wait(pid)
        self.longest_run_s = max(self.longest_run_s,
                                 time.monotonic() - started)
        label = f"run {index} (workers={workers}, trace={trace})"
        if returncode != 0 or not result.is_file():
            return self._fail(label, f"exit status {returncode}")
        record = json.loads(result.read_text())
        result.unlink()
        if "error" in record:
            return self._fail(label, record["error"])
        outputs = {name: (out / name).read_bytes() for name in OUTPUTS}
        shutil.rmtree(out)
        if self.reference is None:
            self.reference = outputs
        for name in OUTPUTS:
            if outputs[name] != self.reference[name]:
                return self._fail(label, f"{name} differs from the first "
                                         f"successful run's")
        if record["registered"] != record["cameras"]:
            return self._fail(label, f"registered {record['registered']} of "
                                     f"{record['cameras']} cameras")
        auc5 = record["pose_auc"]["5.0"]
        if auc5 < self.workload.min_pose_auc_5deg:
            return self._fail(label, f"pose AUC@5deg {auc5} below "
                                     f"{self.workload.min_pose_auc_5deg}")
        record["workers"] = workers
        record["trace"] = trace
        self.records.append(record)
        return record

    def _wait(self, pid):
        """Wait for a run.  Past the deadline, or when interrupted, kill its
        process group (the run and its pool workers) and reap it."""
        finished = False
        try:
            while time.monotonic() < self.deadline:
                done, status = os.waitpid(pid, os.WNOHANG)
                if done:
                    finished = True
                    return os.waitstatus_to_exitcode(status)
                time.sleep(0.02)
        finally:
            if not finished:
                try:
                    os.killpg(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass  # exited since the last poll
                status = os.waitpid(pid, 0)[1]
        return os.waitstatus_to_exitcode(status)

    def _fail(self, label, reason):
        self.failures.append(f"{label}: {reason}")
        return None


def environment():
    import scipy
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "threads": dict(THREAD_ENV),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    started = time.monotonic()
    # Turn SIGTERM into an exception, so that a running child is killed.
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))

    if not (SRC / "globalsfm" / "__init__.py").is_file():
        sys.exit(f"error: no globalsfm sources under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import globalsfm
    from workloads import WORKLOADS, build_inputs

    if SRC not in Path(globalsfm.__file__).resolve().parents:
        sys.exit(f"error: globalsfm imported from {globalsfm.__file__}")

    if args.workload not in WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    work = WORK / workload.name
    shutil.rmtree(work, ignore_errors=True)
    inputs = work / "input"

    setup_times = []

    def set_up():
        """Build and write the inputs again, timed; they are identical.

        Set-up is repeated before every run rather than only at the start,
        so that its median spans the same stretch of time as the runs'.
        """
        for _ in range(SETUPS_PER_RUN):
            shutil.rmtree(inputs, ignore_errors=True)
            t0 = time.perf_counter()
            stats = build_inputs(workload, args.seed, inputs)
            setup_times.append(time.perf_counter() - t0)
        return stats

    bench = Bench(workload, inputs, work, started + DEADLINE_S)
    traced = []
    untraced = []
    input_stats = set_up()
    record = bench.run(1, 1)
    if record is not None:
        traced.append(record)
    loop_workers = 1 if args.trace else workload.n_workers
    # With tracing, every other run is traced.
    min_runs = MIN_RUNS * (1 + args.trace)
    loop_started = time.monotonic()
    loop_runs = 0
    while bench.time_left_for_run() and (
            time.monotonic() - loop_started < args.seconds
            or loop_runs < min_runs):
        trace = args.trace and loop_runs % 2 == 1
        loop_runs += 1
        set_up()
        record = bench.run(loop_workers, int(trace))
        if record is not None:
            (traced if trace else untraced).append(record)
    if args.trace and workload.n_workers != 1 and bench.time_left_for_run():
        bench.run(workload.n_workers, 0)

    if not untraced or (args.trace and not traced):
        for failure in bench.failures:
            print(failure, file=sys.stderr)
        sys.exit("error: no successful run to report")

    def median(records, key):
        return statistics.median(r[key] for r in records)

    speed = CALIBRATION_REFERENCE_S / median(untraced, "calibration_s")
    raw = {"wall_s": median(untraced, "wall_s"),
           "cpu_s": median(untraced, "cpu_s"),
           "setup_s": statistics.median(setup_times)}
    first = bench.records[0]
    end_to_end = {
        "wall_s": raw["wall_s"] * speed,
        "cpu_s": raw["cpu_s"] * speed,
        "setup_s": raw["setup_s"] * speed,
        "peak_rss_mb": median(untraced, "peak_rss_mb"),
        "pose_auc_1deg": first["pose_auc"]["1.0"],
        "pose_auc_5deg": first["pose_auc"]["5.0"],
        "registered_frac": first["registered"] / first["cameras"],
    }
    layers, spans, missing = {}, [], []
    if traced:
        # The per-layer metrics are those of one traced run, the one with
        # the median wall time, so that its self times add up to its wall.
        median_traced = sorted(traced, key=lambda r: r["wall_s"])[
            (len(traced) - 1) // 2]
        layers = dict(median_traced["layers"])
        layers["trace.overhead_frac"] = (
            median(traced, "wall_s") / median(untraced, "wall_s") - 1.0)
        input_stats["candidate_pairs"] = int(
            layers["retrieval.candidate_pairs"])
        spans, missing = median_traced["spans"], median_traced["missing"]
    failed_frac = len(bench.failures) / bench.attempted

    env = environment()
    print(f"workload {workload.name} seed {args.seed}: {bench.attempted} runs "
          f"({len(untraced)} untraced at {loop_workers} worker(s), "
          f"{len(traced)} traced at 1 worker)")
    print("environment " + json.dumps(env, sort_keys=True))
    print("inputs " + json.dumps(input_stats, sort_keys=True))
    for failure in bench.failures:
        print(f"FAILED {failure}")
    print(f"host speed = {speed!r} of the reference (calibration kernel "
          f"{CALIBRATION_REFERENCE_S} s / "
          f"{median(untraced, 'calibration_s')!r} s)")
    for name, value in end_to_end.items():
        line = f"{name} = {value!r} {END_TO_END_UNITS[name]}"
        if name in raw:
            line += f" at reference speed; measured {raw[name]!r} s"
        print(line)
    print(f"failed_frac = {failed_frac!r} ratio")
    for name in sorted(layers):
        print(f"{name} = {layers[name]!r} {layer_unit(name)}")
    if missing:
        print("not traced (missing in program): " + ", ".join(missing))

    (work / "result.json").write_text(json.dumps({
        "workload": workload.name, "seed": args.seed,
        "environment": env, "inputs": input_stats,
        "end_to_end": end_to_end, "measured": raw, "host_speed": speed,
        "failed_frac": failed_frac,
        "per_layer": layers, "failures": bench.failures,
        "setup_times_s": setup_times,
        "runs": [{k: v for k, v in r.items() if k not in ("spans", "layers")}
                 for r in bench.records],
        "spans": spans,
    }, indent=2, sort_keys=True) + "\n")

    if args.trace:
        metrics = {name: {"value": value, "unit": layer_unit(name)}
                   for name, value in layers.items()}
    else:
        metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                   for name, value in end_to_end.items()}
    print(json.dumps({"correct": not bench.failures,
                      "attempted": bench.attempted,
                      "failed": len(bench.failures), "metrics": metrics}))


if __name__ == "__main__":
    main()
