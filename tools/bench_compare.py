"""Before/after record of the benchmark workloads and, optionally, one kernel.

Run from the root of a checkout, with a second checkout of the commit to
compare against (for example made with ``git archive``):

    python3 tools/bench_compare.py --before ../parent --pairs 10 \
        --output BENCH_triangulation.json --probe triangulation

It writes the ``--output`` file (relative to the root of this checkout)
with

* ``kernel``: the ``--probe`` records of each tree, with BLAS pinned to one
  thread (``null`` without a probe), from ``PROBE_ROUNDS`` rounds of one
  fresh probe process per tree that alternate which tree goes first:
  ``rounds`` keeps every record, and ``summary`` gives, per time of the
  record (keys joined by dots), each side's median and quartiles over the
  rounds and the number of rounds the change wins (``after_wins`` of
  ``pairs`` rounds).  The probes:
  * ``five_point``: ``five_point_essential`` per call on one 5-point
    sample, and per sample on stacks of ``CHUNK`` samples;
  * ``triangulation``: ``triangulate_tracks`` per track on ``N_TRACKS``
    noisy ten-view tracks, one track per call and in the pipeline's chunks
    of ``pipeline.TRIANGULATION_CHUNK``; and under ``workloads``, per
    ``BENCHMARK.json`` workload at seed 0, one pass of
    ``pipeline._triangulate_task`` over every chunk that a one-worker run
    hands it, in ``WORKLOAD_PASSES`` passes, with the chunk and track
    counts and the ``tracks._triangulate_group`` calls of one pass (one
    per number of posed views in a chunk);
  * ``two_view``: ``two_view_ba`` per pair on the refined pairs of the
    ``sparse_wide`` workload, one pair per call and in chunks of
    ``pipeline.TWO_VIEW_CHUNK`` pairs, with the tasks that each tree's
    ``verify_pairs`` hands it;
  * ``verify``: ``verify_pairs`` without the refinement (screen, RANSAC,
    floors and decomposition) per pair, one pair per call and in chunks of
    ``pipeline.TWO_VIEW_CHUNK`` pairs, in ``VERIFY_PASSES`` passes, on the
    matches of the ``sparse_wide`` and ``dense_orbit`` workloads, with the
    peak-RSS growth of one pass over the pairs in a fresh process (after
    the inputs are read);
  * ``tracks``: ``build_tracks`` per call on the ground-truth matches of
    the noise-free 10-camera x 60-point ``dense_orbit`` scene and of a
    60 x 3000 orbit scene (every point seen by every camera: 5.31M rows),
    with the track and observation counts of the table it returns;
  * ``io``: per file (``matches.json``, ``keypoints.json``) of orbit
    scenes at ``IO_SIZES`` (the ``dense_orbit`` size and 30 x 1500,
    0.5 px noise): the ``io`` writer's and reader's times, the file's
    size, and the time and peak-RSS growth of the read in a fresh process
    (medians of ``FRESH_READS`` processes);
  * ``mfas``: ``translation_averaging.mfas_filter`` per call on the
    direction set the filter gets in a one-worker run of each workload of
    ``perfbench/workloads.py`` (seed 0), and on synthetic networks of
    ``MFAS_NETWORKS`` sizes in which every camera sees every other camera
    and every landmark;

  every time is the median of its passes, recorded next to the first and
  third quartiles of the passes (``<name>_quartiles``); the ``two_view``
  and ``verify`` probes run on the input files that
  ``perfbench/workloads.build_inputs`` writes for the workload at seed 0,
  read back with the tree's ``globalsfm.io`` readers;
* ``end_to_end``: every ``end_to_end`` metric of ``BENCHMARK.json``, as
  ``perfbench/run.py --trace 0`` reports it on every workload of
  ``BENCHMARK.json``, for its ``run_seconds``, in ``--pairs`` pairs of runs
  that alternate which tree goes first, with each side's median and
  quartiles and the number of pairs the change wins (by the metric's
  ``better`` direction).

``--seed`` picks the workload seed (0 is the base scene; any other value
is a held-out scene of the same shape).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CHUNK = 64
N_TRACKS = 60
IO_SIZES = ((10, 60), (30, 1500))
FRESH_READS = 3
# (cameras, landmarks) of the synthetic direction networks of ``--probe mfas``
MFAS_NETWORKS = ((30, 90), (60, 180))
MFAS_WORKLOADS = ("dense_orbit", "sparse_wide", "rejected_pairs")
VERIFY_WORKLOADS = ("sparse_wide", "dense_orbit")
# passes of each verify timing (a pass takes under a second), so that its
# quartiles rest on more than the five passes of the other probes
VERIFY_PASSES = 21
# passes over a workload's triangulation chunks (a pass takes milliseconds)
WORKLOAD_PASSES = 30
# rounds of each tree's probe process, alternating which tree goes first
PROBE_ROUNDS = 5
FRESH_READ = """
import sys, time
sys.path.insert(0, sys.argv[1])
import bench_compare
from globalsfm import io

before = bench_compare.peak_kib()
started = time.perf_counter()
getattr(io, sys.argv[2])(sys.argv[3])
seconds = time.perf_counter() - started
print(seconds, (bench_compare.peak_kib() - before) / 1024)
"""
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
FRESH_VERIFY = """
import sys
sys.path.insert(0, sys.argv[1])
import bench_compare

tasks, cfg, chunk = bench_compare.verify_tasks(sys.argv[2])
step = chunk if sys.argv[3] == "chunked" else 1
before = bench_compare.peak_kib()
bench_compare.verify_pass(tasks, cfg, step)
print((bench_compare.peak_kib() - before) / 1024)
"""


def median_time(run, repeats=5):
    """The median and quartiles (``summary``) of the times of ``repeats``
    passes of ``run``, in seconds."""
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        run()
        times.append(time.perf_counter() - started)
    # one pass is its own median and quartiles
    return summary(times if len(times) > 1 else times * 2)


def timing(name, run, n=1, repeats=5):
    """``{name: median, name + "_quartiles": [q1, q3]}`` of the time per
    item of ``repeats`` passes of ``run`` over ``n`` items, in seconds."""
    times = median_time(run, repeats)
    return {name: times["median"] / n,
            f"{name}_quartiles": [times["q1"] / n, times["q3"] / n]}


def five_point_times(n_samples=256):
    """Median solver times of the ``globalsfm`` on ``sys.path``, in seconds."""
    import numpy as np
    from globalsfm.essential import five_point_essential

    rng = np.random.default_rng(0)
    x_i = rng.uniform(-0.5, 0.5, size=(n_samples, 5, 2))
    x_j = rng.uniform(-0.5, 0.5, size=(n_samples, 5, 2))
    return {**timing("per_call_s", lambda: [
                five_point_essential(x_i[k], x_j[k])
                for k in range(n_samples)], n_samples),
            **timing("per_sample_s", lambda: [
                five_point_essential(x_i[k:k + CHUNK], x_j[k:k + CHUNK])
                for k in range(0, n_samples, CHUNK)], n_samples),
            "chunk": CHUNK}


def triangulation_times(n_views=10):
    """Median time per track, one at a time and batched, in seconds.

    ``N_TRACKS`` points inside an orbit of ``n_views`` distorted cameras,
    seen by every camera with 0.5 px noise.
    """
    import numpy as np
    from globalsfm.geometry import (CameraIntrinsics, Pose3, normalized,
                                    project_points)
    from globalsfm.pipeline import TRIANGULATION_CHUNK as chunk
    from globalsfm.tracks import Tracks, triangulate_tracks

    up = np.array([0.0, 0.0, 1.0])
    poses = []
    for theta in np.linspace(0.0, 2.0 * np.pi, n_views, endpoint=False):
        center = np.array([5.0 * np.cos(theta), 5.0 * np.sin(theta),
                           np.sin(2.0 * theta)])
        z_axis = normalized(-center)
        x_axis = normalized(np.cross(up, z_axis))
        poses.append(Pose3(np.column_stack(
            [x_axis, np.cross(z_axis, x_axis), z_axis]), center))
    intrinsics = [CameraIntrinsics(f=600.0, k1=-0.05, k2=0.002, u0=380.0,
                                   v0=285.0)] * n_views
    rng = np.random.default_rng(0)
    pixels = []
    for point in rng.uniform(-1.0, 1.0, size=(N_TRACKS, 3)):
        for pose, intr in zip(poses, intrinsics):
            uv = project_points(point, pose, intr)[0][0]
            pixels.append(uv + rng.normal(scale=0.5, size=2))
    tracks = Tracks(n_views * np.arange(N_TRACKS + 1),
                    np.tile(np.arange(n_views), N_TRACKS), np.array(pixels))
    singles = [tracks.take([k]) for k in range(N_TRACKS)]
    chunks = [tracks.take(range(k, min(k + chunk, N_TRACKS)))
              for k in range(0, N_TRACKS, chunk)]
    return {**timing("per_track_s", lambda: [
                triangulate_tracks(single, poses, intrinsics, track_ids=[k])
                for k, single in enumerate(singles)], N_TRACKS),
            **timing("batched_per_track_s", lambda: [
                triangulate_tracks(batch, poses, intrinsics,
                                   track_ids=range(k * chunk, (k + 1) * chunk))
                for k, batch in enumerate(chunks)], N_TRACKS),
            "chunk": chunk, "tracks": N_TRACKS, "views": n_views,
            "workloads": {name: workload_triangulation(name)
                          for name in benchmark_names()}}


def workload_triangulation(name):
    """Median time of one pass of ``pipeline._triangulate_task`` over the
    chunks of a one-worker run of a benchmark workload at seed 0, in
    seconds, with the chunk, track and ``tracks._triangulate_group`` call
    counts of one pass."""
    from globalsfm import tracks

    task, calls = workload_calls(name, "_triangulate_task")
    payloads = [args[0] for args, _ in calls]
    group = tracks._triangulate_group
    n_groups = 0

    def counting(*args):
        nonlocal n_groups
        n_groups += 1
        return group(*args)

    tracks._triangulate_group = counting
    try:
        [task(payload) for payload in payloads]
    finally:
        tracks._triangulate_group = group
    return {**timing("per_run_s", lambda: [task(payload)
                                           for payload in payloads],
                     repeats=WORKLOAD_PASSES),
            "chunks": len(payloads),
            "tracks": sum(len(payload[0]) for payload in payloads),
            "groups": n_groups}


def two_view_times():
    """Median two-view refinement time per pair, one pair per call and in
    chunks, in seconds.

    The pairs are those of the ``sparse_wide`` workload (16 cameras inside
    a 1200-point cloud, 0.5 px noise) that clear RANSAC and the inlier
    floors.  Chunks are ``pipeline.TWO_VIEW_CHUNK`` consecutive such pairs;
    the pipeline's chunks count candidate pairs instead, of which fewer
    reach the refinement.
    """
    import tempfile

    from globalsfm import two_view
    from globalsfm.pipeline import TWO_VIEW_CHUNK as chunk
    from globalsfm.two_view import VerificationConfig

    with tempfile.TemporaryDirectory(prefix="two-view-probe-") as scratch:
        build_workload_inputs("sparse_wide", scratch)
        verify = read_verify_tasks(scratch)
    cfg = VerificationConfig()
    # the tasks verify_pairs hands the refinement, in the form of the tree
    # under test
    two_view_ba = two_view.two_view_ba
    tasks = []

    def recording(chunk_tasks, chunk_cfg):
        tasks.extend(chunk_tasks)
        return two_view_ba(chunk_tasks, chunk_cfg)

    two_view.two_view_ba = recording
    try:
        for task in verify:
            two_view.verify_pairs([task], cfg)
    finally:
        two_view.two_view_ba = two_view_ba
    return {**timing("per_pair_s", lambda: [two_view_ba([task], cfg)
                                            for task in tasks], len(tasks)),
            **timing("chunked_per_pair_s", lambda: [
                two_view_ba(tasks[k:k + chunk], cfg)
                for k in range(0, len(tasks), chunk)], len(tasks)),
            "chunk": chunk, "pairs": len(tasks)}


def peak_kib():
    """The peak RSS of this process so far, VmHWM (Linux, KiB).

    Not ru_maxrss, which survives fork and exec: a fresh process's would
    start at the RSS of the process that built its inputs and hide the
    growth it is run to measure.
    """
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) for line in status
                    if line.startswith("VmHWM:"))


def verify_pair_tasks(matches, rays, intrinsics):
    """The ``verify_pairs`` task (matches, rays_i, rays_j, intr_i, intr_j,
    seed) of every match set, seeded with its index."""
    return [(match, rays[match.pair[0]], rays[match.pair[1]],
             intrinsics[match.pair[0]], intrinsics[match.pair[1]], k)
            for k, match in enumerate(matches)]


def benchmark_names():
    """The workload names of this checkout's ``BENCHMARK.json``."""
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [workload["name"] for workload in benchmark["workloads"]]


def benchmark_workloads():
    """The ``perfbench/workloads.py`` module of this checkout."""
    if str(ROOT / "perfbench") not in sys.path:
        sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads
    return workloads


def build_workload_inputs(name, directory):
    """Write the input files of a benchmark workload at seed 0 to
    ``directory``."""
    workloads = benchmark_workloads()
    workloads.build_inputs(workloads.WORKLOADS[name], 0, Path(directory))


def read_verify_tasks(directory):
    """The ``verify_pairs`` tasks of every match set of the input files in
    ``directory``, read with the ``globalsfm.io`` readers."""
    from globalsfm import io
    from globalsfm.two_view import keypoint_rays

    base = Path(directory)
    intrinsics = io.read_intrinsics(base / "intrinsics.json")
    rays = keypoint_rays(io.read_keypoints(base / "keypoints.json"),
                         intrinsics)
    return verify_pair_tasks(io.read_matches(base / "matches.json"), rays,
                             intrinsics)


def verify_tasks(directory):
    """(``verify_pairs`` tasks of the input files in ``directory``, the
    configuration without the refinement, the pipeline's chunk size)."""
    from globalsfm.pipeline import TWO_VIEW_CHUNK
    from globalsfm.two_view import VerificationConfig

    return (read_verify_tasks(directory),
            VerificationConfig(enable_two_view_ba=False), TWO_VIEW_CHUNK)


def verify_pass(tasks, cfg, step):
    """``verify_pairs`` over all tasks, ``step`` pairs per call."""
    from globalsfm.two_view import verify_pairs

    return [verify_pairs(tasks[k:k + step], cfg)
            for k in range(0, len(tasks), step)]


def verify_times(scenes=VERIFY_WORKLOADS):
    """Median ``verify_pairs`` time per pair without the refinement, one
    pair per call and in chunks, in seconds, and the peak-RSS growth (MB)
    of each in a fresh process, keyed by workload."""
    import tempfile

    import globalsfm

    env = dict(os.environ, **THREAD_ENV,
               PYTHONPATH=str(Path(globalsfm.__file__).parent.parent))
    out = {}
    with tempfile.TemporaryDirectory(prefix="verify-probe-") as scratch:
        for scene in scenes:
            directory = Path(scratch) / scene
            build_workload_inputs(scene, directory)
            tasks, cfg, chunk = verify_tasks(directory)
            record = {"pairs": len(tasks), "chunk": chunk,
                      "verified": sum(
                          r.measurement is not None
                          for results in verify_pass(tasks, cfg, 1)
                          for r in results)}
            for mode, step, timed in (
                    ("per_pair", 1, "per_pair_s"),
                    ("chunked", chunk, "chunked_per_pair_s")):
                record.update(timing(
                    timed, lambda: verify_pass(tasks, cfg, step), len(tasks),
                    VERIFY_PASSES))
                record[f"{mode}_rss_growth_mb"] = statistics.median(
                    float(subprocess.run(
                        [sys.executable, "-c", FRESH_VERIFY,
                         str(Path(__file__).resolve().parent),
                         str(directory), mode],
                        env=env, check=True, capture_output=True,
                        text=True).stdout.split()[-1])
                    for _ in range(FRESH_READS))
            out[scene] = record
    return out


def tracks_times():
    """Median ``build_tracks`` time per call on ground-truth matches, in
    seconds, keyed by scene size (cameras x points)."""
    from types import SimpleNamespace

    from globalsfm.synthetic import generate_orbit_scene
    from globalsfm.tracks import build_tracks

    out = {}
    for n_cameras, n_points, seed, repeats in ((10, 60, 7, 5),
                                               (60, 3000, 0, 3)):
        _, keypoints, matches, _ = generate_orbit_scene(n_cameras, n_points,
                                                        seed=seed)
        measurements = [SimpleNamespace(pair=m.pair, inliers=m.indices)
                        for m in matches]
        tracks = build_tracks(measurements, keypoints)
        out[f"{n_cameras}x{n_points}"] = {
            **timing("per_call_s",
                     lambda: build_tracks(measurements, keypoints),
                     repeats=repeats),
            "rows": sum(len(m.indices) for m in matches),
            "tracks": len(tracks),
            "observations": sum(len(track) for track in tracks)}
    return out


def fresh_read(reader, path):
    """Median time and peak-RSS growth (MB) of ``globalsfm.io.<reader>`` on
    ``path``, each read in a fresh process."""
    import globalsfm

    env = dict(os.environ, **THREAD_ENV,
               PYTHONPATH=str(Path(globalsfm.__file__).parent.parent))
    runs = [subprocess.run([sys.executable, "-c", FRESH_READ,
                            str(Path(__file__).resolve().parent), reader,
                            str(path)], env=env, check=True,
                           capture_output=True, text=True).stdout.split()
            for _ in range(FRESH_READS)]
    return {"fresh_read_s": statistics.median(float(r[0]) for r in runs),
            "fresh_read_rss_growth_mb": statistics.median(
                float(r[1]) for r in runs)}


def io_times(sizes=IO_SIZES):
    """Median write and read times (s) and sizes (B) of ``matches.json``
    and ``keypoints.json``, keyed by scene size (cameras x points)."""
    import tempfile

    from globalsfm import io
    from globalsfm.synthetic import generate_orbit_scene

    out = {}
    with tempfile.TemporaryDirectory(prefix="io-probe-") as scratch:
        for n_cameras, n_points in sizes:
            _, keypoints, matches, _ = generate_orbit_scene(
                n_cameras, n_points, noise_px=0.5, seed=0)
            record = {}
            for name, payload in (("matches", matches),
                                  ("keypoints", keypoints)):
                path = Path(scratch) / f"{name}.json"
                write = getattr(io, f"write_{name}")
                read = getattr(io, f"read_{name}")
                record[name] = {
                    **timing("write_s", lambda: write(path, payload)),
                    **timing("read_s", lambda: read(path)),
                    "bytes": path.stat().st_size,
                    **fresh_read(f"read_{name}", path)}
            out[f"{n_cameras}x{n_points}"] = record
    return out


def workload_calls(name, function):
    """(function, [(args, kwargs) of every call]) of ``pipeline.<function>``
    in a one-worker run of a benchmark workload at seed 0."""
    import tempfile

    from globalsfm import PipelineConfig, pipeline, run_pipeline

    workloads = benchmark_workloads()

    calls = []
    original = getattr(pipeline, function)

    def recording(*args, **kwargs):
        calls.append((args, kwargs))
        return original(*args, **kwargs)

    setattr(pipeline, function, recording)
    try:
        with tempfile.TemporaryDirectory(prefix="workload-probe-") as scratch:
            build_workload_inputs(name, Path(scratch) / "input")
            run_pipeline(PipelineConfig(
                input_dir=str(Path(scratch) / "input"),
                output_dir=str(Path(scratch) / "output"),
                gt_poses_file=workloads.GT_POSES, n_workers=1, seed=0,
                **workloads.WORKLOADS[name].config))
    finally:
        setattr(pipeline, function, original)
    return original, calls


def workload_directions(name):
    """(directions, keyword arguments) that ``pipeline.mfas_filter`` gets in
    a one-worker run of a benchmark workload at seed 0."""
    _, (((directions,), kwargs),) = workload_calls(name, "mfas_filter")
    return directions, kwargs


def direction_network(n_cameras, n_landmarks, seed=0):
    """Directions between every pair of cameras and from every camera to
    every landmark, with 1 degree of noise and one in twenty reversed."""
    import numpy as np
    from globalsfm.translation_averaging import (KIND_CAMERA, KIND_LANDMARK,
                                                 DirectionMeasurement)

    rng = np.random.default_rng(seed)
    cams = rng.normal(scale=3.0, size=(n_cameras, 3))
    points = rng.uniform(-1.0, 1.0, size=(n_landmarks, 3))
    ends = ([(KIND_CAMERA, i, j, cams[j]) for i in range(n_cameras)
             for j in range(i + 1, n_cameras)]
            + [(KIND_LANDMARK, i, t, points[t]) for i in range(n_cameras)
               for t in range(n_landmarks)])
    out = []
    for kind, a, b, target in ends:
        u = target - cams[a]
        u = u / np.linalg.norm(u) + rng.normal(scale=np.deg2rad(1.0), size=3)
        u = u / np.linalg.norm(u)
        out.append(DirectionMeasurement(kind, a, b,
                                        -u if rng.random() < 0.05 else u))
    return out


def mfas_times(workloads=MFAS_WORKLOADS, networks=MFAS_NETWORKS):
    """Median ``mfas_filter`` time per call, in seconds, keyed by workload
    name or network size (cameras x landmarks)."""
    from globalsfm.translation_averaging import mfas_filter

    cases = {name: workload_directions(name) for name in workloads}
    cases.update({f"{n_cameras}x{n_landmarks}":
                  (direction_network(n_cameras, n_landmarks), {})
                  for n_cameras, n_landmarks in networks})
    out = {}
    for key, (directions, kwargs) in cases.items():
        kept, _ = mfas_filter(directions, **kwargs)
        out[key] = {**timing("per_call_s",
                             lambda: mfas_filter(directions, **kwargs)),
                    "directions": len(directions), "kept": len(kept)}
    return out


PROBES = {"five_point": five_point_times,
          "triangulation": triangulation_times,
          "two_view": two_view_times,
          "tracks": tracks_times,
          "verify": verify_times,
          "io": io_times,
          "mfas": mfas_times}


def run_probe(trees, probe):
    """Each tree's probe record in ``PROBE_ROUNDS`` rounds of one fresh
    process per tree, alternating which tree goes first, and their
    summary."""
    records = {side: [] for side in trees}
    for round_ in range(PROBE_ROUNDS):
        order = list(trees) if round_ % 2 == 0 else list(trees)[::-1]
        for side in order:
            env = dict(os.environ, **THREAD_ENV,
                       PYTHONPATH=str(Path(trees[side]) / "src"))
            out = subprocess.run(
                [sys.executable, __file__, "--kernel", probe], env=env,
                check=True, capture_output=True, text=True)
            records[side].append(
                json.loads(out.stdout.strip().splitlines()[-1]))
            print(probe, round_, side, flush=True)
    return {"rounds": records,
            "summary": kernel_summary(records["before"], records["after"])}


def probe_times(record, prefix=""):
    """Every time of a probe record (a number under a key that ends in
    ``_s``), keyed by its path of keys joined by dots."""
    out = {}
    for key, value in record.items():
        if isinstance(value, dict):
            out.update(probe_times(value, f"{prefix}{key}."))
        elif key.endswith("_s") and isinstance(value, (int, float)):
            out[prefix + key] = value
    return out


def kernel_summary(before_rounds, after_rounds):
    """Per probe time: both sides' summaries over the rounds and the rounds
    the change wins (a lower time), as :func:`compare` gives them."""
    before = [probe_times(record) for record in before_rounds]
    after = [probe_times(record) for record in after_rounds]
    return compare(before, after, dict.fromkeys(before[0], "lower"))


def run_benchmark(tree, workload, seconds, seed, metrics):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, check=True, capture_output=True, text=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    record = {name: result["metrics"][name]["value"] for name in metrics}
    record["correct"] = result["correct"]
    record["failed"] = result["failed"]
    return record


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def compare(before_runs, after_runs, metrics):
    """Per metric: both sides' summaries and the pairs the change wins.

    ``metrics`` maps each metric name to its ``better`` direction.
    """
    out = {}
    for name, better in metrics.items():
        before = [r[name] for r in before_runs]
        after = [r[name] for r in after_runs]
        sign = -1.0 if better == "lower" else 1.0
        out[name] = {"before": summary(before), "after": summary(after),
                     "after_wins": sum(sign * (a - b) > 0
                                       for a, b in zip(after, before)),
                     "pairs": len(before)}
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--before", help="checkout of the commit to compare against")
    parser.add_argument("--output", help="file to write, e.g. BENCH_x.json")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--probe", choices=sorted(PROBES),
                        help="kernel to time in both trees")
    parser.add_argument("--kernel", choices=sorted(PROBES),
                        help="print the probe times of the globalsfm on PYTHONPATH")
    args = parser.parse_args()
    if args.kernel:
        print(json.dumps(PROBES[args.kernel]()))
        return
    if args.before is None or args.output is None:
        parser.error("--before and --output are required")
    trees = {"before": Path(args.before).resolve(), "after": ROOT}
    output = ROOT / args.output
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = benchmark["run_seconds"]
    metrics = {m["name"]: m["better"] for m in benchmark["end_to_end"]}

    kernel = run_probe(trees, args.probe) if args.probe else None
    record = {"kernel": kernel, "end_to_end": {},
              "settings": {"pairs": args.pairs, "seconds": seconds,
                           "command": f"perfbench/run.py --seed {args.seed} "
                                      "--trace 0"}}
    for workload in benchmark_names():
        runs = {"before": [], "after": []}
        for pair in range(args.pairs):
            order = ("before", "after") if pair % 2 == 0 else ("after", "before")
            for side in order:
                runs[side].append(run_benchmark(trees[side], workload,
                                                seconds, args.seed, metrics))
                print(workload, pair, side, runs[side][-1], flush=True)
        record["end_to_end"][workload] = {"summary": compare(runs["before"], runs["after"],
                                                             metrics),
                                          "runs": runs}
    output.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(f"wrote {output}")


if __name__ == "__main__":
    main()
