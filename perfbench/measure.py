"""One measured, optionally traced, pipeline run in the current process.

``run.py`` calls :func:`measure` in a freshly forked process per run.  CPU
time and peak RSS are taken over that process and its reaped workers
(``RUSAGE_SELF`` plus ``RUSAGE_CHILDREN``), so a run through the process
pool is counted whole.
"""

import json
import multiprocessing
import resource
import statistics
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
from globalsfm import GlobalSfmError, PipelineConfig, run_pipeline
from tracing import ROOT_SPAN, Tracer, install, layer_metrics
from workloads import GT_POSES


def _usage():
    own = resource.getrusage(resource.RUSAGE_SELF)
    workers = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = own.ru_utime + own.ru_stime + workers.ru_utime + workers.ru_stime
    # ru_maxrss is in KiB on Linux.
    return cpu, max(own.ru_maxrss, workers.ru_maxrss) / 1024.0


def _kernel(repeats=3):
    """Median time of a fixed loop of small numpy calls and Python sums."""
    mats = np.random.default_rng(0).normal(size=(32, 6, 6))
    times = []
    for _ in range(repeats):
        total = 0.0
        started = time.perf_counter()
        for _ in range(100):
            for m in mats:
                total += float(np.linalg.svd(m, compute_uv=False)[0])
                total += sum(k * 0.5 for k in range(40))
        times.append(time.perf_counter() - started)
    return statistics.median(times)


def calibrate(workers):
    """Time a fixed kernel on as many processes as the run will use.

    The kernel runs no project code, so a change to the program cannot move
    it; it moves only with the speed of the host's CPUs at that moment.
    """
    if workers == 1:
        return _kernel()
    ctx = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(max_workers=workers, mp_context=ctx) as pool:
        futures = [pool.submit(_kernel) for _ in range(workers)]
        return statistics.mean(f.result() for f in futures)


def measure(inputs, output, workers, overrides, trace, result_path):
    """Run the pipeline once and write its measurements as JSON."""
    config = PipelineConfig(input_dir=str(inputs), output_dir=str(output),
                            gt_poses_file=GT_POSES, n_workers=workers,
                            seed=0, **overrides)
    calibration = calibrate(workers)
    tracer = None
    if trace:
        tracer = Tracer()
        install(tracer)
        tracer.begin(ROOT_SPAN)
    cpu0, _ = _usage()
    started = time.perf_counter()
    try:
        result, metrics, _ = run_pipeline(config)
    except GlobalSfmError as exc:
        record = {"error": f"{type(exc).__name__}: {exc}"}
    else:
        wall = time.perf_counter() - started
        if tracer is not None:
            tracer.end()
            tracer.restore()
        cpu1, peak_rss = _usage()
        record = {
            "wall_s": wall,
            "cpu_s": cpu1 - cpu0,
            "peak_rss_mb": peak_rss,
            "calibration_s": calibration,
            "registered": result.n_registered,
            "cameras": len(result.poses),
            "pose_auc": {str(k): v for k, v in metrics.pose_auc.items()},
        }
        if tracer is not None:
            input_bytes = sum(p.stat().st_size for p in Path(inputs).iterdir())
            record["layers"] = layer_metrics(tracer.spans, tracer.counters,
                                             input_bytes)
            record["spans"] = tracer.spans
            record["missing"] = tracer.missing
    Path(result_path).write_text(json.dumps(record))
