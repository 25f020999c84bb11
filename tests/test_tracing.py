"""The benchmark's tracer (``perfbench/tracing.py``) on one pipeline run.

Every benchmark run starts with a traced reference run, and a counter that
raises fails that run, so the tracer's wrappers must find the functions
they name and its counters must read the program's track and landmark
tables.
"""

import importlib.util
import json
from pathlib import Path

from globalsfm import pipeline
from globalsfm.config import PipelineConfig

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counters_of_a_traced_sparse_wide_run(tmp_path, monkeypatch):
    tracing, workloads = _load("tracing"), _load("workloads")
    workload = workloads.WORKLOADS["sparse_wide"]
    workloads.build_inputs(workload, 0, tmp_path / "inputs")
    config = PipelineConfig(input_dir=str(tmp_path / "inputs"),
                            output_dir=str(tmp_path / "out"),
                            gt_poses_file=workloads.GT_POSES, n_workers=1,
                            seed=0, **workload.config)
    built, build_tracks = [], pipeline.build_tracks

    def recording_build_tracks(*args):
        built.append(build_tracks(*args))
        return built[-1]

    monkeypatch.setattr(pipeline, "build_tracks", recording_build_tracks)
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        result, _, _ = pipeline.run_pipeline(config)
    finally:
        tracer.restore()
    report = json.loads((tmp_path / "out" / "report.json").read_text())

    for name in ("build_tracks", "three_round_ba", "run_bundle_adjustment",
                 "filter_tracks"):
        assert not [m for m in tracer.missing if m.endswith("." + name)]
    counters = tracer.counters
    assert len(built) == 1
    assert counters["tracks.built"] == report["n_tracks_total"] == len(built[0])
    assert counters["tracks.observations"] == len(built[0].images)
    assert counters["bundle_adjustment.landmarks_kept"] == \
        report["n_landmarks"] == len(result.landmarks)
    assert 0 < counters["bundle_adjustment.observations"] <= \
        int(built[0].lengths().sum())
    assert counters["bundle_adjustment.lm_iterations"] > 0
