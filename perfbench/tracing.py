"""In-memory span tracer for one pipeline run, and the per-layer metrics.

The tracer replaces public functions with timing wrappers on the module
namespace that calls them (``globalsfm.pipeline.verify_pair``, not
``globalsfm.two_view.verify_pair``), so the program under test is not
edited.  A span is ``[name, start, end, parent]``, where ``parent`` indexes
the enclosing span; the first part of a dotted name is the span's layer.
Spans stay in memory until the run ends.  Only worker-count-1 runs are
traced, since spans recorded in forked workers would be lost.

A layer's self time is the duration of its spans minus the part covered by
their child spans.  The self times of all layers plus ``pipeline.self_s``
(time under the root span that no layer span covers) add up to the traced
wall time.
"""

import functools
import pickle
import time
from collections import defaultdict

ROOT_SPAN = "pipeline.run"


class Tracer:
    """Span stack plus named counters of one traced run."""

    def __init__(self):
        self.spans = []
        self.counters = defaultdict(float)
        self.missing = []
        self._stack = []
        self._patched = []

    def begin(self, name):
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(len(self.spans) - 1)

    def end(self):
        self.spans[self._stack.pop()][2] = time.perf_counter()

    def wrap(self, owner, attr, name, count=None):
        """Time every call of ``owner.attr`` as a span named ``name``.

        ``count(counters, args, result, seconds)`` runs after a call that
        returned.  A name the program no longer has is recorded in
        ``missing`` instead of failing the run.
        """
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(f"{owner.__name__}.{attr}")
            return

        @functools.wraps(original)
        def traced(*args, **kwargs):
            self.begin(name)
            started = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                self.end()
            if count is not None:
                count(self.counters, args, result,
                      time.perf_counter() - started)
            return result

        setattr(owner, attr, traced)
        self._patched.append((owner, attr, original))

    def wrap_executor_map(self, executor_cls):
        """Span every ``TaskExecutor.map`` and count its pickled payload."""
        original = executor_cls.map

        @functools.wraps(original)
        def traced(executor, fn, payloads):
            payloads = list(payloads)
            self.begin("trace.payload_pickle")
            try:
                size = len(pickle.dumps(fn)) + sum(
                    len(pickle.dumps(p)) for p in payloads)
            finally:
                self.end()
            self.counters["executor.payloads"] += len(payloads)
            self.counters["executor.payload_bytes_computed"] += size
            self.begin("executor.map")
            try:
                return original(executor, fn, payloads)
            finally:
                self.end()

        executor_cls.map = traced
        self._patched.append((executor_cls, "map", original))

    def restore(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()


def _count_pair(counters, args, result, seconds):
    counters["two_view.pairs"] += 1
    if result.measurement is None:
        counters["two_view.rejected_pair_s"] += seconds
    else:
        counters["two_view.verified"] += 1


def _count_tracks(counters, args, result, seconds):
    counters["tracks.built"] += len(result)
    counters["tracks.observations"] += sum(len(t) for t in result)


def _count_triangulated(counters, args, result, seconds):
    if result is not None:
        counters["tracks.triangulated"] += 1


def _count_ba_round(counters, args, result, seconds):
    problem, config = args[0], (args[1] if len(args) > 1 else None)
    counters["bundle_adjustment.lm_iterations"] += result[1].iterations
    n_obs = sum(int(lm.inlier_mask.sum()) for lm in problem.landmarks)
    n_cams = len(problem.registered_cameras())
    n_cam_params = 6 * (n_cams - 1)
    if config is not None and config.optimize_intrinsics:
        n_cam_params += 5 if config.share_intrinsics else 5 * n_cams
    counters["bundle_adjustment.observations"] = max(
        counters["bundle_adjustment.observations"], n_obs)
    counters["bundle_adjustment.dense_jacobian_bytes_computed"] = max(
        counters["bundle_adjustment.dense_jacobian_bytes_computed"],
        n_obs * 2 * n_cam_params * 8)


def _count_ba_kept(counters, args, result, seconds):
    counters["bundle_adjustment.landmarks_kept"] = len(result[0].landmarks)


def _count_edges_in(counters, args, result, seconds):
    counters["view_graph.edges_in"] = args[0].n_edges()


def _count_edges_kept(counters, args, result, seconds):
    counters["view_graph.edges_kept"] = result.n_edges()


def _count_staircase(counters, args, result, seconds):
    counters["rotation_averaging.staircase_level"] = result.p_final


def _count_mfas(counters, args, result, seconds):
    counters["translation_averaging.kept_frac"] = (
        len(result[0]) / max(1, len(args[0])))


def _count_nodes(counters, args, result, seconds):
    nodes = {m.node_a() for m in args[0]} | {m.node_b() for m in args[0]}
    counters["translation_averaging.nodes"] = len(nodes)


def _count_candidates(counters, args, result, seconds):
    counters["retrieval.candidate_pairs"] = len(result)


def install(tracer):
    """Wrap every layer boundary the pipeline crosses."""
    from globalsfm import bundle_adjustment, executor, pipeline, two_view

    for attr in ("read_keypoints", "read_matches", "read_intrinsics",
                 "read_descriptors", "read_poses"):
        tracer.wrap(pipeline, attr, "io.read")
    for attr in ("write_poses", "export_ply", "write_json",
                 "write_view_graph_csv", "write_direction_violations_csv"):
        tracer.wrap(pipeline, attr, "io.write")
    for attr in ("sequential_pairs", "compute_similarity_block",
                 "select_similarity_pairs"):
        tracer.wrap(pipeline, attr, "retrieval." + attr)
    tracer.wrap(pipeline, "merge_candidates", "retrieval.merge_candidates",
                _count_candidates)
    tracer.wrap(pipeline, "verify_pair", "two_view.verify_pair", _count_pair)
    tracer.wrap(two_view, "estimate_essential_ransac", "two_view.ransac")
    tracer.wrap(two_view, "two_view_ba", "two_view.lm")
    tracer.wrap(two_view, "five_point_essential", "essential.five_point")
    tracer.wrap(pipeline, "two_stage_cycle_filter", "view_graph.filter",
                _count_edges_in)
    tracer.wrap(pipeline, "largest_connected_component",
                "view_graph.component", _count_edges_kept)
    tracer.wrap(pipeline, "solve_rotations", "rotation_averaging.solve",
                _count_staircase)
    tracer.wrap(pipeline, "mfas_filter", "translation_averaging.mfas",
                _count_mfas)
    tracer.wrap(pipeline, "solve_translations", "translation_averaging.solve",
                _count_nodes)
    tracer.wrap(pipeline, "build_tracks", "tracks.build", _count_tracks)
    tracer.wrap(pipeline, "triangulate_ransac_dlt", "tracks.triangulate",
                _count_triangulated)
    tracer.wrap(pipeline, "three_round_ba", "bundle_adjustment.three_round",
                _count_ba_kept)
    tracer.wrap(bundle_adjustment, "run_bundle_adjustment",
                "bundle_adjustment.lm", _count_ba_round)
    tracer.wrap(bundle_adjustment, "filter_tracks", "bundle_adjustment.filter")
    tracer.wrap(pipeline, "compute_metrics", "metrics.compute")
    tracer.wrap_executor_map(executor.TaskExecutor)


LAYERS = ("io", "retrieval", "executor", "two_view", "essential",
          "view_graph", "rotation_averaging", "translation_averaging",
          "tracks", "bundle_adjustment", "metrics", "trace")


def layer_metrics(spans, counters, input_bytes):
    """Per-layer metrics of one traced run, from its spans and counters.

    ``spans`` must hold exactly one root span named ``ROOT_SPAN``.
    """
    total = defaultdict(float)
    calls = defaultdict(int)
    child_time = defaultdict(float)
    for name, start, end, parent in spans:
        total[name] += end - start
        calls[name] += 1
    for index, (name, start, end, parent) in enumerate(spans):
        if parent is not None:
            child_time[parent] += end - start
    self_time = defaultdict(float)
    for index, (name, start, end, parent) in enumerate(spans):
        layer = "pipeline" if name == ROOT_SPAN else name.split(".")[0]
        self_time[layer] += end - start - child_time[index]

    def frac(part, whole):
        return counters[part] / max(1.0, counters[whole])

    out = {
        "two_view.verify_s": total["two_view.verify_pair"],
        "two_view.pairs": counters["two_view.pairs"],
        "two_view.verified_frac": frac("two_view.verified",
                                       "two_view.pairs"),
        "two_view.ransac_s": total["two_view.ransac"],
        "two_view.lm_s": total["two_view.lm"],
        "two_view.rejected_pair_s": counters["two_view.rejected_pair_s"],
        "essential.five_point_calls": calls["essential.five_point"],
        "essential.five_point_s": total["essential.five_point"],
        "tracks.build_s": total["tracks.build"],
        "tracks.built": counters["tracks.built"],
        "tracks.observations": counters["tracks.observations"],
        "tracks.triangulate_s": total["tracks.triangulate"],
        "tracks.triangulate_calls": calls["tracks.triangulate"],
        "tracks.triangulated_frac": (counters["tracks.triangulated"]
                                     / max(1, calls["tracks.triangulate"])),
        "bundle_adjustment.s": total["bundle_adjustment.three_round"],
        "bundle_adjustment.lm_s": total["bundle_adjustment.lm"],
        "bundle_adjustment.filter_s": total["bundle_adjustment.filter"],
        "executor.map_calls": calls["executor.map"],
        "view_graph.filter_s": total["view_graph.filter"],
        "rotation_averaging.solve_s": total["rotation_averaging.solve"],
        "translation_averaging.mfas_s": total["translation_averaging.mfas"],
        "translation_averaging.solve_s":
            total["translation_averaging.solve"],
        "retrieval.s": sum(v for k, v in total.items()
                           if k.startswith("retrieval.")),
        "io.read_s": total["io.read"],
        "io.write_s": total["io.write"],
        "io.input_bytes": input_bytes,
        "metrics.s": total["metrics.compute"],
        "pipeline.self_s": self_time["pipeline"],
        "trace.wall_s": total[ROOT_SPAN],
    }
    for name in ("bundle_adjustment.lm_iterations",
                 "bundle_adjustment.observations",
                 "bundle_adjustment.landmarks_kept",
                 "bundle_adjustment.dense_jacobian_bytes_computed",
                 "executor.payloads", "executor.payload_bytes_computed",
                 "view_graph.edges_in", "view_graph.edges_kept",
                 "rotation_averaging.staircase_level",
                 "translation_averaging.nodes",
                 "translation_averaging.kept_frac",
                 "retrieval.candidate_pairs"):
        out[name] = counters[name]
    for layer in LAYERS:
        out[layer + ".self_s"] = self_time[layer]
    return {k: float(v) for k, v in out.items()}
