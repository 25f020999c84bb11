"""End-to-end global structure-from-motion orchestration.

Stages run in a fixed order with a barrier between them: input loading and
keypoint merging, pair retrieval, two-view verification, view-graph cycle
filtering, rotation averaging, track building, direction filtering plus
translation averaging, triangulation, and staged bundle adjustment.
Candidate pairs with fewer matches than the ``min_inliers`` floor are
rejected before any task is built.  Fixed chunks of the other candidate
pairs and of tracks fan out through one :class:`TaskExecutor` per run;
every pair and track draws its randomness from a seed derived from the
global seed and its key, a chunk's pairs are refined in lockstep without
sharing anything but the solve, and results are reduced in input order, so
all numerical outputs are bitwise identical for any worker count.

Per-task failures (a pair that cannot be verified, a track that cannot be
triangulated) are recorded with their provenance and skipped.  Stage-level
failures (missing inputs, a collapsed view graph, a disconnected position
network) abort the run before any output file is written.

Output files, written only after every stage succeeds:

- ``poses.txt``: estimated camera-to-world poses.
- ``cloud.ply``: landmarks plus camera frusta.
- ``report.json``: run summary; the ``metrics`` key carries the evaluation
  report when ground truth was supplied.
- ``timing.json``: per-stage wall times.
- ``viewgraph.csv``: per-edge cycle-filter diagnostics.
- ``direction_violations.csv``: per-measurement direction-filter fractions.
"""

import dataclasses
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .bundle_adjustment import BaProblem, BaReport, three_round_ba
from .config import PipelineConfig
from .errors import DegenerateScene, InputError
from .executor import TaskExecutor, TimingLog
from .geometry import (Pose3, normalized, pixel_to_normalized,
                       stack_intrinsics)
from .io import (export_ply, read_descriptors, read_intrinsics,
                 read_keypoints, read_matches, read_poses,
                 write_direction_violations_csv, write_json, write_poses,
                 write_view_graph_csv)
from .metrics import MetricsReport, compute_metrics
from .retrieval import (merge_candidates, retrieval_k,
                        select_similarity_pairs, sequential_pairs,
                        similarity_matrix)
from .rotation_averaging import (RotationAveragingProblem, RotationSolution,
                                 kappa_from_sigma, solve_rotations)
from .seeding import stable_seed
from .tracks import Landmarks, Tracks, build_tracks, triangulate_tracks
from .translation_averaging import (KIND_LANDMARK, DirectionMeasurement,
                                    camera_direction_measurements,
                                    mfas_filter, solve_translations)
from .two_view import (keypoint_rays, merge_keypoints_nms, screen_matches,
                       verify_pairs)
from .view_graph import (build_view_graph, largest_connected_component,
                         two_stage_cycle_filter)

INPUT_DESCRIPTORS = "descriptors.bin"
INPUT_KEYPOINTS = "keypoints.json"
INPUT_MATCHES = "matches.json"
INPUT_INTRINSICS = "intrinsics.json"

OUTPUT_POSES = "poses.txt"
OUTPUT_CLOUD = "cloud.ply"
OUTPUT_REPORT = "report.json"
OUTPUT_TIMING = "timing.json"
OUTPUT_VIEWGRAPH = "viewgraph.csv"
OUTPUT_VIOLATIONS = "direction_violations.csv"

# tracks per triangulation task and candidate pairs per two-view task;
# fixed, so that which tracks or pairs share a batch does not depend on the
# worker count.  Larger two-view chunks refine a little faster in lockstep
# but leave a pool fewer tasks: at 16, a scene of 15 candidate pairs would
# run as one task, in one process.
TRIANGULATION_CHUNK = 16
TWO_VIEW_CHUNK = 12


@dataclass(frozen=True)
class PipelineInputs:
    """Validated front-end products, keypoints already duplicate-merged."""

    keypoints: dict
    matches: tuple
    intrinsics: tuple
    descriptors: np.ndarray

    @property
    def n_images(self) -> int:
        return len(self.keypoints)


@dataclass(frozen=True)
class SfmResult:
    """Everything the pipeline estimated, plus per-task failure provenance;
    ``landmarks`` is the :class:`~globalsfm.tracks.Landmarks` table that
    survived bundle adjustment."""

    poses: tuple
    intrinsics: tuple
    landmarks: Landmarks
    registered: tuple
    evaluation_pairs: tuple
    cycle_records: dict
    rotation: RotationSolution
    translation_cost: float
    direction_measurements: tuple
    direction_fractions: tuple
    direction_kept: tuple
    ba_report: BaReport
    n_edges_verified: int
    n_tracks_total: int
    failures: tuple

    @property
    def n_registered(self) -> int:
        return len(self.registered)


def load_inputs(config: PipelineConfig) -> PipelineInputs:
    """Read and cross-validate the four front-end files.

    Image ids must be contiguous from zero and consistent across files.
    Every match pair is listed once, as (i, j) with i < j, and its keypoint
    indices lie in range.

    Raises:
        InputError: missing file, malformed content, or id mismatch.
    """
    base = Path(config.input_dir)
    missing = [name for name in (INPUT_DESCRIPTORS, INPUT_KEYPOINTS,
                                 INPUT_MATCHES, INPUT_INTRINSICS)
               if not (base / name).is_file()]
    if missing:
        raise InputError(f"missing input files in {base}: "
                         f"{', '.join(missing)}")
    keypoints = read_keypoints(base / INPUT_KEYPOINTS)
    n = len(keypoints)
    if n < 2:
        raise InputError("need keypoints for at least 2 images")
    if sorted(keypoints) != list(range(n)):
        raise InputError("keypoint image ids must be contiguous from 0")
    intrinsics = read_intrinsics(base / INPUT_INTRINSICS)
    if sorted(intrinsics) != list(range(n)):
        raise InputError(
            f"intrinsics cover {len(intrinsics)} images, keypoints {n}")
    descriptors = read_descriptors(base / INPUT_DESCRIPTORS)
    if len(descriptors) != n:
        raise InputError(
            f"descriptor count {len(descriptors)} != image count {n}")
    matches = read_matches(base / INPUT_MATCHES)
    seen = set()
    for m in matches:
        i, j = m.pair
        if not (0 <= i < n and 0 <= j < n):
            raise InputError(f"match pair {m.pair} outside image range")
        # candidates are (i, j) with i < j; any other order would never be
        # looked up
        if i >= j:
            raise InputError(f"match pair {m.pair} must be written with i < j")
        if m.pair in seen:
            raise InputError(f"match pair {m.pair} listed twice")
        seen.add(m.pair)
        rows = np.atleast_2d(np.asarray(m.indices, dtype=int))
        if len(rows) and (rows.min() < 0
                          or rows[:, 0].max() >= len(keypoints[i])
                          or rows[:, 1].max() >= len(keypoints[j])):
            raise InputError(f"match indices of pair {m.pair} out of range")
    return PipelineInputs(keypoints, tuple(matches),
                          tuple(intrinsics[k] for k in range(n)),
                          descriptors)


def _ingest(config: PipelineConfig) -> PipelineInputs:
    """Load inputs; merge duplicate keypoint detections when configured.

    The merge is meant for front-ends that re-detect the same feature with
    slightly different coordinates in every pair; keypoint files with one
    canonical entry per feature should keep it disabled.
    """
    inputs = load_inputs(config)
    if config.enable_nms_merge:
        merged_keypoints, merged_matches = merge_keypoints_nms(
            inputs.keypoints, list(inputs.matches), config.nms_radius_px)
        inputs = dataclasses.replace(inputs, keypoints=merged_keypoints,
                                     matches=tuple(merged_matches))
    return inputs


def _retrieval_stage(executor: TaskExecutor, config: PipelineConfig,
                     inputs: PipelineInputs):
    """Sorted candidate pairs: the sequential window merged with top-k
    descriptor neighbors."""
    started = time.monotonic()
    n = inputs.n_images
    candidates = sequential_pairs(n, config.retrieval_lookahead)
    sim = similarity_matrix(inputs.descriptors)
    k = retrieval_k(n, config.retrieval_k_small, config.retrieval_k_large,
                    config.retrieval_k_switch)
    candidates = merge_candidates(
        candidates, select_similarity_pairs(sim, k, config.retrieval_min_score))
    executor.finish_stage("retrieval", started, 1)
    return candidates


def _verify_task(payload):
    return verify_pairs(*payload)


def _two_view_stage(executor: TaskExecutor, config: PipelineConfig,
                    inputs: PipelineInputs, candidates: list, failures: list):
    """Verify every candidate pair that has correspondences, in list order.

    Every image's keypoints are undistorted once, up front.  A pair without
    correspondences, or with fewer matches than the ``min_inliers`` floor
    (:func:`screen_matches`), is recorded as a failure in candidate order
    and never sent out.  The other pairs go out in consecutive chunks of
    ``TWO_VIEW_CHUNK``, one task each, whatever the worker count; each pair
    of a task comes with its two images' rays and intrinsics, and the task
    refines its pairs in lockstep.
    """
    started = time.monotonic()
    by_pair = {m.pair: m for m in inputs.matches}
    cfg = config.verification_config()
    rays = keypoint_rays(inputs.keypoints, inputs.intrinsics)
    tasks = []
    for pair in candidates:
        match = by_pair.get(pair)
        reason = ("no correspondences available" if match is None
                  else screen_matches(match, cfg))
        if reason is not None:
            failures.append(("two_view", f"pair {pair[0]}-{pair[1]}", reason))
            continue
        i, j = pair
        tasks.append((match, rays[i], rays[j], inputs.intrinsics[i],
                      inputs.intrinsics[j],
                      stable_seed(config.seed, "two-view", i, j)))
    payloads = [(tasks[start:start + TWO_VIEW_CHUNK], cfg)
                for start in range(0, len(tasks), TWO_VIEW_CHUNK)]
    results = [result for chunk in executor.map(_verify_task, payloads)
               for result in chunk]
    measurements = []
    for result in results:
        if result.measurement is None:
            failures.append(("two_view",
                             f"pair {result.pair[0]}-{result.pair[1]}",
                             result.reason))
        else:
            measurements.append(result.measurement)
    executor.finish_stage("two_view", started, len(payloads))
    return measurements


def _view_graph_stage(executor: TaskExecutor, config: PipelineConfig,
                      measurements: list, n_images: int):
    """Cycle-filter the verified edges and keep the largest component."""
    started = time.monotonic()
    graph = build_view_graph(measurements, n_cameras=n_images)
    filtered, records = two_stage_cycle_filter(graph, config.cycle_epsilon_deg)
    component = largest_connected_component(filtered)
    executor.finish_stage("view_graph", started, graph.n_edges())
    if len(component.vertices) < 3 or component.n_edges() < 3:
        raise DegenerateScene(
            f"view graph collapsed to {len(component.vertices)} cameras / "
            f"{component.n_edges()} edges after cycle filtering")
    return component, records


def _rotation_stage(executor: TaskExecutor, config: PipelineConfig,
                    component, cam_index: dict):
    started = time.monotonic()
    kappa = kappa_from_sigma(config.rotation_sigma)
    edges = tuple((cam_index[i], cam_index[j], m.rotation, kappa)
                  for (i, j), m in sorted(component.edges.items()))
    problem = RotationAveragingProblem(edges, len(cam_index))
    solution = solve_rotations(problem, config.rotation_config())
    executor.finish_stage("rotation_averaging", started, len(edges))
    return solution


def _landmark_directions(tracks: Tracks, cam_index: dict, rotations,
                         intrinsics, per_camera: int) -> list:
    """World-frame camera-to-landmark rays for the longest tracks.

    For each camera the ``per_camera`` longest tracks it observes are
    selected, ties going to the lower track index; every observation of a
    selected track contributes the ray from its camera through the
    undistorted keypoint, rotated into the world frame.  The selected
    observations are undistorted in one stacked call.  Only the
    already-averaged rotations are needed.
    """
    row_tracks = tracks.row_tracks()
    by_camera = np.lexsort((row_tracks, -tracks.lengths()[row_tracks],
                            tracks.images))
    images = tracks.images[by_camera]
    rank = np.arange(len(images)) - np.searchsorted(images, images)
    rows = tracks.rows(np.unique(row_tracks[by_camera][rank < per_camera]))
    if not len(rows):
        return []
    images = tracks.images[rows].tolist()
    rays = pixel_to_normalized(
        tracks.pixels[rows],
        stack_intrinsics([intrinsics[image_id] for image_id in images]))
    out = []
    for t_idx, image_id, (x, y) in zip(row_tracks[rows].tolist(), images, rays):
        ray = rotations[cam_index[image_id]] @ np.array([x, y, 1.0])
        out.append(DirectionMeasurement(KIND_LANDMARK, cam_index[image_id],
                                        t_idx, normalized(ray)))
    return out


def _translation_stage(executor: TaskExecutor, config: PipelineConfig,
                       remapped_measurements, rotations, tracks, cam_index,
                       intrinsics):
    started = time.monotonic()
    directions = camera_direction_measurements(remapped_measurements,
                                               rotations)
    if config.enable_landmark_directions:
        directions = directions + _landmark_directions(
            tracks, cam_index, rotations, intrinsics,
            config.landmark_tracks_per_camera)
    kept, fractions = mfas_filter(
        directions, n_projections=config.mfas_projections,
        seed=stable_seed(config.seed, "direction-filter"),
        rejection_ratio=config.mfas_rejection_ratio)
    solution = solve_translations(
        kept, len(cam_index), huber_delta=config.translation_huber_delta)
    executor.finish_stage("translation_averaging", started, len(directions))
    return directions, fractions, kept, solution


def _triangulate_task(payload):
    """``triangulate_tracks`` of one chunk, as a task the pool can pickle."""
    return triangulate_tracks(*payload)


def _data_association_stage(executor: TaskExecutor, config: PipelineConfig,
                            tracks: Tracks, poses: list, intrinsics: list,
                            failures: list) -> Landmarks:
    """Triangulate every track that is long enough; skip failures.

    The tracks long enough go out in consecutive chunks of
    ``TRIANGULATION_CHUNK``, one task each, whatever the worker count; a
    track keeps its index as its id, which seeds its hypothesis draw.  Each
    task gets its tracks' rows and the poses and intrinsics of their images
    only, keyed by image id, so a pooled payload does not carry every
    camera.  The chunks' landmarks are joined in track order.
    """
    started = time.monotonic()
    tri_config = config.triangulation_config()
    eligible = np.flatnonzero(
        tracks.lengths() >= config.min_track_length).tolist()
    payloads = []
    for start in range(0, len(eligible), TRIANGULATION_CHUNK):
        track_ids = eligible[start:start + TRIANGULATION_CHUNK]
        chunk = tracks.take(track_ids)
        images = np.unique(chunk.images).tolist()
        payloads.append((chunk, {i: poses[i] for i in images},
                         {i: intrinsics[i] for i in images}, tri_config,
                         track_ids, config.seed))
    results = executor.map(_triangulate_task, payloads)
    kept, parts = [], []
    for payload, (landmarks, outcomes) in zip(payloads, results):
        parts.append(landmarks)
        for t_idx, outcome in zip(payload[4], outcomes):
            if isinstance(outcome, int):
                kept.append(t_idx)
            else:
                failures.append(("triangulation", f"track {t_idx}",
                                 "rejected: too few inliers" if outcome is None
                                 else f"{type(outcome).__name__}: {outcome}"))
    executor.finish_stage("data_association", started, len(payloads))
    if not kept:
        raise DegenerateScene("no track could be triangulated")
    return Landmarks(tracks.take(kept),
                     np.concatenate([part.points for part in parts]),
                     np.concatenate([part.inliers for part in parts]),
                     np.concatenate([part.mean_errors for part in parts]))


def run_pipeline(config: PipelineConfig):
    """Run all stages and write the outputs.

    Returns:
        (SfmResult, MetricsReport or None, TimingLog).  The metrics report is
        present when ``config.gt_poses_file`` is set.

    Raises:
        InputError: unreadable or inconsistent inputs (no outputs written).
        DegenerateScene, Disconnected, Underconstrained, AllTracksFiltered:
            stage-level failures (no outputs written).
    """
    with TaskExecutor(config.resolved_workers()) as executor:
        return _run_stages(executor, config)


def _run_stages(executor: TaskExecutor, config: PipelineConfig):
    """The body of :func:`run_pipeline`, on an executor it closes."""
    failures = []

    started = time.monotonic()
    inputs = _ingest(config)
    executor.finish_stage("frontend", started, inputs.n_images)

    candidates = _retrieval_stage(executor, config, inputs)
    measurements = _two_view_stage(executor, config, inputs, candidates,
                                   failures)
    if not measurements:
        raise DegenerateScene("no pair survived two-view verification")

    component, records = _view_graph_stage(executor, config, measurements,
                                           inputs.n_images)
    cam_ids = list(component.vertices)
    cam_index = {cid: k for k, cid in enumerate(cam_ids)}
    kept_edges = sorted(component.edges)
    kept_measurements = [component.edges[e] for e in kept_edges]
    remapped = [dataclasses.replace(m, pair=(cam_index[m.pair[0]],
                                             cam_index[m.pair[1]]))
                for m in kept_measurements]

    rotation = _rotation_stage(executor, config, component, cam_index)
    rotations = list(rotation.rotations)

    # Tracks chain the inlier matches of every verified pair between
    # registered cameras, including pairs the cycle filter dropped from the
    # averaging graph; the track-length floor and triangulation consensus
    # are the guards against their bad correspondences.
    registered_measurements = [
        m for m in measurements
        if m.pair[0] in cam_index and m.pair[1] in cam_index]
    started = time.monotonic()
    tracks = build_tracks(registered_measurements, inputs.keypoints)
    executor.finish_stage("tracks", started, len(tracks))
    directions, fractions, kept_dirs, translation = _translation_stage(
        executor, config, remapped, rotations, tracks, cam_index,
        inputs.intrinsics)

    poses = [None] * inputs.n_images
    for cid, k in cam_index.items():
        poses[cid] = Pose3(rotations[k], translation.positions[k])

    landmarks = _data_association_stage(executor, config, tracks, poses,
                                        list(inputs.intrinsics), failures)

    started = time.monotonic()
    problem = BaProblem(tuple(poses), inputs.intrinsics, landmarks)
    final_problem, ba_report = three_round_ba(problem, config.ba_config())
    executor.finish_stage("bundle_adjustment", started, len(landmarks))

    result = SfmResult(
        poses=final_problem.poses, intrinsics=final_problem.intrinsics,
        landmarks=final_problem.landmarks, registered=tuple(cam_ids),
        evaluation_pairs=tuple(kept_edges), cycle_records=records,
        rotation=rotation, translation_cost=float(translation.cost),
        direction_measurements=tuple(directions),
        direction_fractions=tuple(float(f) for f in fractions),
        direction_kept=tuple(kept_dirs), ba_report=ba_report,
        n_edges_verified=len(measurements), n_tracks_total=len(tracks),
        failures=tuple(failures))

    metrics = None
    if config.gt_poses_file is not None:
        reference = load_reference_poses(config, inputs.n_images)
        metrics = compute_metrics(result.poses, reference,
                                  result.evaluation_pairs, result.landmarks)

    write_outputs(config, result, metrics, executor.timing)
    return result, metrics, executor.timing


def load_reference_poses(config: PipelineConfig, n_images: int) -> list:
    """Ground-truth poses as a dense list; relative paths join the input dir."""
    path = Path(config.gt_poses_file)
    if not path.is_absolute():
        path = Path(config.input_dir) / path
    if not path.is_file():
        raise InputError(f"ground-truth poses file not found: {path}")
    by_id = read_poses(path)
    missing = sorted(set(range(n_images)) - set(by_id))
    if missing:
        raise InputError(f"ground truth misses cameras {missing}")
    return [by_id[k] for k in range(n_images)]


def build_report(result: SfmResult, metrics, n_images: int) -> dict:
    """JSON-ready run summary; ``metrics`` carries the evaluation block."""
    return {
        "n_images": int(n_images),
        "n_registered_cameras": int(result.n_registered),
        "n_landmarks": int(len(result.landmarks)),
        "view_graph": {
            "n_edges_verified": int(result.n_edges_verified),
            "n_edges_kept": int(len(result.evaluation_pairs)),
            "n_cameras_kept": int(result.n_registered),
        },
        "rotation_averaging": {
            "cost": float(result.rotation.cost),
            "certified": bool(result.rotation.certified),
            "staircase_level": int(result.rotation.p_final),
        },
        "translation_averaging": {
            "cost": float(result.translation_cost),
            "n_directions": int(len(result.direction_measurements)),
            "n_directions_kept": int(len(result.direction_kept)),
        },
        "bundle_adjustment": {
            "rounds": [{
                "initial_cost": float(r.initial_cost),
                "final_cost": float(r.final_cost),
                "iterations": int(r.iterations),
                "converged": bool(r.converged),
                "n_tracks_kept": int(r.n_tracks_kept),
                "filter_threshold_px": (None if r.filter_threshold_px is None
                                        else float(r.filter_threshold_px)),
            } for r in result.ba_report.rounds],
        },
        "n_tracks_total": int(result.n_tracks_total),
        "failures": [{"stage": stage, "key": key, "reason": reason}
                     for stage, key, reason in result.failures],
        "metrics": None if metrics is None else metrics.to_json_dict(),
    }


def write_outputs(config: PipelineConfig, result: SfmResult, metrics,
                  timing: TimingLog) -> None:
    """Write every artifact of a successful run into the output directory."""
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_poses(out / OUTPUT_POSES, list(result.poses))
    export_ply(out / OUTPUT_CLOUD, result.landmarks.points, list(result.poses),
               intrinsics=list(result.intrinsics))
    write_json(out / OUTPUT_REPORT,
               build_report(result, metrics, len(result.poses)))
    write_json(out / OUTPUT_TIMING, timing.to_json_dict())
    write_view_graph_csv(out / OUTPUT_VIEWGRAPH, result.cycle_records)
    write_direction_violations_csv(out / OUTPUT_VIOLATIONS,
                                   result.direction_measurements,
                                   result.direction_fractions,
                                   result.direction_kept)


def dump_view_graph(config: PipelineConfig) -> dict:
    """Run the pipeline up to cycle filtering and write ``viewgraph.csv``.

    Returns the edge -> cycle-record dict that was written.
    """
    with TaskExecutor(config.resolved_workers()) as executor:
        inputs = _ingest(config)
        candidates = _retrieval_stage(executor, config, inputs)
        measurements = _two_view_stage(executor, config, inputs, candidates,
                                       [])
    graph = build_view_graph(measurements, n_cameras=inputs.n_images)
    _, records = two_stage_cycle_filter(graph, config.cycle_epsilon_deg)
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_view_graph_csv(out / OUTPUT_VIEWGRAPH, records)
    return records


def evaluate_pose_files(estimated_path, reference_path) -> MetricsReport:
    """Metrics-only entry point: compare two poses files.

    Relative errors are evaluated over all pairs of cameras registered in
    the estimate; cameras present only in the reference count as
    unregistered.
    """
    estimated_by_id = read_poses(estimated_path)
    reference_by_id = read_poses(reference_path)
    if not reference_by_id:
        raise InputError(f"{reference_path}: no reference poses")
    ids = sorted(reference_by_id)
    missing = sorted(set(estimated_by_id) - set(reference_by_id))
    if missing:
        raise InputError(f"estimated cameras {missing} have no reference")
    estimated = [estimated_by_id.get(cid) for cid in ids]
    reference = [reference_by_id[cid] for cid in ids]
    registered = [k for k, pose in enumerate(estimated) if pose is not None]
    pairs = [(a, b) for idx, a in enumerate(registered)
             for b in registered[idx + 1:]]
    return compute_metrics(estimated, reference, pairs, landmarks=())
