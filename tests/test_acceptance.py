"""End-to-end acceptance gates for the reconstruction library.

Each test checks one release gate and prints a single ``[PASS]``/``[FAIL]``
line with the measured numbers (visible with ``pytest -s`` or on failure).
The gates:

* a noise-free oracle scene is reconstructed with pose AUC >= 99.5 at every
  threshold, in under a minute on one worker;
* noise-free global poses are exact to 1e-4 deg (rotation) / 1e-3 deg
  (translation direction) after similarity alignment;
* the cycle filter removes every consistent-looking corrupted edge while
  retaining >= 95% of the clean ones;
* the analytic bundle-adjustment Jacobian matches central differences;
* DLT triangulation is exact on noise-free tracks and its RANSAC wrapper
  agrees with the full-track solve;
* the closed-form pose AUC equals Monte-Carlo integration of the recall
  curve;
* worker count does not change any output byte;
* turning off two-view refinement or the point-direction + robust-loss
  machinery each lowers mean pose AUC, and admitting length-2 tracks lets
  more bad correspondences into the final landmarks;
* rotation averaging certifies optimality on clean graphs and beats its own
  spanning-tree initialization on noisy ones;
* the pair-verification stage speeds up with extra workers (run only on
  hosts with at least eight usable CPUs).
"""

import math
import os
import time
from collections import Counter

import numpy as np
import pytest

from globalsfm.bundle_adjustment import (
    BaConfig,
    ba_parameter_layout,
    ba_residuals_and_jacobian,
)
from globalsfm.config import PipelineConfig
from globalsfm.errors import GlobalSfmError
from globalsfm.geometry import (
    CameraIntrinsics,
    normalized,
    project_points,
    project_to_so3,
    random_rotation,
    rotation_angular_error,
    so3_exp,
)
from globalsfm.io import read_keypoints
from globalsfm.metrics import AUC_THRESHOLDS_DEG, pose_auc
from globalsfm.pipeline import (
    OUTPUT_CLOUD,
    OUTPUT_POSES,
    OUTPUT_REPORT,
    run_pipeline,
)
from globalsfm.rotation_averaging import (
    RotationAveragingProblem,
    kappa_from_sigma,
    solve_rotations,
    spanning_tree_init,
)
from globalsfm.seeding import stable_seed
from globalsfm.synthetic import generate_orbit_scene, inject_outlier_edges
from globalsfm.tracks import (
    TriangulationConfig,
    _camera_matrices,
    _dlt_points,
    triangulate_tracks,
)
from globalsfm.two_view import keypoint_rays, verify_pairs
from globalsfm.view_graph import build_view_graph, two_stage_cycle_filter

from tests._helpers import (make_tracks, triangulation_outcomes,
                           write_scene_dir)
from tests.test_bundle_adjustment import (
    looking_at_origin,
    make_problem,
    perturb_problem,
    perturbed_column,
)


def _gate(name, passed, detail=""):
    """Print one pass/fail line for a gate and assert it."""
    line = f"[{'PASS' if passed else 'FAIL'}] {name}"
    if detail:
        line += f" — {detail}"
    print(line)
    assert passed, line


# ---------------------------------------------------------------------------
# Gate 1 + 2: flagship noise-free run (shared pipeline execution)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def flagship_run(tmp_path_factory):
    """One noise-free 20-camera / 500-point run on a single worker."""
    base = tmp_path_factory.mktemp("flagship")
    scene_dir = base / "scene"
    write_scene_dir(scene_dir, n_cameras=20, n_points=500, noise_px=0.0,
                    seed=7)
    config = PipelineConfig(input_dir=str(scene_dir),
                            output_dir=str(base / "out"),
                            gt_poses_file="gt_poses.txt",
                            rotation_sigma=0.1, n_workers=1, seed=0)
    started = time.perf_counter()
    result, metrics, _ = run_pipeline(config)
    runtime_s = time.perf_counter() - started
    return result, metrics, runtime_s


def test_noise_free_scene_reaches_high_auc_quickly(flagship_run):
    result, metrics, runtime_s = flagship_run
    auc = metrics.pose_auc
    thresholds_ok = tuple(sorted(auc)) == AUC_THRESHOLDS_DEG
    auc_ok = all(auc[t] >= 99.5 for t in auc)
    detail = ("AUC " + ", ".join(f"{t:g}°={auc[t]:.2f}"
                                 for t in sorted(auc))
              + f"; {result.n_registered}/{metrics.n_cameras_total} cameras"
              + f"; {runtime_s:.1f} s on 1 worker")
    _gate("noise-free oracle scene: pose AUC >= 99.5 at every threshold "
          "in < 60 s", thresholds_ok and auc_ok and runtime_s < 60.0, detail)


def test_noise_free_global_poses_are_numerically_exact(flagship_run):
    _, metrics, _ = flagship_run
    rot_max = metrics.global_rotation_error_deg["max"]
    trans_max = metrics.global_translation_error_deg["max"]
    ok = (rot_max is not None and trans_max is not None
          and rot_max < 1e-4 and trans_max < 1e-3)
    _gate("noise-free back-end exactness: rotation < 1e-4 deg, translation "
          "direction < 1e-3 deg after alignment", ok,
          f"max rotation {rot_max:.2e} deg, "
          f"max translation {trans_max:.2e} deg")


# ---------------------------------------------------------------------------
# Gate 3: cycle-filter precision and recall on corrupted graphs
# ---------------------------------------------------------------------------


def _verified_graph_with_labels(seed):
    """Verify all pairs of a corrupted 20-camera scene; return graph+labels."""
    scene, keypoints, matches, _ = generate_orbit_scene(
        20, 150, noise_px=0.0, seed=300 + seed)
    keypoints, matches, labels = inject_outlier_edges(
        scene, keypoints, matches, 0.10, mode="doppelganger", seed=seed)
    cfg = PipelineConfig(max_ransac_iters=1000).verification_config()
    rays = keypoint_rays(keypoints, scene.intrinsics)
    measurements = []
    for match in matches:
        i, j = match.pair
        result = verify_pairs([(match, rays[i], rays[j], scene.intrinsics[i],
                                scene.intrinsics[j],
                                stable_seed(0, "acceptance-verify", i, j))],
                              cfg)[0]
        if result.measurement is not None:
            measurements.append(result.measurement)
    return build_view_graph(measurements, n_cameras=20), labels


def test_cycle_filter_removes_doppelgangers_and_keeps_clean_edges():
    n_bad_injected = 0
    n_bad_surviving = 0
    retentions = []
    for seed in range(20):
        graph, labels = _verified_graph_with_labels(seed)
        kept, _ = two_stage_cycle_filter(graph, epsilon_deg=7.0)
        bad_pairs = {p for p, label in labels.items() if label != "clean"}
        clean_in_graph = [p for p in graph.edges if p not in bad_pairs]
        n_bad_injected += len(bad_pairs)
        n_bad_surviving += sum(1 for p in kept.edges if p in bad_pairs)
        retentions.append(
            sum(1 for p in kept.edges if p not in bad_pairs)
            / len(clean_in_graph))
    mean_retention = float(np.mean(retentions))
    ok = n_bad_surviving == 0 and mean_retention >= 0.95
    _gate("cycle filter: 100% of >=30-degree corrupted edges removed, "
          ">= 95% clean edges kept (20 seeds)", ok,
          f"{n_bad_injected - n_bad_surviving}/{n_bad_injected} outliers "
          f"removed, mean clean retention {100 * mean_retention:.2f}%")


# ---------------------------------------------------------------------------
# Gate 4: bundle-adjustment Jacobian vs central finite differences
# ---------------------------------------------------------------------------


def test_ba_jacobian_matches_central_differences_over_100_problems():
    step = 1e-6
    combos = ((False, True), (True, True), (True, False))
    worst = 0.0
    for idx in range(100):
        optimize_intr, share = combos[idx % 3]
        config = BaConfig(optimize_intrinsics=optimize_intr,
                          share_intrinsics=share)
        sizes = np.random.default_rng(1000 + idx)
        n_cameras = int(sizes.integers(3, 5))
        n_points = int(sizes.integers(4, 8))
        problem, gt_poses, gt_points = make_problem(
            seed=idx, n_cameras=n_cameras, n_points=n_points, noise_px=0.5,
            distorted=bool(idx % 2))
        problem = perturb_problem(problem, gt_poses, gt_points, seed=idx + 1)
        _, jac = ba_residuals_and_jacobian(problem, config)
        dense = jac.toarray()
        layout = ba_parameter_layout(problem, config)
        for col in range(layout.n_cols):
            build = perturbed_column(problem, config, col)
            r_plus, _ = ba_residuals_and_jacobian(build(step), config)
            r_minus, _ = ba_residuals_and_jacobian(build(-step), config)
            fd = (r_plus - r_minus) / (2.0 * step)
            scale = max(1.0, float(np.max(np.abs(fd))))
            err = float(np.max(np.abs(dense[:, col] - fd))) / scale
            worst = max(worst, err)
    _gate("bundle-adjustment Jacobian matches central differences "
          "(< 1e-5 relative, 100 problems, all block types)", worst < 1e-5,
          f"max relative error {worst:.2e}")


# ---------------------------------------------------------------------------
# Gate 5: triangulation exactness and RANSAC/full-solve agreement
# ---------------------------------------------------------------------------


def _track_instance(seed, n_views, distorted):
    """Noise-free track over cameras on an orbit, with its ground truth."""
    rng = np.random.default_rng(seed)
    if distorted:
        intr = CameraIntrinsics(f=600.0, k1=-0.05, k2=0.002, u0=380.0,
                                v0=285.0)
    else:
        intr = CameraIntrinsics(f=600.0, k1=0.0, k2=0.0, u0=380.0, v0=285.0)
    poses = []
    for k in range(n_views):
        theta = 2.0 * np.pi * k / n_views + rng.uniform(-0.2, 0.2)
        center = np.array([5.0 * np.cos(theta), 5.0 * np.sin(theta),
                           rng.uniform(-1.0, 1.0)])
        poses.append(looking_at_origin(center))
    point = rng.uniform(0.5, 1.2) * normalized(rng.normal(size=3))
    pixels = [project_points(point, pose, intr)[0][0] for pose in poses]
    track = tuple((image, (float(uv[0]), float(uv[1])))
                  for image, uv in enumerate(pixels))
    intrinsics = [intr] * n_views
    return track, poses, intrinsics, point


def _full_track_dlt(track, poses, intrinsics):
    from globalsfm.geometry import pixel_to_normalized

    rays = np.array([pixel_to_normalized(np.asarray(uv, dtype=float), intr)
                     for (_, uv), intr in zip(track, intrinsics)])
    return _dlt_points(rays[None], _camera_matrices(poses)[None])[0]


def test_triangulation_is_exact_and_ransac_equals_full_dlt():
    worst_rel = 0.0
    for seed in range(25):
        track, poses, intrinsics, point = _track_instance(seed, 3,
                                                          distorted=False)
        estimate = _full_track_dlt(track, poses, intrinsics)
        worst_rel = max(worst_rel,
                        float(np.linalg.norm(estimate - point)
                              / np.linalg.norm(point)))
    worst_diff = 0.0
    for seed in range(10):
        n_views = 4 + seed % 5
        track, poses, intrinsics, _ = _track_instance(100 + seed, n_views,
                                                      distorted=True)
        landmark = triangulation_outcomes(triangulate_tracks(
            make_tracks([track]), poses, intrinsics, TriangulationConfig(),
            [seed], 0))[0]
        full = _full_track_dlt(track, poses, intrinsics)
        worst_diff = max(worst_diff,
                         float(np.max(np.abs(landmark.point - full))))
    ok = worst_rel < 1e-8 and worst_diff < 1e-9
    _gate("triangulation: noise-free 3-view DLT < 1e-8 relative and "
          "RANSAC == full DLT within 1e-9", ok,
          f"max relative DLT error {worst_rel:.2e}, "
          f"max RANSAC/full difference {worst_diff:.2e}")


# ---------------------------------------------------------------------------
# Gate 6: pose AUC closed form vs Monte-Carlo integration
# ---------------------------------------------------------------------------


def _monte_carlo_auc(errors, n_unregistered, threshold, rng,
                     n_samples=1_000_000):
    """Stratified Monte-Carlo integral of the recall curve on [0, t].

    One uniform draw per stratum keeps the estimator unbiased while bounding
    the error by (number of recall jumps) x (stratum width), far inside the
    gate tolerance; plain i.i.d. sampling at 1e6 draws would not resolve
    0.01 AUC points.
    """
    n_total = len(errors) + n_unregistered
    if n_total == 0:
        return 0.0
    width = threshold / n_samples
    samples = (np.arange(n_samples) + rng.uniform(0.0, 1.0, n_samples)) * width
    counts = np.searchsorted(np.sort(np.asarray(errors, dtype=float)),
                             samples, side="right")
    return float(100.0 * np.mean(counts / n_total))


def test_pose_auc_matches_monte_carlo_integration():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for trial in range(50):
        n = int(rng.integers(1, 40))
        errors = rng.uniform(0.0, 25.0, size=n)
        n_unregistered = int(rng.integers(0, 4))
        auc = pose_auc(errors, n_unregistered)
        mc_rng = np.random.default_rng(5150 + trial)
        for threshold, value in auc.items():
            oracle = _monte_carlo_auc(errors, n_unregistered, threshold,
                                      mc_rng)
            worst = max(worst, abs(value - oracle))
    _gate("pose AUC equals 1e6-sample Monte-Carlo integration within 0.01 "
          "(50 error sets with unregistered cameras)", worst <= 0.01,
          f"max |closed form - Monte-Carlo| = {worst:.4f}")


# ---------------------------------------------------------------------------
# Gate 7: worker count never changes output bytes
# ---------------------------------------------------------------------------


def test_outputs_are_byte_identical_for_1_and_8_workers(tmp_path_factory):
    base = tmp_path_factory.mktemp("determinism")
    scene_dir = base / "scene"
    write_scene_dir(scene_dir, n_cameras=10, n_points=150, noise_px=0.5,
                    seed=21)
    outputs = {}
    for n_workers in (1, 8):
        out_dir = base / f"out{n_workers}"
        config = PipelineConfig(input_dir=str(scene_dir),
                                output_dir=str(out_dir),
                                gt_poses_file="gt_poses.txt",
                                n_workers=n_workers, seed=3)
        run_pipeline(config)
        outputs[n_workers] = {
            name: (out_dir / name).read_bytes()
            for name in (OUTPUT_POSES, OUTPUT_CLOUD, OUTPUT_REPORT)}
    mismatched = [name for name in outputs[1]
                  if outputs[1][name] != outputs[8][name]]
    _gate("poses, point cloud, and report are byte-identical for "
          "n_workers=1 vs 8", not mismatched,
          "all files identical" if not mismatched
          else f"differing files: {', '.join(mismatched)}")


# ---------------------------------------------------------------------------
# Gate 8: accuracy ablations are directionally harmful
# ---------------------------------------------------------------------------

_ABLATIONS = {
    "two-view refinement off": {"enable_two_view_ba": False},
    "length-2 tracks admitted": {"min_track_length": 2},
    "no point directions, no robust loss": {
        "enable_landmark_directions": False,
        "translation_huber_delta": None,
    },
}

# Arms judged on the correspondences they keep rather than on pose AUC: the
# track-length floor guards the reconstruction against bad correspondences,
# while the orbit oracle's clean two-view tracks are correct pose
# constraints.
_BAD_OBSERVATION_ARMS = ("length-2 tracks admitted",)


def _ablation_run(scene_dir, out_dir, **overrides):
    """Run one ablation arm; None when the pipeline raises.

    The sparse retrieval window keeps the pair graph skeletal, so position
    recovery actually depends on the machinery under ablation instead of
    drowning it in redundant camera-camera edges.
    """
    config = PipelineConfig(input_dir=str(scene_dir), output_dir=str(out_dir),
                            gt_poses_file="gt_poses.txt", n_workers=1, seed=0,
                            max_ransac_iters=1000, retrieval_lookahead=2,
                            retrieval_k_small=1, **overrides)
    try:
        result, metrics, _ = run_pipeline(config)
    except GlobalSfmError:
        return None
    return result, metrics


def _mean_auc_for(run):
    """Mean pose AUC across thresholds; a failed run scores zero.

    This is the measure of every ablation arm except the length-2 one, which
    is judged on the bad correspondences it keeps
    (``_bad_observation_fraction_for``).
    """
    if run is None:
        return 0.0
    _, metrics = run
    return float(np.mean(list(metrics.pose_auc.values())))


def _keypoint_owners(scene, scene_dir):
    """Map (image, x, y) of every written keypoint to its point id or None.

    Rows past the generator's own keypoints were appended by outlier
    injection and belong to no ground-truth point.
    """
    owners = {}
    for image, rows in read_keypoints(scene_dir / "keypoints.json").items():
        ids = scene.keypoint_point_ids[image]
        for row, (x, y) in enumerate(rows):
            owner = int(ids[row]) if row < len(ids) else None
            owners.setdefault((image, float(x), float(y)), owner)
    return owners


def _bad_observation_fraction_for(run, owners):
    """Share of final inlier observations that miss their landmark's point.

    A landmark's ground-truth point is the one most of its inlier
    observations belong to; an inlier observation of any other point, or of
    a keypoint that belongs to no point, is a bad correspondence the
    reconstruction kept.  A failed run scores inf.
    """
    if run is None:
        return math.inf
    result, _ = run
    bad = total = 0
    for landmark in result.landmarks:
        seen = [owners[(image, uv[0], uv[1])]
                for image, uv, inlier in zip(landmark.images.tolist(),
                                             landmark.pixels.tolist(),
                                             landmark.inlier_mask)
                if inlier]
        votes = Counter(point_id for point_id in seen if point_id is not None)
        bad += len(seen) - (votes.most_common(1)[0][1] if votes else 0)
        total += len(seen)
    return bad / total


def test_each_ablation_strictly_worsens_mean_pose_auc(tmp_path_factory):
    base = tmp_path_factory.mktemp("ablations")
    baseline_auc = []
    baseline_bad_observations = []
    ablation_scores = {name: [] for name in _ABLATIONS}
    for seed in range(10):
        scene_dir = base / f"scene{seed}"
        scene = write_scene_dir(scene_dir, n_cameras=12, n_points=250,
                                noise_px=1.0, seed=600 + seed,
                                outlier_fraction=0.05,
                                outlier_mode="doppelganger", dropout=0.5)
        owners = _keypoint_owners(scene, scene_dir)
        run = _ablation_run(scene_dir, base / f"base{seed}")
        baseline_auc.append(_mean_auc_for(run))
        baseline_bad_observations.append(
            _bad_observation_fraction_for(run, owners))
        for k, (name, overrides) in enumerate(_ABLATIONS.items()):
            run = _ablation_run(scene_dir, base / f"abl{k}_{seed}",
                                **overrides)
            ablation_scores[name].append(
                _bad_observation_fraction_for(run, owners)
                if name in _BAD_OBSERVATION_ARMS else _mean_auc_for(run))
    baseline = {"auc": float(np.mean(baseline_auc)),
                "bad": float(np.mean(baseline_bad_observations))}
    means = {name: float(np.mean(scores))
             for name, scores in ablation_scores.items()}
    ok = all(means[name] > baseline["bad"] if name in _BAD_OBSERVATION_ARMS
             else means[name] < baseline["auc"] for name in means)
    detail = (f"baseline mean AUC {baseline['auc']:.3f}, mean bad "
              f"observation fraction {baseline['bad']:.2e}; " + "; ".join(
                  f"{name}: bad observation fraction {mean:.2e}"
                  if name in _BAD_OBSERVATION_ARMS
                  else f"{name}: AUC {mean:.3f}"
                  for name, mean in means.items()))
    _gate("each ablation strictly worsens accuracy over 10 noisy 5%-outlier "
          "scenes (length-2 tracks: more bad correspondences kept; the "
          "others: lower mean pose AUC)", ok, detail)


# ---------------------------------------------------------------------------
# Gate 9: rotation-averaging certificate and accuracy vs initialization
# ---------------------------------------------------------------------------


def _rotation_problem(seed, n_cameras=15, noise_deg=0.0):
    rng = np.random.default_rng(seed)
    gt = [random_rotation(rng) for _ in range(n_cameras)]
    edge_list = ([(i, i + 1) for i in range(n_cameras - 1)]
                 + [(i, i + 2) for i in range(n_cameras - 2)]
                 + [(0, n_cameras - 1)])
    kappa = kappa_from_sigma(max(noise_deg, 0.5))
    edges = []
    for i, j in edge_list:
        relative = gt[j].T @ gt[i]
        if noise_deg > 0.0:
            axis = normalized(rng.normal(size=3))
            angle = rng.normal(scale=np.deg2rad(noise_deg))
            relative = so3_exp(axis * angle) @ relative
        edges.append((i, j, relative, kappa))
    return RotationAveragingProblem(tuple(edges), n_cameras), gt


def _mean_rotation_error_deg(estimated, reference):
    """Mean per-camera angle after the best-fit global rotation."""
    alignment = project_to_so3(
        sum(ref @ est.T for est, ref in zip(estimated, reference)))
    return float(np.mean([
        rotation_angular_error(alignment @ est, ref)
        for est, ref in zip(estimated, reference)]))


def test_rotation_averaging_certifies_and_beats_spanning_tree():
    certified_ok = True
    worst_cost = 0.0
    for seed in range(10):
        problem, _ = _rotation_problem(seed, noise_deg=0.0)
        solution = solve_rotations(problem)
        certified_ok &= solution.certified and solution.p_final == 3
        worst_cost = max(worst_cost, solution.cost)
    wins = 0
    for seed in range(20):
        problem, gt = _rotation_problem(100 + seed, noise_deg=2.0)
        tree = spanning_tree_init(problem)
        solution = solve_rotations(problem)
        if (_mean_rotation_error_deg(solution.rotations, gt)
                < _mean_rotation_error_deg(tree, gt)):
            wins += 1
    ok = certified_ok and worst_cost < 1e-12 and wins == 20
    _gate("rotation averaging: certificate at level 3 with cost < 1e-12 on "
          "clean graphs; beats spanning tree 20/20 on 2-degree noise", ok,
          f"max clean cost {worst_cost:.2e}, wins {wins}/20")


# ---------------------------------------------------------------------------
# Soft scaling check: pair verification should parallelize
# ---------------------------------------------------------------------------


def _usable_cpus():
    """CPUs this process may run on (all online CPUs where unknown)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@pytest.mark.skipif(_usable_cpus() < 8,
                    reason="8-worker speedup bound needs >= 8 usable CPUs")
def test_pair_verification_scales_with_eight_workers(tmp_path_factory):
    """Soft scaling check; needs eight usable cores to pass."""
    base = tmp_path_factory.mktemp("scaling")
    scene_dir = base / "scene"
    write_scene_dir(scene_dir, n_cameras=21, n_points=200, noise_px=0.0,
                    seed=42)
    wall = {}
    pairs = {}
    for n_workers in (1, 8):
        config = PipelineConfig(input_dir=str(scene_dir),
                                output_dir=str(base / f"out{n_workers}"),
                                gt_poses_file="gt_poses.txt",
                                rotation_sigma=0.1, retrieval_lookahead=20,
                                n_workers=n_workers, seed=0)
        _, _, timing = run_pipeline(config)
        stage = next(s for s in timing.stages if s.stage == "two_view")
        wall[n_workers] = stage.wall_time_s
        pairs[n_workers] = stage.n_tasks
    ratio = wall[8] / wall[1]
    _gate("pair verification with 8 workers runs in <= 0.3x the 1-worker "
          "wall time on a ~200-pair scene", ratio <= 0.3,
          f"{pairs[1]} pairs; 1 worker {wall[1]:.2f} s, 8 workers "
          f"{wall[8]:.2f} s, ratio {ratio:.2f} "
          f"(host exposes {_usable_cpus()} usable CPU core(s))")
