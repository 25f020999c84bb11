"""Shared synthetic scene builders for the test suite."""

from pathlib import Path
from types import SimpleNamespace

import numpy as np

from globalsfm.bundle_adjustment import _problem_costs
from globalsfm.essential import sampson_blocks_px
from globalsfm.geometry import (
    CameraIntrinsics,
    Pose3,
    project_points,
    relative_pose,
    so3_exp,
)
from globalsfm.io import (
    write_descriptors,
    write_intrinsics,
    write_keypoints,
    write_matches,
    write_poses,
)
from globalsfm.synthetic import generate_orbit_scene, inject_outlier_edges
from globalsfm.tracks import Landmarks, Tracks
from globalsfm.two_view import MatchSet, keypoint_rays


def make_tracks(observations) -> Tracks:
    """The table of tracks given as sequences of (image, (x, y))."""
    rows = [row for track in observations for row in track]
    return Tracks(np.cumsum([0] + [len(track) for track in observations]),
                  np.array([image for image, _ in rows], dtype=np.intp),
                  np.array([xy for _, xy in rows], dtype=float).reshape(-1, 2))


def make_landmarks(observations, points, masks=None, mean_errors=None):
    """The landmarks of tracks given as sequences of (image, (x, y)), with
    one point, inlier mask (all inliers by default) and mean error (0 by
    default) per track."""
    tracks = make_tracks(observations)
    if masks is None:
        masks = [np.ones(len(track), dtype=bool) for track in observations]
    if mean_errors is None:
        mean_errors = np.zeros(len(tracks))
    return Landmarks(tracks, np.array(points, dtype=float).reshape(-1, 3),
                     np.concatenate([np.zeros(0, dtype=bool), *masks]),
                     np.array(mean_errors, dtype=float))


def observations_of(tracks) -> list:
    """Each track of a table as a tuple of (image, (x, y))."""
    return [tuple((image, (x, y)) for image, (x, y) in
                  zip(images.tolist(), pixels.tolist()))
            for images, pixels in zip(
                np.split(tracks.images, tracks.offsets[1:-1]),
                np.split(tracks.pixels, tracks.offsets[1:-1]))][:len(tracks)]


def triangulation_outcomes(result) -> list:
    """One outcome per track of a ``triangulate_tracks`` result: the
    track's :class:`~globalsfm.tracks.LandmarkRow`, None or its error."""
    landmarks, outcomes = result
    rows = list(landmarks)
    return [rows[o] if isinstance(o, int) else o for o in outcomes]


def state_bytes(state) -> bytes:
    """The bytes of every array or number held by an LM state (an array, a
    tuple of arrays or an object of such fields)."""
    if isinstance(state, tuple):
        return b"".join(state_bytes(part) for part in state)
    if hasattr(state, "__dict__"):
        return state_bytes(tuple(vars(state).values()))
    return np.asarray(state).tobytes()


def recording_core(core, log: list):
    """``core``, the Schur-LM loop, with its callbacks recorded in ``log``
    in call order: ``("retract",)``; ``("evaluate", k, state bytes,
    residuals, state)`` for the k-th evaluation; ``("differentiate", k)``
    when the k-th evaluation is differentiated."""
    def spy(state, evaluate, retract, structure, huber_px, *args):
        def recorded_evaluate(candidate):
            k = sum(entry[0] == "evaluate" for entry in log)
            lin, differentiate = evaluate(candidate)
            log.append(("evaluate", k, state_bytes(candidate), lin.res.copy(),
                        candidate))

            def recorded_differentiate():
                log.append(("differentiate", k))
                return differentiate()
            return lin, recorded_differentiate

        def recorded_retract(*step):
            log.append(("retract",))
            return retract(*step)
        return core(state, recorded_evaluate, recorded_retract, structure,
                    huber_px, *args)
    return spy


def replay_one_problem(log: list, huber_px) -> tuple:
    """Check a :func:`recording_core` log of one problem: no state is
    evaluated twice, ``evaluate`` is called once at the start and once per
    trial step, and ``differentiate`` once at the start and once per
    accepted step, on the evaluation that accepted it.  A trial is
    accepted iff it lowers the cost of the current state.  Returns
    (accepted steps, rejected steps, final cost)."""
    evaluations = [entry for entry in log if entry[0] == "evaluate"]
    keys = [entry[2] for entry in evaluations]
    assert len(set(keys)) == len(keys), "a state was evaluated twice"
    assert len(evaluations) == 1 + log.count(("retract",))
    one = SimpleNamespace(n_problems=1)
    costs = [_problem_costs(entry[3], huber_px, one)[0]
             for entry in evaluations]
    current, accepted = costs[0], []
    for k, cost in enumerate(costs[1:], start=1):
        if cost < current:
            accepted.append(k)
            current = cost
    differentiated = [entry[1] for entry in log if entry[0] == "differentiate"]
    assert differentiated == [0] + accepted
    return len(accepted), len(costs) - 1 - len(accepted), current


def sampson_px(e, x_i, x_j, focal_scale):
    """Unsigned Sampson distances in pixels of (N, 2) correspondences under
    one (3, 3) candidate, (N,), or a (C, 3, 3) stack, (C, N), from the
    kernel called with one block."""
    e = np.asarray(e, dtype=float)
    homogeneous = [np.column_stack([x, np.ones(len(x))]) for x in (x_i, x_j)]
    distances, _ = sampson_blocks_px([(e.reshape(-1, 3, 3), *homogeneous,
                                       focal_scale)])
    return np.abs(distances).reshape(e.shape[:-2] + (len(x_i),))


def write_scene_dir(directory, n_cameras=12, n_points=120, noise_px=0.0,
                    seed=0, outlier_fraction=0.0, outlier_mode="doppelganger",
                    **scene_kwargs):
    """Generate an orbit scene and write it as a pipeline input directory.

    Returns the generating SyntheticScene; the directory ends up with the
    four front-end files plus ``gt_poses.txt``.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    scene, keypoints, matches, descriptors = generate_orbit_scene(
        n_cameras, n_points, noise_px=noise_px, seed=seed, **scene_kwargs)
    if outlier_fraction > 0.0:
        keypoints, matches, _ = inject_outlier_edges(
            scene, keypoints, matches, outlier_fraction, mode=outlier_mode,
            seed=seed)
    write_descriptors(directory / "descriptors.bin", descriptors)
    write_keypoints(directory / "keypoints.json", keypoints)
    write_matches(directory / "matches.json", matches)
    write_intrinsics(directory / "intrinsics.json",
                     dict(enumerate(scene.intrinsics)))
    write_poses(directory / "gt_poses.txt", list(scene.poses))
    return scene


def rotation_graph(gt_rotations, edge_list, perturb_deg=None, rng=None,
                   noise_deg=0.0):
    """View graph whose edges carry relative rotations derived from global ones.

    ``gt_rotations`` are camera-to-world; the edge measurement maps the frame
    of the lower-id camera into the higher-id one.  ``perturb_deg`` maps an
    edge to an exact perturbation angle (random axis); ``noise_deg`` adds
    i.i.d. angular noise to every edge.
    """
    from globalsfm.view_graph import build_view_graph

    if rng is None:
        rng = np.random.default_rng(0)
    measurements = []
    for i, j in edge_list:
        rel = gt_rotations[j].T @ gt_rotations[i]
        if noise_deg > 0.0:
            rel = so3_exp_random_axis(rng, np.radians(noise_deg)) @ rel
        if perturb_deg and (i, j) in perturb_deg:
            rel = so3_exp_random_axis(rng, np.radians(perturb_deg[(i, j)])) @ rel
        measurements.append(MatchStubMeasurement((i, j), rel))
    return build_view_graph(measurements)


def so3_exp_random_axis(rng, angle_rad):
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    return so3_exp(axis * angle_rad)


class MatchStubMeasurement:
    """Minimal stand-in for a verified pair when only the rotation matters."""

    def __init__(self, pair, rotation, direction=None):
        self.pair = pair
        self.rotation = rotation
        self.direction = direction if direction is not None else np.array([1.0, 0.0, 0.0])
        self.inliers = np.zeros((0, 2), dtype=int)
        self.inlier_ratio = 1.0
        self.n_inliers = 100


def make_pair_scene(rng, n_points=60, noise_px=0.0, n_outliers=0,
                    focal=600.0, width=760, height=570, baseline=1.5,
                    rotation_deg=12.0, k1=0.0, k2=0.0):
    """Two cameras looking at a frontal point cloud, with exact or noisy matches.

    Returns a dict with keypoints, their rays, a MatchSet, intrinsics, the
    ground-truth relative rotation / unit direction (camera i frame to camera j frame), and
    a boolean flag per correspondence marking true inliers.
    """
    intr = CameraIntrinsics(f=focal, k1=k1, k2=k2, u0=width / 2.0, v0=height / 2.0)
    pose_i = Pose3.identity()
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    rot_j = so3_exp(axis * np.radians(rotation_deg))
    center_j = np.array([baseline, 0.0, 0.0]) + rng.normal(scale=0.1, size=3)
    pose_j = Pose3(rot_j, center_j)

    points = []
    while len(points) < n_points:
        cand = np.column_stack([rng.uniform(-3.0, 4.0, n_points),
                                rng.uniform(-2.5, 2.5, n_points),
                                rng.uniform(6.0, 14.0, n_points)])
        uv_i, d_i = project_points(cand, pose_i, intr)
        uv_j, d_j = project_points(cand, pose_j, intr)
        ok = ((d_i > 0.2) & (d_j > 0.2)
              & (uv_i[:, 0] > 0) & (uv_i[:, 0] < width)
              & (uv_i[:, 1] > 0) & (uv_i[:, 1] < height)
              & (uv_j[:, 0] > 0) & (uv_j[:, 0] < width)
              & (uv_j[:, 1] > 0) & (uv_j[:, 1] < height))
        points.extend(cand[ok].tolist())
    points = np.array(points[:n_points])

    uv_i, _ = project_points(points, pose_i, intr)
    uv_j, _ = project_points(points, pose_j, intr)
    if noise_px > 0.0:
        uv_i = uv_i + rng.normal(scale=noise_px, size=uv_i.shape)
        uv_j = uv_j + rng.normal(scale=noise_px, size=uv_j.shape)

    kp_i = uv_i
    kp_j = uv_j
    inlier_flags = np.ones(n_points, dtype=bool)
    if n_outliers > 0:
        out_i = np.column_stack([rng.uniform(0, width, n_outliers),
                                 rng.uniform(0, height, n_outliers)])
        out_j = np.column_stack([rng.uniform(0, width, n_outliers),
                                 rng.uniform(0, height, n_outliers)])
        kp_i = np.vstack([kp_i, out_i])
        kp_j = np.vstack([kp_j, out_j])
        inlier_flags = np.concatenate([inlier_flags, np.zeros(n_outliers, dtype=bool)])

    n_total = len(kp_i)
    matches = MatchSet((0, 1), np.column_stack([np.arange(n_total), np.arange(n_total)]))
    rel = relative_pose(pose_i, pose_j)
    direction = rel.translation / np.linalg.norm(rel.translation)
    rays = keypoint_rays({0: kp_i, 1: kp_j}, (intr, intr))
    return {
        "kp_i": kp_i, "kp_j": kp_j, "matches": matches,
        "rays_i": rays[0], "rays_j": rays[1],
        "intr_i": intr, "intr_j": intr,
        "rotation": rel.rotation, "direction": direction,
        "points": points, "inlier_flags": inlier_flags,
        "pose_i": pose_i, "pose_j": pose_j,
    }
