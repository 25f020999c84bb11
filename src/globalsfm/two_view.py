"""Two-view verification: robust relative-pose estimation and refinement.

Per image pair this runs keypoint cleanup, essential-matrix RANSAC with local
optimization, four-fold pose disambiguation, the inlier floors, and a small
joint refinement of the relative pose and triangulated points.  Every image's
keypoints are undistorted once, by :func:`keypoint_rays`; the per-pair steps
take those ray tables and slice them by match index.  The
refinement has no solver of its own: it runs the Schur-LM core of
:mod:`globalsfm.bundle_adjustment` (``levenberg_marquardt``) with camera i
fixed and a 5-DOF block for camera j, a right rotation increment plus a step
in the tangent plane of the unit translation.  Each pair is a pure function
of its inputs and a seed, so pairs can run on any worker in any order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    CheiralityAmbiguous,
    IndeterminateSystem,
    NoModelFound,
    TooFewMatches,
)
from .bundle_adjustment import (
    BlockStructure,
    Linearization,
    levenberg_marquardt,
    normal_equations,
    reduced_camera_system,
)
from .essential import (
    decompose_essential,
    five_point_essential,
    project_to_essential,
    sampson_distance_px,
    two_view_depths,
)
from .geometry import (
    MIN_DEPTH,
    CameraIntrinsics,
    camera_point_pixel_jacobian,
    pixel_to_normalized,
    project_camera_points,
    so3_exp,
    so3_hat_batch,
)

REASON_OK = "ok"
# most RANSAC samples solved and scored in one batch
RANSAC_CHUNK = 64


@dataclass(frozen=True)
class MatchSet:
    """Correspondences of one image pair as keypoint index rows (idx_i, idx_j)."""

    pair: tuple
    indices: np.ndarray

    def __len__(self) -> int:
        return len(self.indices)


@dataclass(frozen=True)
class TwoViewMeasurement:
    """Verified relative pose of a pair: p_j = rotation @ p_i + direction * scale.

    ``rotation`` maps camera-i coordinates into camera j, ``direction`` is the
    unit translation of that map (scale unobservable).  ``inliers`` holds the
    surviving correspondence index rows; ``inlier_ratio`` is relative to the
    raw match count of the pair.
    """

    pair: tuple
    rotation: np.ndarray
    direction: np.ndarray
    inliers: np.ndarray
    inlier_ratio: float
    n_inliers: int


@dataclass(frozen=True)
class VerificationConfig:
    """Thresholds for two-view estimation; defaults match the pipeline defaults."""

    ransac_threshold_px: float = 4.0
    ransac_confidence: float = 0.9999
    max_ransac_iters: int = 10000
    min_inlier_ratio: float = 0.10
    min_inliers: int = 15
    two_view_ba_reproj_prune_px: float = 0.5
    enable_two_view_ba: bool = True  # ablation switch; skips the pair refinement

    def __post_init__(self):
        for name in ("ransac_threshold_px", "ransac_confidence", "max_ransac_iters",
                     "min_inlier_ratio", "min_inliers", "two_view_ba_reproj_prune_px"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


def merge_keypoints_nms(keypoints: dict, matches: list, radius_px: float) -> tuple:
    """Merge near-duplicate keypoints per image and remap matches.

    Keypoints closer than ``radius_px`` (transitively chained) collapse to
    their cluster centroid.  Correspondences that become identical index rows
    after remapping are deduplicated.

    Args:
        keypoints: image_id -> (K, 2) pixel array.
        matches: list of MatchSet.
        radius_px: merge radius, > 0.

    Returns:
        (merged keypoints dict, remapped MatchSet list).
    """
    merged = {}
    remap = {}
    for image_id, kps in keypoints.items():
        kps = np.atleast_2d(np.asarray(kps, dtype=float))
        n = len(kps)
        parent = list(range(n))

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        if n > 1:
            diff = kps[:, None, :] - kps[None, :, :]
            close = np.sum(diff * diff, axis=-1) <= radius_px * radius_px
            ii, jj = np.nonzero(np.triu(close, k=1))
            for a, b in zip(ii.tolist(), jj.tolist()):
                ra, rb = find(a), find(b)
                if ra != rb:
                    parent[rb] = ra
        clusters = {}
        for idx in range(n):
            clusters.setdefault(find(idx), []).append(idx)
        new_positions = []
        index_map = np.empty(n, dtype=int)
        for new_idx, members in enumerate(sorted(clusters.values(), key=min)):
            new_positions.append(kps[members].mean(axis=0))
            for m in members:
                index_map[m] = new_idx
        merged[image_id] = np.array(new_positions) if new_positions else kps
        remap[image_id] = index_map

    out_matches = []
    for ms in matches:
        i, j = ms.pair
        idx = np.atleast_2d(np.asarray(ms.indices, dtype=int))
        if len(idx) == 0:
            out_matches.append(ms)
            continue
        rows = np.column_stack([remap[i][idx[:, 0]], remap[j][idx[:, 1]]])
        rows = np.unique(rows, axis=0)
        out_matches.append(MatchSet(ms.pair, rows))
    return merged, out_matches


def keypoint_rays(keypoints: dict, intrinsics) -> dict:
    """Undistorted normalized rays of every image's keypoints.

    Args:
        keypoints: image_id -> (K, 2) pixel array.
        intrinsics: camera intrinsics indexed by image id.

    Returns:
        image_id -> (K, 2) rays, row k the ray of keypoint k; one
        undistortion call per image.
    """
    return {image: pixel_to_normalized(np.asarray(kps, dtype=float),
                                       intrinsics[image])
            for image, kps in keypoints.items()}


def _adaptive_iterations(inlier_ratio: float, confidence: float, cap: int) -> int:
    if inlier_ratio >= 1.0:
        return 1
    if inlier_ratio <= 0.0:
        return cap
    denom = math.log(max(1e-300, 1.0 - inlier_ratio ** 5))
    if denom >= 0.0:
        return cap
    return min(cap, max(1, int(math.ceil(math.log(1.0 - confidence) / denom))))


def _lsq_essential(x_i: np.ndarray, x_j: np.ndarray) -> np.ndarray:
    xi = np.column_stack([x_i, np.ones(len(x_i))])
    xj = np.column_stack([x_j, np.ones(len(x_j))])
    rows = np.einsum("ni,nj->nij", xj, xi).reshape(len(xi), 9)
    _, _, vt = np.linalg.svd(rows)
    return project_to_essential(vt[-1].reshape(3, 3))


def estimate_essential_ransac(matches: MatchSet, rays_i: np.ndarray, rays_j: np.ndarray,
                              intr_i: CameraIntrinsics, intr_j: CameraIntrinsics,
                              cfg: VerificationConfig, seed: int) -> tuple:
    """Essential matrix by locally optimized RANSAC over the five-point solver.

    Inliers are correspondences whose first-order epipolar distance, scaled by
    the pair's mean focal length, is at most ``cfg.ransac_threshold_px``.
    Every new best hypothesis is refit on its inliers (least squares plus
    projection onto the essential manifold) and kept if support grows.  The
    iteration budget adapts to the best inlier ratio at ``ransac_confidence``.
    ``rays_i`` and ``rays_j`` are the two images' :func:`keypoint_rays`;
    the intrinsics only supply the focal lengths of the pixel threshold.

    Samples are drawn one per iteration but solved and scored in chunks that
    double from 1 up to ``RANSAC_CHUNK`` samples, never past the current
    budget; candidates are then taken in draw order, so the result is that
    of a one-sample-per-iteration loop and draws past the stop are unused.

    Returns:
        (essential matrix with unit Frobenius norm, boolean inlier mask).

    Raises:
        TooFewMatches: fewer than 5 correspondences.
        NoModelFound: no hypothesis reached 5 inliers.
    """
    idx = np.atleast_2d(np.asarray(matches.indices, dtype=int))
    n = len(idx)
    if n < 5:
        raise TooFewMatches(f"pair {matches.pair}: {n} matches < 5")
    x_i = rays_i[idx[:, 0]]
    x_j = rays_j[idx[:, 1]]
    focal_scale = 0.5 * (intr_i.f + intr_j.f)
    threshold = cfg.ransac_threshold_px

    rng = np.random.default_rng(seed)
    best_mask = None
    best_model = None
    best_count = 0
    needed = cfg.max_ransac_iters
    iteration = 0
    while iteration < needed:
        chunk = min(needed - iteration, max(1, iteration), RANSAC_CHUNK)
        samples = np.array([rng.choice(n, size=5, replace=False) for _ in range(chunk)])
        solutions = five_point_essential(x_i[samples], x_j[samples])
        candidates = np.array([e for sample in solutions for e in sample]).reshape(-1, 3, 3)
        masks = sampson_distance_px(candidates, x_i, x_j, focal_scale) <= threshold
        ends = np.cumsum([len(sample) for sample in solutions])
        for sample, sample_masks in zip(solutions, np.split(masks, ends[:-1])):
            if iteration >= needed:
                break
            iteration += 1
            for e, mask in zip(sample, sample_masks):
                count = int(mask.sum())
                if count <= best_count:
                    continue
                best_model, best_mask, best_count = e, mask, count
                if count >= 5:
                    refined = _lsq_essential(x_i[mask], x_j[mask])
                    r_mask = sampson_distance_px(refined, x_i, x_j, focal_scale) <= threshold
                    r_count = int(r_mask.sum())
                    if r_count >= count:
                        best_model, best_mask, best_count = refined, r_mask, r_count
                needed = min(cfg.max_ransac_iters,
                             _adaptive_iterations(best_count / n, cfg.ransac_confidence,
                                                  cfg.max_ransac_iters))
    if best_count < 5 or best_model is None:
        raise NoModelFound(f"pair {matches.pair}: best support {best_count} < 5")
    return best_model / np.linalg.norm(best_model), best_mask


def _tangent_basis(t: np.ndarray) -> np.ndarray:
    """(3, 2) orthonormal basis of the plane orthogonal to unit vector t.

    ``b1 = t x e_k`` along the axis k of least ``|t_k|``, normalized, and
    ``b2 = t x b1``.  Both cross products are written out: ``np.cross`` on
    3-vectors costs several times the rest of the call.
    """
    t0, t1, t2 = t
    k = int(np.argmin(np.abs(t)))
    b1 = np.array(((0.0, t2, -t1), (-t2, 0.0, t0), (t1, -t0, 0.0))[k])
    b1 /= np.linalg.norm(b1)
    x, y, z = b1
    return np.array([[x, t1 * z - t2 * y],
                     [y, t2 * x - t0 * z],
                     [z, t0 * y - t1 * x]])


def _two_view_lm(points, rotation, translation, x_px_i, x_px_j, intr_i, intr_j):
    """Joint least squares over (pose, points), camera i fixed and ``|t| = 1``.

    Rows 0..n-1 observe the points in camera i, rows n..2n-1 in camera j; a
    state with a point at or behind either camera is rejected.  Returns
    (points, rotation, translation, final linearization, its block
    structure); the residuals of the linearization are (2n, 2).
    """
    n = len(points)
    measured = np.concatenate([x_px_i, x_px_j])
    valid = np.ones(2 * n, dtype=bool)
    structure = BlockStructure(
        np.vstack([np.full((n, 5), -1), np.tile(np.arange(5), (n, 1))]),
        np.concatenate([np.arange(n), np.arange(n)]), n_cam_params=5, n_points=n)

    def evaluate(state, with_jacobian):
        rotation, translation, points = state
        q = points @ rotation.T + translation
        if np.any(points[:, 2] <= MIN_DEPTH) or np.any(q[:, 2] <= MIN_DEPTH):
            return None
        res = np.concatenate([project_camera_points(points, intr_i),
                              project_camera_points(q, intr_j)]) - measured
        if not with_jacobian:
            return Linearization(res, valid)
        a_j = camera_point_pixel_jacobian(q, intr_j)
        dq_dw = -rotation @ so3_hat_batch(points)
        j_cam_j = np.concatenate([a_j @ dq_dw, a_j @ _tangent_basis(translation)], axis=2)
        j_point = np.concatenate([camera_point_pixel_jacobian(points, intr_i),
                                  a_j @ rotation])
        return Linearization(res, valid, np.concatenate([np.zeros((n, 2, 5)), j_cam_j]),
                             j_point)

    def retract(state, delta_cam, delta_pt):
        rotation, translation, points = state
        t_new = translation + _tangent_basis(translation) @ delta_cam[3:]
        return (rotation @ so3_exp(delta_cam[:3]), t_new / np.linalg.norm(t_new),
                points + delta_pt)

    state = (rotation, translation, points)
    if evaluate(state, False) is None:
        raise IndeterminateSystem("initial two-view state has non-positive depths")
    (rotation, translation, points), lin, _ = levenberg_marquardt(
        state, evaluate, retract, structure, None)
    return points, rotation, translation, lin, structure


def two_view_ba(measurement: TwoViewMeasurement, kp_i: np.ndarray, kp_j: np.ndarray,
                rays_i: np.ndarray, rays_j: np.ndarray,
                intr_i: CameraIntrinsics, intr_j: CameraIntrinsics,
                cfg: VerificationConfig) -> TwoViewMeasurement:
    """Refine a relative pose jointly with its triangulated points.

    The inlier set is triangulated and refined (camera i fixed, unit
    baseline), points whose refined reprojection error exceeds the prune
    threshold in either view are dropped from the refinement, and the
    survivors are refined once more.  The final state alone is tested for a
    singular system, since the prune may drop the points that made an
    earlier state singular.  Only the refined rotation and direction
    are written back; the correspondence set and inlier statistics keep their
    estimation-stage values, since the prune selects which points constrain
    the pose rather than which correspondences exist.

    ``kp_*`` are the two images' keypoints in pixels, the residuals'
    measurements; ``rays_*`` their :func:`keypoint_rays`, which seed the
    point depths.

    Raises:
        TooFewMatches: fewer than 5 surviving correspondences at any stage.
        IndeterminateSystem: the undamped reduced camera system at the final
            state cannot be formed, is non-finite or is numerically singular
            (condition number above 1e12), e.g. pairs with no real overlap.
    """
    idx = np.atleast_2d(np.asarray(measurement.inliers, dtype=int))
    if len(idx) < 5:
        raise TooFewMatches(f"pair {measurement.pair}: {len(idx)} inliers < 5")
    x_px_i = np.asarray(kp_i, dtype=float)[idx[:, 0]]
    x_px_j = np.asarray(kp_j, dtype=float)[idx[:, 1]]
    x_i = rays_i[idx[:, 0]]
    x_j = rays_j[idx[:, 1]]

    rotation = measurement.rotation.copy()
    translation = measurement.direction / np.linalg.norm(measurement.direction)

    d_i, d_j = two_view_depths(rotation, translation, x_i, x_j)
    keep = np.isfinite(d_i) & np.isfinite(d_j) & (d_i > MIN_DEPTH) & (d_j > MIN_DEPTH)
    if keep.sum() < 5:
        raise TooFewMatches(
            f"pair {measurement.pair}: {int(keep.sum())} points in front of both views")
    x_px_i, x_px_j, x_i, d_i = x_px_i[keep], x_px_j[keep], x_i[keep], d_i[keep]
    points = np.column_stack([x_i, np.ones(len(x_i))]) * d_i[:, None]

    points, rotation, translation, lin, structure = _two_view_lm(
        points, rotation, translation, x_px_i, x_px_j, intr_i, intr_j)

    errors = np.linalg.norm(lin.res, axis=1).reshape(2, -1)
    keep = errors.max(axis=0) <= cfg.two_view_ba_reproj_prune_px
    if keep.sum() < 5:
        raise TooFewMatches(
            f"pair {measurement.pair}: {int(keep.sum())} points survive pruning")
    if not np.all(keep):
        points, rotation, translation, lin, structure = _two_view_lm(
            points[keep], rotation, translation, x_px_i[keep], x_px_j[keep],
            intr_i, intr_j)

    try:
        schur = reduced_camera_system(normal_equations(lin, structure, None), 0.0)[0]
    except np.linalg.LinAlgError as exc:
        raise IndeterminateSystem(
            f"point system degenerate during refinement: {exc}") from exc
    if not np.all(np.isfinite(schur)):
        raise IndeterminateSystem(
            "point system produced non-finite reduced camera system")
    if np.linalg.cond(schur) > 1e12:
        raise IndeterminateSystem(
            f"pair {measurement.pair}: reduced camera system is singular")

    return TwoViewMeasurement(measurement.pair, rotation, translation,
                              measurement.inliers, measurement.inlier_ratio,
                              measurement.n_inliers)


def accept_pair(measurement: TwoViewMeasurement, cfg: VerificationConfig) -> bool:
    """Keep a pair iff its inlier ratio and absolute inlier count clear the floors."""
    return (measurement.inlier_ratio >= cfg.min_inlier_ratio
            and measurement.n_inliers >= cfg.min_inliers)


@dataclass(frozen=True)
class PairResult:
    """Outcome of verifying one pair: a measurement or a rejection reason."""

    pair: tuple
    measurement: TwoViewMeasurement
    reason: str


def verify_pair(matches: MatchSet, kp_i: np.ndarray, kp_j: np.ndarray,
                rays_i: np.ndarray, rays_j: np.ndarray,
                intr_i: CameraIntrinsics, intr_j: CameraIntrinsics,
                cfg: VerificationConfig, seed: int) -> PairResult:
    """Full two-view verification of one pair; never raises on rejection.

    ``rays_i`` and ``rays_j`` are the :func:`keypoint_rays` of ``kp_i`` and
    ``kp_j``.
    """
    try:
        essential, mask = estimate_essential_ransac(matches, rays_i, rays_j,
                                                    intr_i, intr_j, cfg, seed)
        idx = np.atleast_2d(np.asarray(matches.indices, dtype=int))[mask]
        rotation, direction = decompose_essential(
            essential, rays_i[idx[:, 0]], rays_j[idx[:, 1]])
        measurement = TwoViewMeasurement(matches.pair, rotation, direction, idx,
                                         len(idx) / len(matches), len(idx))
        # the refinement leaves the inlier statistics alone, so a pair below
        # the floors is rejected before it is refined
        if not accept_pair(measurement, cfg):
            return PairResult(
                matches.pair, None,
                f"rejected: inlier_ratio={measurement.inlier_ratio:.3f} "
                f"n_inliers={measurement.n_inliers}")
        if cfg.enable_two_view_ba:
            measurement = two_view_ba(measurement, kp_i, kp_j, rays_i, rays_j,
                                      intr_i, intr_j, cfg)
    except (TooFewMatches, NoModelFound, CheiralityAmbiguous, IndeterminateSystem) as exc:
        return PairResult(matches.pair, None, f"{type(exc).__name__}: {exc}")
    return PairResult(matches.pair, measurement, REASON_OK)
