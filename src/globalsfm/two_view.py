"""Two-view verification: robust relative-pose estimation and refinement.

Per image pair this runs keypoint cleanup, essential-matrix RANSAC with local
optimization, the inlier floors, four-fold pose disambiguation, and a small
joint refinement of the relative pose and triangulated points.  Every image's
keypoints are undistorted once, by :func:`keypoint_rays`; the per-pair steps
take those ray tables and slice them by match index.

A pair with fewer matches than the ``min_inliers`` floor can never clear it,
so :func:`screen_matches` rejects it before any estimation; the pipeline
applies the same screen before it cuts the candidates into chunks.
:func:`verify_pairs` verifies a chunk of pairs, each step once for all the
pairs that reach it:

* :func:`estimate_essential_ransac` runs RANSAC for the screened pairs in
  rounds.  In a round every pair still short of its iteration budget draws
  its next samples (1, 1, 2, 4, ... up to ``RANSAC_CHUNK``) from its own
  generator; one five-point call solves all of them, at most
  ``TWO_VIEW_CHUNK * RANSAC_CHUNK`` samples in the pipeline, and one
  Sampson pass scores every candidate against its own pair's matches, rows
  laid out pair after pair without padding, in calls of at most
  ``SAMPSON_ROWS`` candidate x point rows.  Each pair then takes its
  candidates in draw order with its own refits, budget and stop.
* The inlier floors are tested on each pair's inlier mask.
* One stacked :func:`decompose_essential` call runs the cheirality test of
  the pairs that clear the floors.
* One :func:`two_view_ba` call refines the surviving pairs in lockstep.
  The refinement has no solver of its own: it runs the Schur-LM core of
  :mod:`globalsfm.bundle_adjustment` (``levenberg_marquardt``) with one
  problem per pair, camera i fixed and a 5-DOF block for camera j, a right
  rotation increment plus a step in the tangent plane of the unit
  translation; its rows have the core's pair layout, so the normal
  equations are built without a scatter.  Each pair keeps its own damping
  and stop rule there.

So a pair's result does not depend on the pairs that share its chunk
beyond round-off (its RANSAC and decomposition not at all).  A chunk is a
pure function of its inputs and seeds, so chunks can run on any worker in
any order; one pair is verified as a chunk of one.
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
    sampson_blocks_px,
    sampson_distance_px,
    two_view_depths,
)
from .geometry import (
    MIN_DEPTH,
    CameraIntrinsics,
    camera_point_pixel_jacobian,
    pixel_to_normalized,
    project_camera_points,
    so3_exp_batch,
    so3_hat_batch,
)
from .view_graph import connected_components

REASON_OK = "ok"
# most RANSAC samples of one pair solved and scored in one round
RANSAC_CHUNK = 64
# most candidate x point rows scored by one Sampson call: the lines and
# products of this many rows stay within a few hundred KB
SAMPSON_ROWS = 4096


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
class PairResult:
    """Outcome of verifying one pair: a measurement or a rejection reason."""

    pair: tuple
    measurement: TwoViewMeasurement
    reason: str


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
        for name in ("ransac_threshold_px", "two_view_ba_reproj_prune_px"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        for name in ("max_ransac_iters", "min_inliers"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        # the iteration budget takes log(1 - confidence)
        if not 0.0 < self.ransac_confidence < 1.0:
            raise ValueError("ransac_confidence must be in (0, 1)")
        # 0 disables the ratio floor; min_inliers still applies
        if not 0.0 <= self.min_inlier_ratio <= 1.0:
            raise ValueError("min_inlier_ratio must be in [0, 1]")


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
    # Imported here: at module level it would load scipy.spatial ahead of
    # io (which loads it anyway), and that order raises peak RSS by 0.2 MB.
    from scipy.spatial import cKDTree

    merged = {}
    remap = {}
    for image_id, kps in keypoints.items():
        kps = np.atleast_2d(np.asarray(kps, dtype=float))
        n = len(kps)
        close = (cKDTree(kps).query_pairs(radius_px, output_type="ndarray")
                 if n > 1 else np.empty((0, 2), dtype=np.intp))
        # labels are smallest members, so clusters number by smallest member
        _, index_map = np.unique(connected_components(n, close[:, 0],
                                                      close[:, 1]),
                                 return_inverse=True)
        order = np.argsort(index_map, kind="stable")
        clusters = np.split(order, np.flatnonzero(np.diff(index_map[order])) + 1)
        merged[image_id] = (np.array([kps[m].mean(axis=0) for m in clusters])
                            if n else kps)
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
    # the thin SVD has only N right singular vectors, so below 9 rows its
    # last one is no null vector
    _, _, vt = np.linalg.svd(rows, full_matrices=len(rows) < 9)
    return project_to_essential(vt[-1].reshape(3, 3))


class _RansacPair:
    """The RANSAC state of one pair of a chunk: its rays, generator, best
    hypothesis so far and iteration budget."""

    def __init__(self, matches, rays_i, rays_j, intr_i, intr_j, seed, cfg):
        idx = np.atleast_2d(np.asarray(matches.indices, dtype=int))
        self.pair, self.n, self.cfg = matches.pair, len(idx), cfg
        if self.n < 5:
            raise TooFewMatches(f"pair {self.pair}: {self.n} matches < 5")
        self.x_i = rays_i[idx[:, 0]]
        self.x_j = rays_j[idx[:, 1]]
        self.xi_h = np.column_stack([self.x_i, np.ones(self.n)])
        self.xj_h = np.column_stack([self.x_j, np.ones(self.n)])
        self.focal_scale = 0.5 * (intr_i.f + intr_j.f)
        self.rng = np.random.default_rng(seed)
        self.best_model, self.best_mask, self.best_count = None, None, 0
        self.needed, self.iteration = cfg.max_ransac_iters, 0

    def draw(self) -> np.ndarray:
        """(S, 5) match rows of the next samples: as many as drawn so far
        (one at the start), at most ``RANSAC_CHUNK`` and never past the
        budget."""
        chunk = min(self.needed - self.iteration, max(1, self.iteration),
                    RANSAC_CHUNK)
        return np.array([self.rng.choice(self.n, size=5, replace=False)
                         for _ in range(chunk)])

    def take(self, solutions: list, masks: np.ndarray) -> None:
        """Take the candidates of the drawn samples in draw order, each
        sample one iteration, up to the budget as it adapts; ``masks``
        holds the candidates' inlier masks in order."""
        threshold = self.cfg.ransac_threshold_px
        counts = masks.sum(axis=1)
        firsts = np.cumsum([0] + [len(sample) for sample in solutions])
        for sample, first in zip(solutions, firsts):
            if self.iteration >= self.needed:
                break
            self.iteration += 1
            for e, mask, count in zip(sample, masks[first:], counts[first:]):
                count = int(count)
                if count <= self.best_count:
                    continue
                self.best_model, self.best_mask, self.best_count = e, mask, count
                if count >= 5:
                    refined = _lsq_essential(self.x_i[mask], self.x_j[mask])
                    r_mask = sampson_distance_px(refined, self.xi_h,
                                                 self.xj_h,
                                                 self.focal_scale) <= threshold
                    r_count = int(r_mask.sum())
                    if r_count >= count:
                        self.best_model, self.best_mask = refined, r_mask
                        self.best_count = r_count
                self.needed = min(self.cfg.max_ransac_iters,
                                  _adaptive_iterations(
                                      self.best_count / self.n,
                                      self.cfg.ransac_confidence,
                                      self.cfg.max_ransac_iters))

    def result(self):
        """(E with unit Frobenius norm, inlier mask), or NoModelFound."""
        if self.best_count < 5:
            return NoModelFound(
                f"pair {self.pair}: best support {self.best_count} < 5")
        return (self.best_model / np.linalg.norm(self.best_model),
                self.best_mask)


def _inlier_masks(pairs: list, candidates: list, threshold: float) -> list:
    """Per pair, the (C, N) inlier masks of its candidates (C, 3, 3) over
    its matches, from one Sampson pass whose rows run pair after pair, in
    calls of at most ``SAMPSON_ROWS`` candidate x point rows (one
    candidate's rows where a pair has more matches)."""
    calls, blocks, rows = [], [], 0
    for pair, e in zip(pairs, candidates):
        step = max(1, SAMPSON_ROWS // pair.n)
        for first in range(0, len(e), step):
            block = e[first:first + step]
            if blocks and rows + len(block) * pair.n > SAMPSON_ROWS:
                calls.append(blocks)
                blocks, rows = [], 0
            blocks.append((block, pair.xi_h, pair.xj_h, pair.focal_scale))
            rows += len(block) * pair.n
    calls.append(blocks)
    inliers = np.concatenate([sampson_blocks_px(blocks)
                              for blocks in calls]) <= threshold
    ends = np.cumsum([len(e) * pair.n for pair, e in zip(pairs, candidates)])
    return [part.reshape(-1, pair.n) for pair, part in
            zip(pairs, np.split(inliers, ends[:-1]))]


def estimate_essential_ransac(tasks: list, cfg: VerificationConfig) -> list:
    """Essential matrices of a chunk of pairs by locally optimized RANSAC
    over the five-point solver, the pairs in lockstep.

    ``tasks`` holds one (matches, rays_i, rays_j, intr_i, intr_j, seed) per
    pair: its :class:`MatchSet`, the two images' :func:`keypoint_rays`,
    their intrinsics (whose focal lengths scale the pixel threshold) and
    its RANSAC seed.  Per pair, inliers are correspondences whose
    first-order epipolar distance, scaled by the pair's mean focal length,
    is at most ``cfg.ransac_threshold_px``.  Every new best hypothesis is
    refit on its inliers (least squares plus projection onto the essential
    manifold) and kept if support grows.  The iteration budget adapts to
    the best inlier ratio at ``ransac_confidence``.

    The pairs run in rounds.  In a round every pair short of its budget
    draws its next samples from its own generator, in chunks that double
    from 1 up to ``RANSAC_CHUNK`` samples, never past its budget; one
    :func:`five_point_essential` call solves the samples of all these pairs
    (at most ``len(tasks) * RANSAC_CHUNK``), and one Sampson pass scores
    every candidate against its pair's matches, in calls of at most
    ``SAMPSON_ROWS`` candidate x point rows.  Each pair then takes its
    candidates in draw order, so its result is that of a one-sample-per-
    iteration loop on its own generator, whatever pairs share its chunk,
    and draws past its stop are unused.

    Returns:
        Per pair, (essential matrix with unit Frobenius norm, boolean inlier
        mask), or the ``NoModelFound`` error of a pair where no hypothesis
        reached 5 inliers.

    Raises:
        TooFewMatches: a pair has fewer than 5 correspondences.
    """
    pairs = [_RansacPair(*task, cfg) for task in tasks]
    active = pairs
    while active:
        drawn = [pair.draw() for pair in active]
        solutions = five_point_essential(
            np.concatenate([pair.x_i[rows] for pair, rows in zip(active, drawn)]),
            np.concatenate([pair.x_j[rows] for pair, rows in zip(active, drawn)]))
        ends = np.cumsum([len(rows) for rows in drawn])
        per_pair = [solutions[end - len(rows):end]
                    for rows, end in zip(drawn, ends)]
        candidates = [np.array([e for sample in part for e in sample]
                               ).reshape(-1, 3, 3) for part in per_pair]
        for pair, part, masks in zip(active, per_pair, _inlier_masks(
                active, candidates, cfg.ransac_threshold_px)):
            pair.take(part, masks)
        active = [pair for pair in active if pair.iteration < pair.needed]
    return [pair.result() for pair in pairs]


def _tangent_basis(t: np.ndarray) -> np.ndarray:
    """(..., 3, 2) orthonormal bases of the planes orthogonal to unit vectors
    t (..., 3).

    ``b1 = t x e_k`` along the axis k of least ``|t_k|``, normalized, and
    ``b2 = t x b1``.  Both cross products are written out: ``np.cross``
    costs several times the rest of the call.
    """
    flat = np.reshape(t, (-1, 3))
    rows = np.arange(len(flat))
    k = np.argmin(np.abs(flat), axis=1)
    # t x e_k is t_(k+2) at axis k+1 and -t_(k+1) at axis k+2, 0 at k
    b1 = np.zeros_like(flat)
    b1[rows, (k + 1) % 3] = flat[rows, (k + 2) % 3]
    b1[rows, (k + 2) % 3] = -flat[rows, (k + 1) % 3]
    b1 /= np.linalg.norm(b1, axis=1, keepdims=True)
    basis = np.empty((len(flat), 3, 2))
    basis[:, :, 0] = b1
    (t0, t1, t2), (x, y, z) = flat.T, b1.T
    basis[:, 0, 1] = t1 * z - t2 * y
    basis[:, 1, 1] = t2 * x - t0 * z
    basis[:, 2, 1] = t0 * y - t1 * x
    return basis.reshape(np.shape(t) + (2,))


def _two_view_lm(rotations, translations, points, uv, point_pair, cameras):
    """Joint least squares of a batch of pairs over (pose, points), camera i
    fixed and ``|t| = 1``, all pairs in lockstep.

    Pair p has rotation ``rotations[p]`` and unit translation
    ``translations[p]``; point l belongs to pair ``point_pair[l]`` (pairs
    in order).  Rows 2l and 2l + 1 observe point l in camera i and in
    camera j: ``uv`` (L, 2, 2) holds the measured pixels of point l in
    both, and ``cameras`` (L, 2, 5) both cameras' (f, k1, k2, u0, v0).  A
    point at or behind either camera rejects its pair's state.  Returns
    (rotations, translations, points, final linearization, its block
    structure); the linearization's residuals are (2L, 2).
    """
    n_pairs, n_points = len(rotations), len(points)
    structure = BlockStructure(
        np.tile(np.vstack([np.full(5, -1), np.arange(5)]), (n_points, 1)),
        np.repeat(np.arange(n_points), 2), n_cam_params=5, n_points=n_points,
        n_problems=n_pairs, row_problem=np.repeat(point_pair, 2),
        point_problem=point_pair, pair_layout=True)

    # A state holds a subset of the pairs: (pair ids, rotations,
    # translations, tangent bases of the translations) and (points, point
    # ids), ids into this batch.
    def evaluate(state, with_jacobian):
        (pairs, rotation, translation, basis), (points, ids) = state
        slot = np.searchsorted(pairs, point_pair[ids])
        rot = rotation[slot]
        q = (rot @ points[:, :, None])[:, :, 0] + translation[slot]
        in_cameras = np.stack([points, q], axis=1).reshape(-1, 3)
        views = CameraIntrinsics(*cameras[ids].reshape(-1, 5).T)
        res = project_camera_points(in_cameras, views) - uv[ids].reshape(-1, 2)
        res[in_cameras[:, 2] <= MIN_DEPTH] = np.inf
        valid = np.ones(len(res), dtype=bool)
        if not with_jacobian:
            return Linearization(res, valid)
        jac = camera_point_pixel_jacobian(in_cameras, views).reshape(
            -1, 2, 2, 3)
        j_point = np.stack([jac[:, 0], jac[:, 1] @ rot], axis=1)
        j_cam = np.zeros((len(points), 2, 2, 5))
        # q = R X + t with R right-perturbed: dq/dw = -R [X]x
        j_cam[:, 1, :, :3] = -(j_point[:, 1] @ so3_hat_batch(points))
        j_cam[:, 1, :, 3:] = jac[:, 1] @ basis[slot]
        return Linearization(res, valid, j_cam.reshape(-1, 2, 5),
                             j_point.reshape(-1, 2, 3))

    def retract(state, delta_cam, delta_pt):
        (pairs, rotation, translation, basis), (points, ids) = state
        delta_cam = delta_cam.reshape(-1, 5)
        t_new = translation + (basis @ delta_cam[:, 3:, None])[:, :, 0]
        t_new = t_new / np.linalg.norm(t_new, axis=1, keepdims=True)
        return ((pairs, rotation @ so3_exp_batch(delta_cam[:, :3]), t_new,
                 _tangent_basis(t_new)), (points + delta_pt, ids))

    state = ((np.arange(n_pairs), rotations, translations,
              _tangent_basis(translations)), (points, np.arange(n_points)))
    ((_, rotations, translations, _), (points, _)), lin, _ = levenberg_marquardt(
        state, evaluate, retract, structure, None)
    return rotations, translations, points, lin, structure


def _indeterminate(lin, structure, pairs) -> list:
    """Per pair of a refined batch: the ``IndeterminateSystem`` rejection
    reason when its undamped reduced camera system is unusable (a point
    block singular, an entry non-finite, or a condition number above 1e12),
    else None."""
    schur, _, _, singular = reduced_camera_system(
        normal_equations(lin, structure, None), 0.0)
    finite = ~singular & np.isfinite(schur).all(axis=(1, 2))
    cond = np.full(len(schur), np.inf)
    if finite.any():
        cond[finite] = np.linalg.cond(schur[finite])
    reasons = []
    for pair, bad_block, ok, c in zip(pairs, singular, finite, cond):
        if bad_block:
            why = "point system degenerate during refinement: Singular matrix"
        elif not ok:
            why = "point system produced non-finite reduced camera system"
        elif c > 1e12:
            why = f"pair {pair}: reduced camera system is singular"
        else:
            why = None
        reasons.append(why and f"{IndeterminateSystem.__name__}: {why}")
    return reasons


def _initial_points(measurement, kp_i, kp_j, rays_i, rays_j) -> tuple:
    """(points, pixels in view i, pixels in view j) of a pair's inliers in
    front of both views, triangulated at the estimated pose.

    Raises:
        TooFewMatches: fewer than 5 inliers, or fewer than 5 in front of
            both views.
        IndeterminateSystem: a triangulated point at or behind a camera.
    """
    idx = np.atleast_2d(np.asarray(measurement.inliers, dtype=int))
    if len(idx) < 5:
        raise TooFewMatches(f"pair {measurement.pair}: {len(idx)} inliers < 5")
    x_px_i = np.asarray(kp_i, dtype=float)[idx[:, 0]]
    x_px_j = np.asarray(kp_j, dtype=float)[idx[:, 1]]
    x_i = rays_i[idx[:, 0]]
    x_j = rays_j[idx[:, 1]]
    rotation = measurement.rotation
    translation = measurement.direction / np.linalg.norm(measurement.direction)
    d_i, d_j = two_view_depths(rotation, translation, x_i, x_j)
    keep = np.isfinite(d_i) & np.isfinite(d_j) & (d_i > MIN_DEPTH) & (d_j > MIN_DEPTH)
    if keep.sum() < 5:
        raise TooFewMatches(
            f"pair {measurement.pair}: {int(keep.sum())} points in front of both views")
    points = np.column_stack([x_i[keep], np.ones(int(keep.sum()))]) * d_i[keep, None]
    depth_j = (points @ rotation.T + translation)[:, 2]
    if np.any(points[:, 2] <= MIN_DEPTH) or np.any(depth_j <= MIN_DEPTH):
        raise IndeterminateSystem("initial two-view state has non-positive depths")
    return points, x_px_i[keep], x_px_j[keep]


def _rejection(pair, exc) -> "PairResult":
    return PairResult(pair, None, f"{type(exc).__name__}: {exc}")


def two_view_ba(tasks: list, cfg: VerificationConfig) -> list:
    """Refine a chunk of relative poses jointly with their triangulated
    points, all pairs in lockstep.

    ``tasks`` holds one (measurement, kp_i, kp_j, rays_i, rays_j, intr_i,
    intr_j) per pair: ``kp_*`` are the two images' keypoints in pixels, the
    residuals' measurements, and ``rays_*`` their :func:`keypoint_rays`,
    which seed the point depths.  Per pair, the inlier set is triangulated
    and refined (camera i fixed, unit baseline), points whose refined
    reprojection error exceeds the prune threshold in either view are
    dropped, and the survivors are refined once more.  The first refinement
    runs for all pairs together, the second for the pairs that lost points.
    The final state alone is tested for a singular system, since the prune
    may drop the points that made an earlier state singular.  Only the
    refined rotation and direction are written back; the correspondence
    set and inlier statistics keep their estimation-stage values, since the
    prune selects which points constrain the pose rather than which
    correspondences exist.  A pair's result does not depend on the other
    pairs of its chunk beyond round-off.

    Returns one :class:`PairResult` per task, in order.  A pair is rejected
    with ``TooFewMatches`` when fewer than 5 correspondences survive any
    stage, and with ``IndeterminateSystem`` when the undamped reduced
    camera system at its final state cannot be formed, is non-finite or is
    numerically singular (condition number above 1e12), e.g. pairs with no
    real overlap.
    """
    results = [None] * len(tasks)
    started = []
    for k, (measurement, kp_i, kp_j, rays_i, rays_j, _, _) in enumerate(tasks):
        try:
            started.append((k, _initial_points(measurement, kp_i, kp_j,
                                               rays_i, rays_j)))
        except (TooFewMatches, IndeterminateSystem) as exc:
            results[k] = _rejection(measurement.pair, exc)
    if not started:
        return results
    order = [k for k, _ in started]
    measurements = [tasks[k][0] for k in order]
    points = np.concatenate([arrays[0] for _, arrays in started])
    uv = np.stack([np.concatenate([arrays[1] for _, arrays in started]),
                   np.concatenate([arrays[2] for _, arrays in started])],
                  axis=1)
    point_pair = np.repeat(np.arange(len(order)),
                           [len(arrays[0]) for _, arrays in started])
    cameras = np.array([[[c.f, c.k1, c.k2, c.u0, c.v0] for c in tasks[k][5:7]]
                        for k in order])[point_pair]
    rotations = np.array([m.rotation for m in measurements])
    translations = np.array([m.direction / np.linalg.norm(m.direction)
                             for m in measurements])

    rotations, translations, points, lin, structure = _two_view_lm(
        rotations, translations, points, uv, point_pair, cameras)
    errors = np.linalg.norm(lin.res, axis=1).reshape(-1, 2).max(axis=1)
    keep = errors <= cfg.two_view_ba_reproj_prune_px
    kept = np.bincount(point_pair[keep], minlength=len(order))
    pruned = kept < np.bincount(point_pair, minlength=len(order))
    reasons = [None if n >= 5 else
               f"{TooFewMatches.__name__}: pair {m.pair}: {n} points survive "
               f"pruning" for m, n in zip(measurements, kept)]

    def settle(final, lin, structure):
        """Test the pairs flagged in ``final`` at their final state."""
        for p, reason in zip(np.flatnonzero(final), _indeterminate(
                lin, structure, [m.pair for m, f in zip(measurements, final)
                                 if f])):
            reasons[p] = reason

    once, again = (kept >= 5) & ~pruned, (kept >= 5) & pruned
    if once.any():
        sub, rows, _ = structure.take(once)
        settle(once, lin.take(rows), sub)
    if again.any():
        chosen = keep & again[point_pair]
        redo = np.flatnonzero(again)
        rotations[redo], translations[redo], _, lin, structure = _two_view_lm(
            rotations[redo], translations[redo], points[chosen], uv[chosen],
            np.cumsum(again)[point_pair[chosen]] - 1, cameras[chosen])
        settle(again, lin, structure)

    for k, m, rotation, translation, reason in zip(
            order, measurements, rotations, translations, reasons):
        results[k] = (PairResult(m.pair, None, reason) if reason else
                      PairResult(m.pair, TwoViewMeasurement(
                          m.pair, rotation, translation, m.inliers,
                          m.inlier_ratio, m.n_inliers), REASON_OK))
    return results


def _clears_floors(inlier_ratio: float, n_inliers: int,
                   cfg: VerificationConfig) -> bool:
    return inlier_ratio >= cfg.min_inlier_ratio and n_inliers >= cfg.min_inliers


def screen_matches(matches: MatchSet, cfg: VerificationConfig):
    """The rejection reason of a pair whose match count alone shows that it
    cannot clear the inlier floor, else None.

    No inlier set is larger than the match set, so a pair with fewer
    matches than ``cfg.min_inliers`` is rejected before RANSAC; below 5
    matches the reason is RANSAC's own ``TooFewMatches``.
    """
    n = len(matches)
    if n < 5:
        return f"{TooFewMatches.__name__}: pair {matches.pair}: {n} matches < 5"
    if n < cfg.min_inliers:
        return f"rejected: n_matches={n} < min_inliers={cfg.min_inliers}"
    return None


def verify_pairs(tasks: list, cfg: VerificationConfig) -> list:
    """Full two-view verification of a chunk of pairs; never raises on
    rejection.

    ``tasks`` holds one (matches, kp_i, kp_j, rays_i, rays_j, intr_i,
    intr_j, seed) per pair: the pair's :class:`MatchSet`, the two images'
    keypoints in pixels, their :func:`keypoint_rays`, their intrinsics and
    the pair's RANSAC seed.  :func:`screen_matches` rejects the pairs with
    too few matches; one :func:`estimate_essential_ransac` call runs RANSAC
    for the others in lockstep; the inlier floors are tested on each
    pair's inlier mask; one :func:`decompose_essential` call decomposes the
    poses of the pairs that clear them, and one :func:`two_view_ba` call
    refines those pairs together.  A step with no pair left is not called.
    Returns one :class:`PairResult` per task, in order; a pair's result
    does not depend on the other pairs of the chunk beyond round-off.
    """
    results = [None] * len(tasks)
    screened = []
    for k, (matches, *_rest) in enumerate(tasks):
        reason = screen_matches(matches, cfg)
        if reason is None:
            screened.append(k)
        else:
            results[k] = PairResult(matches.pair, None, reason)
    estimates = estimate_essential_ransac(
        [(m, rays_i, rays_j, intr_i, intr_j, seed) for m, _, _, rays_i, rays_j,
         intr_i, intr_j, seed in (tasks[k] for k in screened)],
        cfg) if screened else []
    # the floors read only the mask, and the refinement leaves the inlier
    # statistics alone, so a pair below the floors is rejected before it
    # is decomposed or refined
    passing = []
    for k, estimate in zip(screened, estimates):
        matches = tasks[k][0]
        if isinstance(estimate, NoModelFound):
            results[k] = _rejection(matches.pair, estimate)
            continue
        essential, mask = estimate
        idx = np.atleast_2d(np.asarray(matches.indices, dtype=int))[mask]
        ratio = len(idx) / len(matches)
        if _clears_floors(ratio, len(idx), cfg):
            passing.append((k, essential, idx, ratio))
        else:
            results[k] = PairResult(
                matches.pair, None,
                f"rejected: inlier_ratio={ratio:.3f} n_inliers={len(idx)}")
    poses = decompose_essential(
        np.array([essential for _, essential, _, _ in passing]),
        [tasks[k][3][idx[:, 0]] for k, _, idx, _ in passing],
        [tasks[k][4][idx[:, 1]] for k, _, idx, _ in passing]) if passing else []
    to_refine = []
    for (k, _, idx, ratio), pose in zip(passing, poses):
        matches, kp_i, kp_j, rays_i, rays_j, intr_i, intr_j, _ = tasks[k]
        if isinstance(pose, CheiralityAmbiguous):
            results[k] = _rejection(matches.pair, pose)
            continue
        measurement = TwoViewMeasurement(matches.pair, *pose, idx, ratio,
                                         len(idx))
        if cfg.enable_two_view_ba:
            to_refine.append((k, (measurement, kp_i, kp_j, rays_i, rays_j,
                                  intr_i, intr_j)))
        else:
            results[k] = PairResult(matches.pair, measurement, REASON_OK)
    if to_refine:
        refined = two_view_ba([task for _, task in to_refine], cfg)
        for (k, _), result in zip(to_refine, refined):
            results[k] = result
    return results
