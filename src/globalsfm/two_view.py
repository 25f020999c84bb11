"""Two-view verification: robust relative-pose estimation and refinement.

Per image pair this runs keypoint cleanup, essential-matrix RANSAC with local
optimization, the inlier floors, four-fold pose disambiguation, and a
refinement of the relative pose on the Sampson distances of its inliers, in
which no point is triangulated.  Every image's
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
  The refinement has no solver of its own: it runs the Levenberg-Marquardt
  core of :mod:`globalsfm.bundle_adjustment` (``levenberg_marquardt``) with
  one point-free problem per pair, camera i fixed and a 5-DOF block for
  camera j, a right rotation increment plus a step in the tangent plane of
  the unit translation, on one residual per inlier in front of both views:
  its signed Sampson distance in pixels, with an analytic Jacobian.  Each
  pair's normal matrix is 5x5, and each pair keeps its own damping and
  stop rule there.  Its two depth tests, before the first refinement and
  after the prune, are one stacked ``two_view_depths`` call each.

Every Sampson distance here comes from one kernel, ``sampson_blocks_px``:
RANSAC's scoring and refits threshold its absolute value, the refinement
takes its residuals from it, one block per pose, and the prune its terms.

So a pair's result does not depend on the pairs that share its chunk
beyond round-off (its RANSAC and decomposition not at all).  A chunk is a
pure function of its inputs and seeds, so chunks can run on any worker in
any order; one pair is verified as a chunk of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

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
)
from .essential import (
    _epipolar_rows,
    _homogeneous,
    decompose_essential,
    five_point_essential,
    project_to_essential,
    sampson_blocks_px,
    two_view_depths,
)
from .geometry import (
    MIN_DEPTH,
    pixel_to_normalized,
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
    """Least-squares essential matrix of (N, 2|3) correspondences."""
    rows = _epipolar_rows(_homogeneous(x_i), _homogeneous(x_j))
    # the thin SVD has only N right singular vectors, so below 9 rows its
    # last one is no null vector
    _, _, vt = np.linalg.svd(rows, full_matrices=len(rows) < 9)
    return project_to_essential(vt[-1].reshape(3, 3))


class _RansacPair:
    """The RANSAC state of one pair of a chunk: its homogeneous matched
    rays, generator, best hypothesis so far and iteration budget."""

    def __init__(self, matches, rays_i, rays_j, intr_i, intr_j, seed, cfg):
        idx = np.atleast_2d(np.asarray(matches.indices, dtype=int))
        self.pair, self.n, self.cfg = matches.pair, len(idx), cfg
        if self.n < 5:
            raise TooFewMatches(f"pair {self.pair}: {self.n} matches < 5")
        self.x_i = _homogeneous(rays_i[idx[:, 0]])
        self.x_j = _homogeneous(rays_j[idx[:, 1]])
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
                    r_mask = np.abs(sampson_blocks_px([(
                        refined[None], self.x_i, self.x_j, self.focal_scale)
                    ])[0]) <= threshold
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
            blocks.append((block, pair.x_i, pair.x_j, pair.focal_scale))
            rows += len(block) * pair.n
    calls.append(blocks)
    inliers = np.abs(np.concatenate([sampson_blocks_px(blocks)[0]
                                     for blocks in calls])) <= threshold
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


# [e_k]x of the three axes, (3, 3, 3)
_AXIS_HATS = so3_hat_batch(np.eye(3))


def _sampson_residuals(e, counts, x_i, x_j, focal) -> tuple:
    """Signed Sampson distances in pixels and their terms, as
    :func:`sampson_blocks_px` returns them, of homogeneous rays ``x_i``,
    ``x_j`` (N, 3) laid out pose after pose: ``counts[p]`` rows of pose p,
    one block of essential matrix ``e[p]`` and focal length ``focal[p]``."""
    counts = np.asarray(counts).tolist()
    return sampson_blocks_px([
        (e_p, x_i[end - n:end], x_j[end - n:end], f) for e_p, end, n, f in
        zip(e[:, None], np.cumsum(counts).tolist(), counts,
            np.asarray(focal).tolist())])


def _sampson_jacobian(e, rotation, basis, counts, x_i, x_j, focal,
                      terms) -> np.ndarray:
    """Derivatives (N, 5) of the distances of :func:`_sampson_residuals`
    by each pose's 5 DOF, from their ``terms``: by the right rotation
    increment, dE = [t]x R [e_k]x, and by the steps along the tangent
    ``basis`` (P, 3, 2) of the translation, dE = [b_m]x R, through the
    distance's gradient by E, one matrix product per pose."""
    num, line_j, line_i, den2 = terms
    tangents = so3_hat_batch(np.swapaxes(basis, 1, 2).reshape(-1, 3))
    d_e = np.concatenate([e[:, None] @ _AXIS_HATS,
                          tangents.reshape(-1, 2, 3, 3) @ rotation[:, None]],
                         axis=1).reshape(-1, 5, 9)
    # den times the gradient of num / den by E is u x_i^T - x_j v^T, with
    # u = x_j - (num / den^2) E x_i and v = (num / den^2) E^T x_j, each
    # line's third entry left out
    ratio = (num / den2)[:, None]
    u = x_j - ratio * line_j
    u[:, 2] = x_j[:, 2]
    v = ratio * line_i
    v[:, 2] = 0.0
    gradient = (u[:, :, None] * x_i[:, None, :]
                - x_j[:, :, None] * v[:, None, :]).reshape(-1, 9)
    jacobian = np.empty((len(x_i), 5))
    counts = np.asarray(counts).tolist()
    for end, n, d_e_p in zip(np.cumsum(counts).tolist(), counts, d_e):
        np.matmul(gradient[end - n:end], d_e_p.T, out=jacobian[end - n:end])
    jacobian *= (np.repeat(focal, counts) / np.sqrt(den2))[:, None]
    return jacobian


def _step_poses(rotation, translation, basis, delta) -> tuple:
    """Relative poses stepped by ``delta`` (P, 5): R exp([w]x) and the unit
    translation moved along its tangent basis; returns (rotations,
    translations, their tangent bases)."""
    t_new = translation + (basis @ delta[:, 3:, None])[:, :, 0]
    t_new = t_new / np.linalg.norm(t_new, axis=1, keepdims=True)
    return rotation @ so3_exp_batch(delta[:, :3]), t_new, _tangent_basis(t_new)


def _refine_poses(rotations, translations, x_i, x_j, row_pair, focal) -> tuple:
    """Least squares of a batch of relative poses on the Sampson distances
    of their correspondences, camera i fixed and ``|t| = 1``, all pairs in
    lockstep.

    Row n holds the homogeneous rays (N, 3) of a correspondence of pair
    ``row_pair[n]`` (pairs in order); ``focal[p]`` is pair p's mean focal
    length.  Each pair is one point-free problem of the core.  Returns
    (rotations, translations, final linearization, its block structure).
    """
    n_pairs, n_rows = len(rotations), len(row_pair)
    counts = np.bincount(row_pair, minlength=n_pairs)
    starts = np.cumsum(counts) - counts
    structure = BlockStructure(
        np.broadcast_to(np.arange(5), (n_rows, 5)), np.full(n_rows, -1),
        n_cam_params=5, n_points=0, n_problems=n_pairs, row_problem=row_pair)

    # A state holds a subset of the pairs: (pair ids into this batch,
    # rotations, translations, tangent bases of the translations).
    def evaluate(state):
        pairs, rotation, translation, basis = state
        lengths, pair_focal = counts[pairs], focal[pairs]
        rows = np.arange(lengths.sum()) + np.repeat(
            starts[pairs] - np.cumsum(lengths) + lengths, lengths)
        e = so3_hat_batch(translation) @ rotation
        xi, xj = x_i[rows], x_j[rows]
        res, terms = _sampson_residuals(e, lengths, xi, xj, pair_focal)
        lin = Linearization(res[:, None], np.ones(len(res), dtype=bool))
        return lin, lambda: replace(lin, j_cam=_sampson_jacobian(
            e, rotation, basis, lengths, xi, xj, pair_focal, terms)[:, None])

    def retract(state, delta_cam, delta_pt):
        pairs, rotation, translation, basis = state
        return (pairs,) + _step_poses(rotation, translation, basis,
                                      delta_cam.reshape(-1, 5))

    state = (np.arange(n_pairs), rotations, translations,
             _tangent_basis(translations))
    (_, rotations, translations, _), lin, _ = levenberg_marquardt(
        state, evaluate, retract, structure, None)
    return rotations, translations, lin, structure


def _in_front(rotations, translations, x_i, x_j, owner) -> np.ndarray:
    """Mask of the rows whose ray-intersection depths exceed ``MIN_DEPTH``
    in both views under their relative pose ``owner[n]`` of the stack."""
    d_i, d_j = two_view_depths(rotations, translations, x_i, x_j, owner)
    return (np.isfinite(d_i) & np.isfinite(d_j) & (d_i > MIN_DEPTH)
            & (d_j > MIN_DEPTH))


def _rejection(pair, exc) -> "PairResult":
    return PairResult(pair, None, f"{type(exc).__name__}: {exc}")


def two_view_ba(tasks: list, cfg: VerificationConfig) -> list:
    """Refine a chunk of relative poses on the Sampson distances of their
    inliers, all pairs in lockstep; no point is triangulated.

    ``tasks`` holds one (measurement, rays_i, rays_j, intr_i, intr_j) per
    pair: the two images' :func:`keypoint_rays` and intrinsics, whose mean
    focal length puts the distances in pixels.  Per pair, the 5-DOF pose
    (camera i fixed, unit baseline) is refined on the signed Sampson
    distances of its inliers whose ray depths are positive in both views;
    a correspondence is dropped when its first-order (Sampson) correction
    exceeds the prune threshold in either image or its depths are no
    longer positive, and the pose is refined again on the survivors.  The
    Sampson distance is blind to the side of a camera a point lies on, so
    without the depth test a pose fit to random matches keeps inliers
    behind a view.  Each depth test is one call over all pairs' rows, the
    first refinement runs for all pairs together, the second for the pairs
    that lost correspondences.  Only the refined rotation and direction
    are written back; the correspondence set and inlier statistics keep
    their estimation-stage values, since the prune selects which
    correspondences constrain the pose rather than which exist.  A pair's
    result does not depend on the other pairs of its chunk beyond
    round-off.

    Returns one :class:`PairResult` per task, in order.  A pair is rejected
    with ``TooFewMatches`` when fewer than 5 inliers, 5 in front of both
    views or 5 survivors of the prune are left, and with
    ``IndeterminateSystem`` when the undamped 5x5 normal matrix at its
    final pose is non-finite or numerically singular (condition number
    above 1e12), e.g. pairs with no real overlap.
    """
    measurements = [task[0] for task in tasks]
    idx = [np.atleast_2d(np.asarray(m.inliers, dtype=int))
           for m in measurements]
    owner = np.repeat(np.arange(len(tasks)), [len(rows) for rows in idx])
    x_i = _homogeneous(np.concatenate(
        [task[1][rows[:, 0]] for task, rows in zip(tasks, idx)]))
    x_j = _homogeneous(np.concatenate(
        [task[2][rows[:, 1]] for task, rows in zip(tasks, idx)]))
    front = _in_front(np.array([m.rotation for m in measurements]),
                      np.array([m.direction for m in measurements]),
                      x_i, x_j, owner)
    n_front = np.bincount(owner[front], minlength=len(tasks))
    results = [None if n >= 5 else PairResult(
        m.pair, None, f"{TooFewMatches.__name__}: pair {m.pair}: "
        + (f"{len(rows)} inliers < 5" if len(rows) < 5 else
           f"{n} points in front of both views"))
        for m, rows, n in zip(measurements, idx, n_front)]
    refined = n_front >= 5
    if not refined.any():
        return results
    order = np.flatnonzero(refined)
    chosen = front & refined[owner]
    x_i, x_j = x_i[chosen], x_j[chosen]
    row_pair = np.cumsum(refined)[owner[chosen]] - 1
    measurements = [measurements[k] for k in order]
    counts = n_front[order]
    focal = np.array([0.5 * (tasks[k][3].f + tasks[k][4].f) for k in order])
    rotations = np.array([m.rotation for m in measurements])
    translations = np.array([m.direction / np.linalg.norm(m.direction)
                             for m in measurements])

    rotations, translations, lin, structure = _refine_poses(
        rotations, translations, x_i, x_j, row_pair, focal)
    # the Sampson correction of a correspondence, split per image
    _, (num, line_j, line_i, den2) = _sampson_residuals(
        so3_hat_batch(translations) @ rotations, counts, x_i, x_j, focal)
    corrections = np.repeat(focal, counts) * np.abs(num) * np.maximum(
        np.hypot(line_j[:, 0], line_j[:, 1]),
        np.hypot(line_i[:, 0], line_i[:, 1])) / den2
    keep = (corrections <= cfg.two_view_ba_reproj_prune_px) & _in_front(
        rotations, translations, x_i, x_j, row_pair)
    kept = np.bincount(row_pair[keep], minlength=len(order))
    pruned = kept < np.bincount(row_pair, minlength=len(order))
    reasons = [None if n >= 5 else
               f"{TooFewMatches.__name__}: pair {m.pair}: {n} points survive "
               f"pruning" for m, n in zip(measurements, kept)]

    def settle(final, lin, structure):
        """Test the pairs flagged in ``final`` at their final pose."""
        normal = normal_equations(lin, structure, None)
        for p, u in zip(np.flatnonzero(final), normal.u):
            if not np.isfinite(u).all():
                why = "pose normal equations are not finite"
            elif np.linalg.cond(u) > 1e12:
                why = "pose normal equations are singular"
            else:
                continue
            reasons[p] = (f"{IndeterminateSystem.__name__}: pair "
                          f"{measurements[p].pair}: {why}")

    once, again = (kept >= 5) & ~pruned, (kept >= 5) & pruned
    if once.any():
        sub, rows = structure.take(once)
        settle(once, lin.take(rows), sub)
    if again.any():
        chosen = keep & again[row_pair]
        redo = np.flatnonzero(again)
        rotations[redo], translations[redo], lin, structure = _refine_poses(
            rotations[redo], translations[redo], x_i[chosen], x_j[chosen],
            np.cumsum(again)[row_pair[chosen]] - 1, focal[redo])
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

    ``tasks`` holds one (matches, rays_i, rays_j, intr_i, intr_j, seed) per
    pair: the pair's :class:`MatchSet`, the two images'
    :func:`keypoint_rays`, their intrinsics and the pair's RANSAC seed, as
    :func:`estimate_essential_ransac` takes them.  :func:`screen_matches`
    rejects the pairs with too few matches; one
    :func:`estimate_essential_ransac` call runs RANSAC for the others in
    lockstep; the inlier floors are tested on each pair's inlier mask; one
    :func:`decompose_essential` call decomposes the poses of the pairs that
    clear them, and one :func:`two_view_ba` call refines those pairs
    together.  A step with no pair left is not called.
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
        [tasks[k] for k in screened], cfg) if screened else []
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
        [tasks[k][1][idx[:, 0]] for k, _, idx, _ in passing],
        [tasks[k][2][idx[:, 1]] for k, _, idx, _ in passing]) if passing else []
    to_refine = []
    for (k, _, idx, ratio), pose in zip(passing, poses):
        matches, rays_i, rays_j, intr_i, intr_j, _ = tasks[k]
        if isinstance(pose, CheiralityAmbiguous):
            results[k] = _rejection(matches.pair, pose)
            continue
        measurement = TwoViewMeasurement(matches.pair, *pose, idx, ratio,
                                         len(idx))
        if cfg.enable_two_view_ba:
            to_refine.append((k, (measurement, rays_i, rays_j, intr_i,
                                  intr_j)))
        else:
            results[k] = PairResult(matches.pair, measurement, REASON_OK)
    if to_refine:
        refined = two_view_ba([task for _, task in to_refine], cfg)
        for (k, _), result in zip(to_refine, refined):
            results[k] = result
    return results
