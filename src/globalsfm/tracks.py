"""Multi-view feature tracks and their RANSAC-DLT triangulation.

Verified two-view correspondences are chained into tracks by the connected
components (:func:`globalsfm.view_graph.connected_components`) of the graph
over (image, keypoint) nodes; a track that collects two different keypoints
in one image is inconsistent and dropped entirely.  Each surviving
track is triangulated by sampling two-view linear (DLT) hypotheses, scoring
reprojection error in pixels, and re-estimating from the inlier views.

:func:`triangulate_tracks` solves a batch of tracks in a few array
operations rather than per-track, per-view and per-hypothesis loops.  The
batch's pixels become rays in one undistortion call over per-observation
intrinsics, and each image's world-to-camera matrix is built once.  Tracks
with the same number of posed views V then share every step: the 4x4
systems of all T x H hypotheses are solved by one batched SVD, every
hypothesis is scored in every view by one (T, H, V) projection, the inlier
refits are solved in one batch per inlier count, and one final
reprojection judges the refitted points.  Each track draws its hypotheses
from its own seed and each ray stops undistorting at its own convergence,
so its outcome does not depend on its batch mates, to the bit; one track
is triangulated as a batch of one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    BehindCamera,
    DegenerateError,
    MissingPose,
    TrackTooShort,
)
from .geometry import (MIN_DEPTH, CameraIntrinsics, pixel_to_normalized,
                       project_camera_points, stack_intrinsics,
                       take_intrinsics)
from .seeding import rng_for
from .view_graph import connected_components


@dataclass(frozen=True)
class Track2D:
    """A feature seen in several images: ((image_id, (x_px, y_px)), ...).

    Observations are sorted by image id, at most one per image.
    """

    observations: tuple

    def __post_init__(self):
        if len(self.observations) < 2:
            raise ValueError("a track needs at least two observations")
        image_ids = [obs[0] for obs in self.observations]
        if sorted(image_ids) != image_ids:
            raise ValueError("observations must be sorted by image id")
        if len(set(image_ids)) != len(image_ids):
            raise ValueError("at most one observation per image")

    def __len__(self) -> int:
        return len(self.observations)

    def image_ids(self) -> list:
        return [obs[0] for obs in self.observations]

    def positions(self) -> np.ndarray:
        return np.array([obs[1] for obs in self.observations], dtype=float)


@dataclass(frozen=True)
class Landmark:
    """A triangulated track: world point plus per-observation inlier mask.

    ``mean_reprojection_error_px`` is the mean pixel error of the inlier
    observations where the point was last judged: at triangulation, then
    after each bundle-adjustment round by its reprojection filter.
    """

    track: Track2D
    point: np.ndarray
    inlier_mask: np.ndarray
    mean_reprojection_error_px: float

    def __post_init__(self):
        if not np.all(np.isfinite(self.point)):
            raise ValueError("landmark point must be finite")
        if len(self.inlier_mask) != len(self.track):
            raise ValueError("inlier mask must match track length")


@dataclass(frozen=True)
class TriangulationConfig:
    min_track_length: int = 3
    max_hypotheses: int = 100
    inlier_threshold_px: float = 10.0

    def __post_init__(self):
        if self.min_track_length < 2:
            raise ValueError("min_track_length must be at least 2")
        if self.max_hypotheses < 1 or self.inlier_threshold_px <= 0:
            raise ValueError("hypothesis budget and threshold must be positive")


def build_tracks(measurements: list, keypoints) -> list:
    """Chain verified correspondences into tracks (transitive closure).

    Args:
        measurements: accepted two-view measurements; each contributes its
            surviving (keypoint-in-i, keypoint-in-j) index rows.
        keypoints: per-image (K, 2) pixel arrays used to attach positions,
            a list or a dict keyed by image id ``0 .. n_images - 1``.

    Returns:
        Track2D list sorted by observation content.  Tracks that would place
        two different keypoints in the same image are dropped entirely.

    Raises:
        IndexError: a row names a keypoint its image does not have.
    """
    n_images = len(keypoints)
    sizes = np.array([len(keypoints[i]) for i in range(n_images)], dtype=np.intp)
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    rows = [np.asarray(m.inliers, dtype=np.intp).reshape(-1, 2)
            for m in measurements]
    images = np.repeat(np.array([m.pair for m in measurements],
                                dtype=np.intp).reshape(-1, 2),
                       [len(r) for r in rows], axis=0)
    kps = np.concatenate(rows) if rows else np.empty((0, 2), dtype=np.intp)
    if np.any((kps < 0) | (kps >= sizes[images])):
        raise IndexError("a match row names a keypoint out of range")
    # one global id per keypoint: its image's offset plus its index
    ends = offsets[images] + kps
    labels = connected_components(offsets[-1], ends[:, 0], ends[:, 1])

    touched = np.zeros(offsets[-1], dtype=bool)
    touched[ends] = True
    nodes = np.flatnonzero(touched)
    # sorting by (component, image) groups each component's observations in
    # image order and puts two keypoints of one image next to each other
    key = (labels[nodes] * n_images
           + np.repeat(np.arange(n_images), sizes)[nodes])
    order = np.argsort(key, kind="stable")
    key = key[order]
    conflicted = np.zeros(offsets[-1], dtype=bool)
    conflicted[key[1:][key[1:] == key[:-1]] // n_images] = True
    keep = ~conflicted[key // n_images]
    nodes, key = nodes[order[keep]], key[keep]

    xy = np.concatenate([np.asarray(keypoints[i], dtype=float).reshape(-1, 2)
                         for i in range(n_images)] or [np.empty((0, 2))])
    observations = list(zip((key % n_images).tolist(),
                            map(tuple, xy[nodes].tolist())))
    bounds = [0, *(np.flatnonzero(np.diff(key // n_images)) + 1).tolist(),
              len(nodes)]
    tracks = [Track2D(tuple(observations[start:stop]))
              for start, stop in zip(bounds, bounds[1:]) if stop - start >= 2]
    tracks.sort(key=lambda t: t.observations)
    return tracks


def _camera_matrices(poses: list) -> np.ndarray:
    """World-to-camera ``[R^T | -R^T C]`` matrices of the poses, (V, 3, 4)."""
    rt = np.array([pose.rotation.T for pose in poses])
    centers = np.array([pose.translation for pose in poses])
    return np.concatenate([rt, -rt @ centers[:, :, None]], axis=2)


def _dlt_points(rays: np.ndarray, matrices: np.ndarray) -> np.ndarray:
    """Linear triangulation of H independent systems in one batched SVD.

    Args:
        rays: (H, n, 2) undistorted normalized rays.
        matrices: (H, n, 3, 4) world-to-camera matrices of the same views.

    Each observation contributes the two rows ``x * p3 - p1`` and
    ``y * p3 - p2`` of its matrix rows p1..p3; the homogeneous world point
    is the right singular vector of the smallest singular value.  Returns
    (H, 3) points, a row of NaN where the point is at infinity.
    """
    rows = rays[..., None] * matrices[..., 2:, :] - matrices[..., :2, :]
    _, _, vt = np.linalg.svd(rows.reshape(len(rays), -1, 4))
    hom = vt[:, -1]
    at_infinity = np.abs(hom[:, 3]) < 1e-12 * np.linalg.norm(hom[:, :3], axis=1)
    scale = np.where(at_infinity, 1.0, hom[:, 3])
    points = hom[:, :3] / scale[:, None]
    points[at_infinity] = np.nan
    return points


def _reprojection_errors(points: np.ndarray, rotations: np.ndarray,
                         centers: np.ndarray, intr: CameraIntrinsics,
                         pixels: np.ndarray) -> tuple:
    """Pixel errors and depths of H points in V views, each (..., H, V).

    Args:
        points: (..., H, 3) world points.
        rotations: (..., V, 3, 3) camera-to-world rotations of the views.
        centers: (..., V, 3) camera centers of the views.
        intr: stacked intrinsics whose fields broadcast against (..., H, V).
        pixels: (..., V, 2) measured pixels.

    Uses the raw pinhole formula so a point behind a camera still yields a
    finite pixel (its depth flags the cheirality failure separately); only a
    near-zero depth maps to an infinite error.
    """
    p_cam = ((points[..., :, None, None, :] - centers[..., None, :, None, :])
             @ rotations[..., None, :, :, :])[..., 0, :]
    uv = project_camera_points(p_cam, intr)
    errors = np.linalg.norm(uv - pixels[..., None, :, :], axis=-1)
    depths = p_cam[..., 2]
    errors[np.abs(depths) < MIN_DEPTH] = np.inf
    return errors, depths


def _triangulate_group(rays, pixels, views, rotations, centers, matrices,
                       intr, track_ids, config, seed) -> list:
    """RANSAC-DLT of T tracks that each have V posed views.

    ``rays``, ``pixels`` (T, V, 2) and ``views`` (T, V) describe the
    observations, ``views`` indexing the per-image ``rotations``,
    ``centers``, ``matrices`` and stacked ``intr``.  Returns one outcome
    per track: (point, (V,) inlier mask, mean inlier error), None, or a
    DegenerateError or BehindCamera instance.
    """
    n_tracks, n_views = views.shape
    outcomes = [None] * n_tracks
    mats = matrices[views]

    # degeneracy: maximum pairwise angle between world-frame viewing rays
    # (the ray rotated by R is the row vector ray @ R^T)
    rays_h = np.concatenate([rays, np.ones((n_tracks, n_views, 1))], axis=2)
    world_rays = (rays_h[..., None, :] @ mats[..., :3])[..., 0, :]
    world_rays /= np.linalg.norm(world_rays, axis=2, keepdims=True)
    cosines = np.clip(world_rays @ world_rays.transpose(0, 2, 1), -1.0, 1.0)
    max_angles = np.arccos(cosines).max(axis=(1, 2))
    degenerate = max_angles < 1e-3
    for t in np.nonzero(degenerate)[0]:
        outcomes[t] = DegenerateError(
            f"max triangulation angle {max_angles[t]:.2e} rad < 1e-3")
    live = np.nonzero(~degenerate)[0]
    if not len(live):
        return outcomes

    pairs = np.column_stack(np.triu_indices(n_views, 1))
    if len(pairs) > config.max_hypotheses:
        pairs = np.stack([
            pairs[rng_for(seed, "triangulate", track_ids[t]).choice(
                len(pairs), size=config.max_hypotheses, replace=False)]
            for t in live])
    else:
        pairs = np.broadcast_to(pairs, (len(live),) + pairs.shape)
    rows = live[:, None, None]
    hypotheses = _dlt_points(rays[rows, pairs].reshape(-1, 2, 2),
                             mats[rows, pairs].reshape(-1, 2, 3, 4))
    live_views = views[live]
    live_intr = take_intrinsics(intr, live_views[:, None, :])
    errors, _ = _reprojection_errors(
        hypotheses.reshape(len(live), -1, 3), rotations[live_views],
        centers[live_views], live_intr, pixels[live])
    # most inliers, then the least inlier error; the first hypothesis wins
    # an exact tie (a hypothesis at infinity has no inliers)
    masks = errors <= config.inlier_threshold_px
    counts = masks.sum(axis=2)
    errsums = np.where(masks, errors, 0.0).sum(axis=2)
    best_count = counts.max(axis=1)
    best = np.argmin(np.where(counts == best_count[:, None], errsums, np.inf),
                     axis=1)
    inliers = masks[np.arange(len(live)), best]

    # refit on the inlier views, one batched solve per inlier count
    points = np.full((len(live), 3), np.nan)
    solvable = best_count >= config.min_track_length
    for count in np.unique(best_count[solvable]):
        sel = np.nonzero(solvable & (best_count == count))[0]
        cols = np.nonzero(inliers[sel])[1].reshape(len(sel), count)
        rows = live[sel, None]
        points[sel] = _dlt_points(rays[rows, cols], mats[rows, cols])
    done = np.nonzero(np.all(np.isfinite(points), axis=1))[0]
    errors, depths = _reprojection_errors(
        points[done, None], rotations[live_views[done]],
        centers[live_views[done]], take_intrinsics(live_intr, done),
        pixels[live[done]])
    for t, point, err, depth in zip(live[done], points[done], errors[:, 0],
                                    depths[:, 0]):
        mask = err <= config.inlier_threshold_px
        if int(mask.sum()) < config.min_track_length:
            continue
        behind = int(np.sum(depth[mask] <= 0.0))
        outcomes[t] = (BehindCamera(f"final point behind {behind} inlier views")
                       if behind else (point, mask, float(np.mean(err[mask]))))
    return outcomes


def triangulate_tracks(tracks: list, poses, intrinsics,
                       config: TriangulationConfig = TriangulationConfig(),
                       track_ids=None, seed: int = 0) -> list:
    """Triangulate a batch of tracks by RANSAC over two-view DLT hypotheses.

    Tracks with the same number of posed views are solved together: one
    batched DLT over all their hypotheses, one projection that scores every
    hypothesis in every view, one batched refit per inlier count and one
    final reprojection.  The batch's pixels become rays in one undistortion
    call.  A track's hypotheses are drawn from its own seed, so its verdict
    does not depend on which tracks share its batch.

    Args:
        tracks: the Track2D list to triangulate.
        poses: camera-to-world poses indexed by image id, a list or a dict
            that covers the tracks' images (None for unregistered images).
        intrinsics: intrinsics indexed by image id, likewise.
        config: thresholds and hypothesis budget.
        track_ids: one stable identifier per track, mixed into its sampling
            seed; the track's position in ``tracks`` by default.
        seed: global seed mixed into every sampling seed.

    Returns:
        One outcome per track, in order: a Landmark; None when fewer than
        ``min_track_length`` observations survive as inliers (rejection);
        or, returned rather than raised, the typed error of that track:
        TrackTooShort (track shorter than the minimum length), MissingPose
        (fewer than two observed cameras have poses), DegenerateError (all
        ray pairs within 1 mrad) or BehindCamera (the final point has
        non-positive depth in an inlier view).
    """
    if track_ids is None:
        track_ids = range(len(tracks))
    outcomes = [None] * len(tracks)
    groups = {}
    for k, track in enumerate(tracks):
        if len(track) < config.min_track_length:
            outcomes[k] = TrackTooShort(
                f"track length {len(track)} < {config.min_track_length}")
            continue
        slots = [s for s, (image, _) in enumerate(track.observations)
                 if poses[image] is not None]
        if len(slots) < 2:
            outcomes[k] = MissingPose(
                f"only {len(slots)} observed cameras have poses (need 2)")
            continue
        groups.setdefault(len(slots), []).append((k, slots))
    if not groups:
        return outcomes

    members = [m for n_views in sorted(groups) for m in groups[n_views]]
    observed = [tracks[k].observations[s] for k, slots in members
                for s in slots]
    images = sorted({image for image, _ in observed})
    views = np.searchsorted(images, [image for image, _ in observed])
    pixels = np.array([xy for _, xy in observed])
    image_poses = [poses[image] for image in images]
    rotations = np.array([pose.rotation for pose in image_poses])
    centers = np.array([pose.translation for pose in image_poses])
    intr = stack_intrinsics([intrinsics[image] for image in images])
    rays = pixel_to_normalized(pixels, take_intrinsics(intr, views))
    matrices = _camera_matrices(image_poses)

    start = 0
    for n_views in sorted(groups):
        group = groups[n_views]
        span = slice(start, start + len(group) * n_views)
        start = span.stop
        shape = (len(group), n_views)
        results = _triangulate_group(
            rays[span].reshape(shape + (2,)), pixels[span].reshape(shape + (2,)),
            views[span].reshape(shape), rotations, centers, matrices, intr,
            [track_ids[k] for k, _ in group], config, seed)
        for (k, slots), result in zip(group, results):
            if not isinstance(result, tuple):
                outcomes[k] = result
                continue
            point, mask, mean_err = result
            # map the usable-observation mask back onto the full track
            full_mask = np.zeros(len(tracks[k]), dtype=bool)
            full_mask[slots] = mask
            outcomes[k] = Landmark(tracks[k], point, full_mask, mean_err)
    return outcomes
