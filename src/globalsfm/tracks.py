"""Multi-view feature tracks and their RANSAC-DLT triangulation.

Verified two-view correspondences are chained into tracks with a disjoint-set
forest over (image, keypoint) nodes; a track that collects two different
keypoints in one image is inconsistent and dropped entirely.  Each surviving
track is triangulated by sampling two-view linear (DLT) hypotheses, scoring
reprojection error in pixels, and re-estimating from the inlier views.

A track is solved in a few array operations rather than per-view and
per-hypothesis loops: its pixels become rays in one undistortion call over
the stacked intrinsics of its views, its (V, 3, 4) world-to-camera matrices
are built once, the 4x4 systems of all H hypotheses are solved by one
batched SVD (the inlier refit goes through the same kernel), and every
hypothesis is scored in every view by one (H, V) projection.
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
from .geometry import (MIN_DEPTH, pixel_to_normalized, project_camera_points,
                       stack_intrinsics)
from .seeding import rng_for


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


class _DisjointSet:
    """Union-find with path compression and union by size."""

    def __init__(self):
        self.parent = {}
        self.size = {}

    def find(self, node):
        root = node
        while self.parent.setdefault(root, root) != root:
            root = self.parent[root]
        while self.parent[node] != root:
            self.parent[node], node = root, self.parent[node]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        if self.size.setdefault(ra, 1) < self.size.setdefault(rb, 1):
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] = self.size.setdefault(ra, 1) + self.size.setdefault(rb, 1)


def build_tracks(measurements: list, keypoints: list) -> list:
    """Chain verified correspondences into tracks (transitive closure).

    Args:
        measurements: accepted two-view measurements; each contributes its
            surviving (keypoint-in-i, keypoint-in-j) index rows.
        keypoints: per-image (K, 2) pixel arrays used to attach positions.

    Returns:
        Track2D list sorted by observation content.  Tracks that would place
        two different keypoints in the same image are dropped entirely.
    """
    forest = _DisjointSet()
    for m in measurements:
        i, j = m.pair
        for row in np.atleast_2d(np.asarray(m.inliers, dtype=int)):
            forest.union((i, int(row[0])), (j, int(row[1])))

    groups = {}
    for node in forest.parent:
        groups.setdefault(forest.find(node), []).append(node)

    tracks = []
    for members in groups.values():
        image_ids = [image for image, _ in members]
        if len(set(image_ids)) != len(image_ids):
            continue  # conflicting track: several keypoints in one image
        if len(members) < 2:
            continue
        observations = tuple(
            (image, (float(keypoints[image][kp][0]),
                     float(keypoints[image][kp][1])))
            for image, kp in sorted(members))
        tracks.append(Track2D(observations))
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


def _dlt_point(rays: np.ndarray, poses: list) -> np.ndarray:
    """One DLT system: (n, 2) rays seen from the n poses; NaN at infinity."""
    return _dlt_points(rays[None], _camera_matrices(poses)[None])[0]


def _reprojection_errors(points: np.ndarray, poses: list, intrinsics: list,
                         pixels: np.ndarray) -> tuple:
    """Pixel errors and depths of H points in V views, each shaped (H, V).

    Uses the raw pinhole formula so a point behind a camera still yields a
    finite pixel (its depth flags the cheirality failure separately); only a
    near-zero depth maps to an infinite error.
    """
    points = np.atleast_2d(points)
    rotations = np.array([pose.rotation for pose in poses])
    centers = np.array([pose.translation for pose in poses])
    p_cam = ((points[:, None, None, :] - centers[:, None, :])
             @ rotations)[:, :, 0]
    uv = project_camera_points(p_cam, stack_intrinsics(intrinsics))
    errors = np.linalg.norm(uv - pixels, axis=2)
    depths = p_cam[..., 2]
    errors[np.abs(depths) < MIN_DEPTH] = np.inf
    return errors, depths


def triangulate_ransac_dlt(track: Track2D, poses: list, intrinsics: list,
                           config: TriangulationConfig = TriangulationConfig(),
                           track_id: int = 0, seed: int = 0):
    """Triangulate one track by RANSAC over two-view DLT hypotheses.

    Args:
        track: the observations to triangulate.
        poses: camera-to-world poses indexed by image id, a list or a dict
            that covers the track's images (None for unregistered images).
        intrinsics: intrinsics indexed by image id, likewise.
        config: thresholds and hypothesis budget.
        track_id: stable identifier mixed into the sampling seed.
        seed: global seed mixed into the sampling seed.

    Returns:
        A Landmark, or None when fewer than ``min_track_length`` observations
        survive as inliers (rejection).

    Raises:
        TrackTooShort: track shorter than the minimum length.
        MissingPose: fewer than two observed cameras have poses.
        DegenerateError: all ray pairs within 1 mrad (no triangulation angle).
        BehindCamera: the final point has non-positive depth in an inlier view.
    """
    if len(track) < config.min_track_length:
        raise TrackTooShort(
            f"track length {len(track)} < {config.min_track_length}")

    slots = [k for k, (image, _) in enumerate(track.observations)
             if poses[image] is not None]
    if len(slots) < 2:
        raise MissingPose(
            f"only {len(slots)} observed cameras have poses (need 2)")
    images = [track.observations[k][0] for k in slots]
    obs_poses = [poses[image] for image in images]
    obs_intr = [intrinsics[image] for image in images]
    pixels = np.array([track.observations[k][1] for k in slots])
    rays = pixel_to_normalized(pixels, stack_intrinsics(obs_intr))
    matrices = _camera_matrices(obs_poses)

    # degeneracy: maximum pairwise angle between world-frame viewing rays
    # (the ray rotated by R is the row vector ray @ R^T)
    rays_h = np.column_stack([rays, np.ones(len(rays))])
    world_rays = (rays_h[:, None, :] @ matrices[:, :, :3])[:, 0]
    world_rays /= np.linalg.norm(world_rays, axis=1, keepdims=True)
    cosines = np.clip(world_rays @ world_rays.T, -1.0, 1.0)
    angles = np.arccos(cosines)
    if float(np.max(angles)) < 1e-3:
        raise DegenerateError(
            f"max triangulation angle {np.max(angles):.2e} rad < 1e-3")

    pairs = np.column_stack(np.triu_indices(len(slots), 1))
    if len(pairs) > config.max_hypotheses:
        rng = rng_for(seed, "triangulate", track_id)
        pairs = pairs[rng.choice(len(pairs), size=config.max_hypotheses,
                                 replace=False)]

    hypotheses = _dlt_points(rays[pairs], matrices[pairs])
    hypotheses = hypotheses[np.all(np.isfinite(hypotheses), axis=1)]
    if not len(hypotheses):
        return None
    all_errors, _ = _reprojection_errors(hypotheses, obs_poses, obs_intr,
                                         pixels)
    # most inliers, then the least inlier error; the first hypothesis wins
    # an exact tie
    masks = all_errors <= config.inlier_threshold_px
    counts = masks.sum(axis=1)
    errsums = np.where(masks, all_errors, 0.0).sum(axis=1)
    best_count = counts.max()
    if best_count < config.min_track_length:
        return None
    best = int(np.argmin(np.where(counts == best_count, errsums, np.inf)))

    inlier_idx = np.nonzero(masks[best])[0]
    point = _dlt_points(rays[None, inlier_idx], matrices[None, inlier_idx])[0]
    if not np.all(np.isfinite(point)):
        return None
    errors, depths = _reprojection_errors(point, obs_poses, obs_intr, pixels)
    errors, depths = errors[0], depths[0]
    mask = errors <= config.inlier_threshold_px
    if int(mask.sum()) < config.min_track_length:
        return None
    if np.any(depths[mask] <= 0.0):
        raise BehindCamera(
            f"final point behind {int(np.sum(depths[mask] <= 0.0))} inlier views")

    # map the usable-observation mask back onto the full track
    full_mask = np.zeros(len(track), dtype=bool)
    full_mask[slots] = mask
    mean_err = float(np.mean(errors[mask]))
    return Landmark(track, point, full_mask, mean_err)
