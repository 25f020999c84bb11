"""Multi-view feature tracks and their RANSAC-DLT triangulation.

Verified two-view correspondences are chained into tracks with a disjoint-set
forest over (image, keypoint) nodes; a track that collects two different
keypoints in one image is inconsistent and dropped entirely.  Each surviving
track is triangulated by sampling two-view linear (DLT) hypotheses, scoring
reprojection error in pixels, and re-estimating from the inlier views.
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
from .geometry import MIN_DEPTH, pixel_to_normalized, project_points
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


def _dlt_point(rays: np.ndarray, poses: list) -> np.ndarray:
    """Linear triangulation from undistorted normalized rays.

    Each observation contributes two rows of ``x * (r3 . X + t3) = r1 . X +
    t1`` form built from the world-to-camera maps, solved by SVD for the
    homogeneous world point.  Returns NaN if the point is at infinity.
    """
    rows = []
    for (x, y), pose in zip(rays, poses):
        w2c = pose.world_to_camera()
        rot, trans = w2c.rotation, w2c.translation
        p1 = np.append(rot[0], trans[0])
        p2 = np.append(rot[1], trans[1])
        p3 = np.append(rot[2], trans[2])
        rows.append(x * p3 - p1)
        rows.append(y * p3 - p2)
    _, _, vt = np.linalg.svd(np.array(rows))
    hom = vt[-1]
    if abs(hom[3]) < 1e-12 * np.linalg.norm(hom[:3]):
        return np.full(3, np.nan)
    return hom[:3] / hom[3]


def _reprojection_errors(points: np.ndarray, poses: list, intrinsics: list,
                         pixels: np.ndarray) -> tuple:
    """Pixel errors and depths of H points in V views, each shaped (H, V).

    Uses the raw pinhole formula so a point behind a camera still yields a
    finite pixel (its depth flags the cheirality failure separately); only a
    near-zero depth maps to an infinite error.
    """
    points = np.atleast_2d(points)
    errors = np.empty((len(points), len(poses)))
    depths = np.empty_like(errors)
    for k, (pose, intr) in enumerate(zip(poses, intrinsics)):
        uv, depths[:, k] = project_points(points, pose, intr)
        errors[:, k] = np.linalg.norm(uv - pixels[k], axis=1)
    errors[np.abs(depths) < MIN_DEPTH] = np.inf
    return errors, depths


def triangulate_ransac_dlt(track: Track2D, poses: list, intrinsics: list,
                           config: TriangulationConfig = TriangulationConfig(),
                           track_id: int = 0, seed: int = 0):
    """Triangulate one track by RANSAC over two-view DLT hypotheses.

    Args:
        track: the observations to triangulate.
        poses: per-image camera-to-world poses (None for unregistered images).
        intrinsics: per-image intrinsics.
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

    usable = [(image, np.array(uv)) for image, uv in track.observations
              if poses[image] is not None]
    if len(usable) < 2:
        raise MissingPose(
            f"only {len(usable)} observed cameras have poses (need 2)")
    obs_poses = [poses[image] for image, _ in usable]
    obs_intr = [intrinsics[image] for image, _ in usable]
    pixels = np.array([uv for _, uv in usable])
    rays = np.array([pixel_to_normalized(uv, intr)
                     for intr, (_, uv) in zip(obs_intr, usable)])

    # degeneracy: maximum pairwise angle between world-frame viewing rays
    world_rays = np.array([
        pose.rotation @ np.array([x, y, 1.0])
        for (x, y), pose in zip(rays, obs_poses)])
    world_rays /= np.linalg.norm(world_rays, axis=1, keepdims=True)
    cosines = np.clip(world_rays @ world_rays.T, -1.0, 1.0)
    angles = np.arccos(cosines)
    if float(np.max(angles)) < 1e-3:
        raise DegenerateError(
            f"max triangulation angle {np.max(angles):.2e} rad < 1e-3")

    n_obs = len(usable)
    pairs = [(a, b) for a in range(n_obs) for b in range(a + 1, n_obs)]
    if len(pairs) > config.max_hypotheses:
        rng = rng_for(seed, "triangulate", track_id)
        chosen = rng.choice(len(pairs), size=config.max_hypotheses,
                            replace=False)
        pairs = [pairs[int(c)] for c in chosen]

    hypotheses = np.array([
        _dlt_point(rays[[a, b]], [obs_poses[a], obs_poses[b]])
        for a, b in pairs])
    hypotheses = hypotheses[np.all(np.isfinite(hypotheses), axis=1)]
    all_errors, _ = _reprojection_errors(hypotheses, obs_poses, obs_intr,
                                         pixels)
    best_mask = None
    best_count = -1
    best_errsum = np.inf
    for errors in all_errors:
        mask = errors <= config.inlier_threshold_px
        count = int(mask.sum())
        errsum = float(np.sum(errors[mask])) if count else np.inf
        if count > best_count or (count == best_count and errsum < best_errsum):
            best_mask, best_count, best_errsum = mask, count, errsum

    if best_mask is None or best_count < config.min_track_length:
        return None

    inlier_idx = np.nonzero(best_mask)[0]
    point = _dlt_point(rays[inlier_idx], [obs_poses[k] for k in inlier_idx])
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
    usable_slots = [k for k, (image, _) in enumerate(track.observations)
                    if poses[image] is not None]
    for local, slot in enumerate(usable_slots):
        full_mask[slot] = bool(mask[local])
    mean_err = float(np.mean(errors[mask]))
    return Landmark(track, point, full_mask, mean_err)
