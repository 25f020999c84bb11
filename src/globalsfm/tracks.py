"""Multi-view feature tracks and their RANSAC-DLT triangulation.

Tracks and landmarks are tables of observation rows (:class:`Tracks`,
:class:`Landmarks`); no stage walks the observations one at a time.

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
from typing import NamedTuple

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


@dataclass(frozen=True, eq=False)
class Tracks:
    """Features seen in several images: track t owns rows
    ``offsets[t]:offsets[t + 1]`` of ``images`` (M,) and ``pixels`` (M, 2),
    at least two, in strictly increasing image id."""

    offsets: np.ndarray
    images: np.ndarray
    pixels: np.ndarray

    def __post_init__(self):
        if np.any(self.lengths() < 2):
            raise ValueError("a track needs at least two observations")
        steps = np.diff(self.images)
        steps[self.offsets[1:-1] - 1] = 1  # the steps between two tracks
        if np.any(steps <= 0):
            raise ValueError("image ids must strictly increase within a track")

    def __len__(self) -> int:
        return len(self.offsets) - 1

    def __iter__(self):
        """Each track's image ids, one array per track."""
        return iter(np.split(self.images, self.offsets[1:-1])[:len(self)])

    def lengths(self) -> np.ndarray:
        return np.diff(self.offsets)

    def row_tracks(self) -> np.ndarray:
        """The track of every row, (M,)."""
        return np.repeat(np.arange(len(self)), self.lengths())

    def rows(self, indices) -> np.ndarray:
        """The rows of the tracks at ``indices``, track after track."""
        lengths = self.lengths()[indices]
        starts = self.offsets[indices] - np.cumsum(lengths) + lengths
        return np.repeat(starts, lengths) + np.arange(lengths.sum())

    def take(self, indices) -> Tracks:
        """The tracks at ``indices``, in that order."""
        rows = self.rows(indices)
        return Tracks(np.append(0, np.cumsum(self.lengths()[indices])),
                      self.images[rows], self.pixels[rows])


class LandmarkRow(NamedTuple):
    """One landmark of a :class:`Landmarks` table."""

    images: np.ndarray
    pixels: np.ndarray
    point: np.ndarray
    inlier_mask: np.ndarray
    mean_error: float


@dataclass(frozen=True, eq=False)
class Landmarks:
    """Triangulated ``tracks`` with a world point (L, 3) and a mean error
    (L,) per track and an inlier flag per row (M,).

    ``mean_errors`` holds the mean pixel error of each landmark's inlier
    observations where the point was last judged: at triangulation, then
    after each bundle-adjustment round by its reprojection filter.
    """

    tracks: Tracks
    points: np.ndarray
    inliers: np.ndarray
    mean_errors: np.ndarray

    def __post_init__(self):
        if not np.all(np.isfinite(self.points)):
            raise ValueError("landmark point must be finite")
        if len(self.inliers) != len(self.tracks.images):
            raise ValueError("inlier mask must match the track rows")

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        """One :class:`LandmarkRow` per landmark."""
        cuts = self.tracks.offsets[1:-1]
        return map(LandmarkRow, np.split(self.tracks.images, cuts),
                   np.split(self.tracks.pixels, cuts), self.points,
                   np.split(self.inliers, cuts), self.mean_errors.tolist())

    def take(self, indices) -> Landmarks:
        """The landmarks at ``indices``, in that order."""
        return Landmarks(self.tracks.take(indices), self.points[indices],
                         self.inliers[self.tracks.rows(indices)],
                         self.mean_errors[indices])


def segment_means(values: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The mean of each run of consecutive ``values``, run k ``lengths[k]``
    long; NaN for an empty run.

    The runs of one length are averaged as the rows of one matrix, which
    sums each run as ``np.mean`` of that run alone does, to the bit
    (``np.add.reduceat`` does not).
    """
    means = np.full(len(lengths), np.nan)
    starts = np.cumsum(lengths) - lengths
    for length in np.unique(lengths[lengths > 0]):
        sel = np.flatnonzero(lengths == length)
        means[sel] = values[starts[sel, None] + np.arange(length)].mean(axis=1)
    return means


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


def build_tracks(measurements: list, keypoints) -> Tracks:
    """Chain verified correspondences into tracks (transitive closure).

    Args:
        measurements: accepted two-view measurements; each contributes its
            surviving (keypoint-in-i, keypoint-in-j) index rows.
        keypoints: per-image (K, 2) pixel arrays used to attach positions,
            a list or a dict keyed by image id ``0 .. n_images - 1``.

    Returns:
        The tracks, in lexicographic order of their (image id, x, y) row
        sequences (a sequence before its extensions, tracks with equal
        sequences by connected component).  Tracks that would place two
        different keypoints in the same image are dropped entirely.

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

    # the components of two or more nodes, in component order
    starts = np.flatnonzero(np.diff(key // n_images, prepend=-1))
    lengths = np.diff(np.append(starts, len(key)))
    long_enough = np.repeat(lengths >= 2, lengths)
    xy = np.concatenate([np.asarray(keypoints[i], dtype=float).reshape(-1, 2)
                         for i in range(n_images)] or [np.empty((0, 2))])
    tracks = Tracks(np.append(0, np.cumsum(lengths[lengths >= 2])),
                    key[long_enough] % n_images, xy[nodes[long_enough]])
    if not len(tracks):
        return tracks
    # each row's rank by (image, x, y), equal rows ranked equal; the tracks'
    # rank sequences, padded by -1 past their ends, sorted column by column
    keys = np.column_stack([tracks.images, tracks.pixels])
    by_row = np.lexsort(keys.T[::-1])
    steps = np.any(keys[by_row][1:] != keys[by_row][:-1], axis=1)
    ranks = np.empty(len(keys), dtype=np.intp)
    ranks[by_row] = np.append(0, np.cumsum(steps))
    padded = np.full((len(tracks), tracks.lengths().max()), -1)
    padded[tracks.row_tracks(),
           np.arange(len(ranks)) - tracks.offsets[tracks.row_tracks()]] = ranks
    return tracks.take(np.lexsort(padded.T[::-1]))


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
    per track (None, or a DegenerateError or BehindCamera instance) and the
    tracks' points (T, 3), inlier masks (T, V) and mean inlier errors (T,),
    which are NaN, False and NaN for a track that did not triangulate.
    """
    n_tracks, n_views = views.shape
    outcomes = [None] * n_tracks
    out_points = np.full((n_tracks, 3), np.nan)
    out_masks = np.zeros((n_tracks, n_views), dtype=bool)
    out_means = np.full(n_tracks, np.nan)
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
        return outcomes, out_points, out_masks, out_means

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
    errors, depths = errors[:, 0], depths[:, 0]
    masks = errors <= config.inlier_threshold_px
    counts = masks.sum(axis=1)
    behind = np.sum(masks & (depths <= 0.0), axis=1)
    enough = counts >= config.min_track_length
    for t, n_behind in zip(live[done][enough & (behind > 0)],
                           behind[enough & (behind > 0)]):
        outcomes[t] = BehindCamera(f"final point behind {n_behind} inlier views")
    good = enough & (behind == 0)
    out_points[live[done][good]] = points[done][good]
    out_masks[live[done][good]] = masks[good]
    out_means[live[done][good]] = segment_means(errors[good][masks[good]],
                                                counts[good])
    return outcomes, out_points, out_masks, out_means


def triangulate_tracks(tracks: Tracks, poses, intrinsics,
                       config: TriangulationConfig = TriangulationConfig(),
                       track_ids=None, seed: int = 0) -> tuple:
    """Triangulate a batch of tracks by RANSAC over two-view DLT hypotheses,
    as the module describes.

    Args:
        tracks: the tracks to triangulate.
        poses: camera-to-world poses indexed by image id, a list or a dict
            that covers the tracks' images (None for unregistered images).
        intrinsics: intrinsics indexed by image id, likewise.
        config: thresholds and hypothesis budget.
        track_ids: one stable identifier per track, mixed into its sampling
            seed; the track's position in ``tracks`` by default.
        seed: global seed mixed into every sampling seed.

    Returns:
        (landmarks, outcomes): the :class:`Landmarks` of the tracks that
        triangulated, in batch order, and one outcome per track: the index
        of its landmark; None when fewer than ``min_track_length``
        observations survive as inliers (rejection); or, returned rather
        than raised, the typed error of that track: TrackTooShort (track
        shorter than the minimum length), MissingPose (fewer than two
        observed cameras have poses), DegenerateError (all ray pairs within
        1 mrad) or BehindCamera (the final point has non-positive depth in
        an inlier view).
    """
    if track_ids is None:
        track_ids = range(len(tracks))
    outcomes = [None] * len(tracks)
    lengths, row_tracks = tracks.lengths(), tracks.row_tracks()
    batch_images, image_of_row = np.unique(tracks.images, return_inverse=True)
    usable = np.array([poses[image] is not None for image in
                       batch_images.tolist()], dtype=bool)[image_of_row]
    n_posed = np.bincount(row_tracks[usable], minlength=len(tracks))
    long_enough = lengths >= config.min_track_length
    solvable = long_enough & (n_posed >= 2)
    for k in np.flatnonzero(~solvable):
        outcomes[k] = (MissingPose(f"only {n_posed[k]} observed cameras have "
                                   f"poses (need 2)") if long_enough[k] else
                       TrackTooShort(f"track length {lengths[k]} < "
                                     f"{config.min_track_length}"))
    if not solvable.any():
        return (Landmarks(tracks.take([]), np.zeros((0, 3)), np.zeros(0, bool),
                          np.zeros(0)), outcomes)
    # the posed rows of the solvable tracks, grouped by the tracks' number
    # of posed views, each group in batch order
    observed = np.flatnonzero(usable & solvable[row_tracks])
    observed = observed[np.argsort(n_posed[row_tracks[observed]], kind="stable")]

    images = np.unique(tracks.images[observed])
    views = np.searchsorted(images, tracks.images[observed])
    pixels = tracks.pixels[observed]
    image_poses = [poses[image] for image in images.tolist()]
    rotations = np.array([pose.rotation for pose in image_poses])
    centers = np.array([pose.translation for pose in image_poses])
    intr = stack_intrinsics([intrinsics[image] for image in images.tolist()])
    rays = pixel_to_normalized(pixels, take_intrinsics(intr, views))
    matrices = _camera_matrices(image_poses)

    points, means = np.zeros((len(tracks), 3)), np.full(len(tracks), np.nan)
    inliers = np.zeros(len(tracks.images), dtype=bool)
    for n_views in np.unique(n_posed[solvable]):
        group = np.flatnonzero(solvable & (n_posed == n_views))
        sel = n_posed[row_tracks[observed]] == n_views
        shape = (len(group), n_views)
        results, points[group], masks, means[group] = _triangulate_group(
            rays[sel].reshape(shape + (2,)), pixels[sel].reshape(shape + (2,)),
            views[sel].reshape(shape), rotations, centers, matrices, intr,
            [track_ids[k] for k in group.tolist()], config, seed)
        inliers[observed[sel]] = masks.ravel()
        for k, result in zip(group.tolist(), results):
            outcomes[k] = result
    kept = np.flatnonzero(~np.isnan(means))
    for index, k in enumerate(kept.tolist()):
        outcomes[k] = index
    return (Landmarks(tracks.take(kept), points[kept],
                      inliers[tracks.rows(kept)], means[kept]), outcomes)
