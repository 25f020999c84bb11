"""Synthetic scenes with exact ground truth for end-to-end verification.

The generator builds an inward-looking camera orbit around a point volume,
derives visibility from the camera frusta, and emits the same keypoint /
match / descriptor containers that the ingestion path consumes.  With zero
keypoint noise every emitted correspondence is exact, so the back end can be
checked against the ground truth to numerical precision.

Outlier injection replaces the correspondences of selected pairs either with
self-consistent matches rendered from a rotated phantom camera (wrong but
internally coherent geometry, the hard case for filtering) or with uniform
random index noise (the easy case caught by two-view verification).
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateScene, InputError
from .geometry import (
    MIN_DEPTH,
    CameraIntrinsics,
    Pose3,
    normalized,
    project_points,
    so3_exp,
)
from .seeding import rng_for
from .two_view import MatchSet

DEFAULT_RADIUS = 5.0
DEFAULT_VOLUME_SIDE = 2.0
DEFAULT_WIDTH = 760
DEFAULT_HEIGHT = 570
DEFAULT_FOCAL_PX = 600.0
DESCRIPTOR_DIM = 32

MODE_DOPPELGANGER = "doppelganger"
MODE_RANDOM = "random"

LABEL_CLEAN = "clean"


@dataclass(frozen=True)
class SyntheticScene:
    """Ground truth of a generated scene.

    Attributes:
        poses: camera-to-world poses, one per camera.
        points: (P, 3) world points, already restricted to points visible in
            at least two cameras.
        intrinsics: per-camera intrinsics (identical for all cameras here).
        visibility: (n_cameras, P) boolean observation table.
        keypoint_point_ids: per camera, the point column index of each
            keypoint row (the ground-truth track labels).
        width, height: image bounds in pixels.
        noise_px: keypoint noise sigma used at generation time.
        seed: generation seed.
    """

    poses: tuple
    points: np.ndarray
    intrinsics: tuple
    visibility: np.ndarray
    keypoint_point_ids: tuple
    width: int
    height: int
    noise_px: float
    seed: int

    @property
    def n_cameras(self) -> int:
        return len(self.poses)

    @property
    def n_points(self) -> int:
        return len(self.points)


def _orbit_pose(center: np.ndarray) -> Pose3:
    """Camera-to-world pose at ``center`` with the optical axis at the origin."""
    z_axis = normalized(-center)
    up = np.array([0.0, 0.0, 1.0])
    if abs(float(up @ z_axis)) > 0.99:
        up = np.array([0.0, 1.0, 0.0])
    x_axis = normalized(np.cross(up, z_axis))
    y_axis = np.cross(z_axis, x_axis)
    return Pose3(np.column_stack([x_axis, y_axis, z_axis]), center)


def _orbit_centers(n_cameras: int, radius: float, n_rings: int,
                   ring_spacing: float) -> np.ndarray:
    per_ring = -(-n_cameras // n_rings)  # ceil division
    centers = np.zeros((n_cameras, 3))
    for k in range(n_cameras):
        ring = k // per_ring
        slot = k % per_ring
        n_in_ring = min(per_ring, n_cameras - ring * per_ring)
        theta = 2.0 * np.pi * slot / n_in_ring + 0.5 * ring
        z = (ring - 0.5 * (n_rings - 1)) * ring_spacing
        centers[k] = (radius * np.cos(theta), radius * np.sin(theta), z)
    return centers


def generate_orbit_scene(n_cameras: int, n_points: int,
                         radius: float = DEFAULT_RADIUS,
                         noise_px: float = 0.0, seed: int = 0,
                         volume_side: float = DEFAULT_VOLUME_SIDE,
                         n_rings: int = 1, ring_spacing: float = 1.5,
                         dropout: float = 0.0,
                         width: int = DEFAULT_WIDTH,
                         height: int = DEFAULT_HEIGHT):
    """Generate an inward-looking orbit scene and its front-end products.

    Cameras sit on one or more horizontal rings of the given radius and look
    at the origin; points are sampled uniformly inside a centered cube.  An
    observation exists iff the point projects in front of the camera and
    inside the image bounds (optionally thinned by random dropout).  Points
    seen by fewer than two cameras are dropped.  Keypoints are the exact
    projections plus Gaussian noise of the given sigma; matches pair the
    keypoints of every shared point per image pair; descriptors are unit
    vectors whose pairwise similarity tracks the angle between the cameras'
    viewing directions.

    Args:
        n_cameras: number of cameras, >= 3.
        n_points: number of sampled points, >= 10 (some may be dropped).
        radius: orbit radius in scene units.
        noise_px: keypoint noise sigma in pixels.
        seed: generation seed; fixed seed gives identical output.
        volume_side: side length of the point sampling cube.
        n_rings: number of horizontal camera rings.
        ring_spacing: vertical distance between rings.
        dropout: fraction of frustum-visible observations randomly removed.
        width: image width in pixels.
        height: image height in pixels.

    Returns:
        (SyntheticScene, keypoints, matches, descriptors) where keypoints
        maps image id to a (K, 2) pixel array, matches is a list of MatchSet
        over all pairs with shared visibility, and descriptors is an
        (n_cameras, DESCRIPTOR_DIM) array whose row i is camera i's unit
        descriptor.

    Raises:
        InputError: invalid sizes or fractions.
        DegenerateScene: some camera ends up observing fewer than 8 points.
    """
    if n_cameras < 3:
        raise InputError("need at least 3 cameras")
    if n_points < 10:
        raise InputError("need at least 10 points")
    if not 0.0 <= dropout < 1.0:
        raise InputError("dropout must be in [0, 1)")
    if noise_px < 0.0:
        raise InputError("noise must be non-negative")
    rng = rng_for(seed, "synth-scene")

    intr = CameraIntrinsics(f=DEFAULT_FOCAL_PX, k1=-0.05, k2=0.002,
                            u0=width / 2.0, v0=height / 2.0)
    centers = _orbit_centers(n_cameras, radius, n_rings, ring_spacing)
    poses = tuple(_orbit_pose(c) for c in centers)
    points = rng.uniform(-volume_side / 2.0, volume_side / 2.0,
                         size=(n_points, 3))

    visibility = np.zeros((n_cameras, n_points), dtype=bool)
    projections = np.zeros((n_cameras, n_points, 2))
    for i, pose in enumerate(poses):
        uv, depths = project_points(points, pose, intr)
        inside = ((depths > MIN_DEPTH)
                  & (uv[:, 0] >= 0.0) & (uv[:, 0] < width)
                  & (uv[:, 1] >= 0.0) & (uv[:, 1] < height))
        visibility[i] = inside
        projections[i] = uv
    if dropout > 0.0:
        keep = rng.uniform(size=visibility.shape) >= dropout
        visibility &= keep

    seen_enough = visibility.sum(axis=0) >= 2
    points = points[seen_enough]
    visibility = visibility[:, seen_enough]
    projections = projections[:, seen_enough]

    per_camera = visibility.sum(axis=1)
    if np.any(per_camera < 8):
        worst = int(np.argmin(per_camera))
        raise DegenerateScene(
            f"camera {worst} observes only {int(per_camera[worst])} points")

    keypoints = {}
    point_ids = []
    kp_slot = np.full(visibility.shape, -1, dtype=int)
    for i in range(n_cameras):
        ids = np.nonzero(visibility[i])[0]
        uv = projections[i][ids].copy()
        if noise_px > 0.0:
            uv += rng.normal(scale=noise_px, size=uv.shape)
        keypoints[i] = uv
        point_ids.append(ids)
        kp_slot[i, ids] = np.arange(len(ids))

    matches = []
    for i in range(n_cameras):
        for j in range(i + 1, n_cameras):
            shared = np.nonzero(visibility[i] & visibility[j])[0]
            if len(shared) == 0:
                continue
            rows = np.column_stack([kp_slot[i, shared], kp_slot[j, shared]])
            matches.append(MatchSet((i, j), rows))

    view_dirs = np.array([pose.rotation[:, 2] for pose in poses])
    tails = rng.normal(size=(n_cameras, DESCRIPTOR_DIM - 3)) * 0.05
    vecs = np.hstack([view_dirs, tails])
    # one norm per row, as read_descriptors takes them
    descriptors = vecs / np.array([np.linalg.norm(v) for v in vecs])[:, None]

    scene = SyntheticScene(poses, points, tuple([intr] * n_cameras),
                           visibility, tuple(point_ids), width, height,
                           float(noise_px), int(seed))
    return scene, keypoints, matches, descriptors


def _phantom_matches(scene: SyntheticScene, keypoints: dict, match: MatchSet,
                     rng: np.random.Generator):
    """Replace pair correspondences with projections from a rotated phantom.

    The second camera is rotated about the scene origin by a random angle in
    [30, 180] degrees, which keeps it aimed at the point volume; the shared
    points are re-projected into the phantom view, appended to that image's
    keypoints, and the matches rewritten to reference them.  The resulting
    pair is exactly self-consistent but its relative rotation is off by the
    phantom angle.

    Returns:
        (extra keypoints for image j, replacement index rows) or None when
        too few phantom projections stay inside the image.
    """
    i, j = match.pair
    angle = np.deg2rad(rng.uniform(30.0, 180.0))
    axis = normalized(rng.normal(size=3))
    spin = so3_exp(axis * angle)
    pose_j = scene.poses[j]
    phantom = Pose3(spin @ pose_j.rotation, spin @ pose_j.center)

    rows = np.atleast_2d(np.asarray(match.indices, dtype=int))
    shared_points = scene.keypoint_point_ids[i][rows[:, 0]]
    uv, depths = project_points(scene.points[shared_points], phantom,
                                scene.intrinsics[j])
    inside = ((depths > MIN_DEPTH)
              & (uv[:, 0] >= 0.0) & (uv[:, 0] < scene.width)
              & (uv[:, 1] >= 0.0) & (uv[:, 1] < scene.height))
    if int(inside.sum()) < 16:
        return None
    base = len(keypoints[j])
    extra = uv[inside]
    new_rows = np.column_stack([rows[inside, 0],
                                base + np.arange(len(extra))])
    return extra, new_rows


def inject_outlier_edges(scene: SyntheticScene, keypoints: dict, matches: list,
                         fraction: float, mode: str = MODE_DOPPELGANGER,
                         seed: int = 0):
    """Corrupt a fraction of the pairs and return ground-truth labels.

    Doppelganger mode rewrites each selected pair's correspondences from a
    rotated phantom camera (relative rotation off by 30-180 degrees yet fully
    self-consistent, so two-view verification accepts it).  Random mode
    replaces the index rows with uniform random pairs, which verification is
    expected to reject outright.

    Args:
        scene: generating scene (needed to render phantom projections).
        keypoints: image id -> (K, 2) pixel array; not mutated.
        matches: list of MatchSet; not mutated.
        fraction: fraction of pairs to corrupt, in [0, 1).
        mode: "doppelganger" or "random".
        seed: selection and construction seed.

    Returns:
        (keypoints, matches, labels) where labels maps every pair to
        "clean" or the corruption mode.
    """
    if not 0.0 <= fraction < 1.0:
        raise InputError("fraction must be in [0, 1)")
    if mode not in (MODE_DOPPELGANGER, MODE_RANDOM):
        raise InputError(f"unknown mode {mode!r}")
    labels = {m.pair: LABEL_CLEAN for m in matches}
    n_bad = round(fraction * len(matches))
    if n_bad == 0:
        return dict(keypoints), list(matches), labels

    selector = rng_for(seed, "outlier-selection")
    chosen = selector.choice(len(matches), size=n_bad, replace=False)
    chosen = set(int(c) for c in chosen)

    new_keypoints = {k: v.copy() for k, v in keypoints.items()}
    new_matches = []
    for idx, match in enumerate(matches):
        if idx not in chosen:
            new_matches.append(match)
            continue
        i, j = match.pair
        rng = rng_for(seed, "outlier", i, j)
        if mode == MODE_RANDOM:
            rows = np.atleast_2d(np.asarray(match.indices, dtype=int))
            fake = np.column_stack([
                rng.integers(0, len(new_keypoints[i]), size=len(rows)),
                rng.integers(0, len(new_keypoints[j]), size=len(rows))])
            new_matches.append(MatchSet(match.pair, fake))
            labels[match.pair] = MODE_RANDOM
            continue
        built = _phantom_matches(scene, new_keypoints, match, rng)
        if built is None:
            new_matches.append(match)
            continue
        extra, rows = built
        new_keypoints[j] = np.vstack([new_keypoints[j], extra])
        new_matches.append(MatchSet(match.pair, rows))
        labels[match.pair] = MODE_DOPPELGANGER
    return new_keypoints, new_matches, labels
