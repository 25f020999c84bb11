"""Rotation / pose / similarity-transform algebra and the pinhole + radial camera model.

Conventions used throughout the package:

* Rotations are plain 3x3 orthonormal numpy arrays with det +1.
* ``Pose3`` stores a camera-to-world transform: ``rotation`` maps camera-frame
  vectors to world-frame vectors and ``translation`` is the camera center in
  world coordinates.
* Angles are radians internally; reporting helpers return degrees.
* The camera model is a single focal length, two radial distortion
  coefficients and a principal point.  Distortion is applied to normalized
  camera coordinates before focal scaling:
  ``(x', y') = (1 + k1*r^2 + k2*r^4) * (x, y)`` with ``r^2 = x^2 + y^2``, then
  ``u = f*x' + u0``, ``v = f*y' + v0``.  :func:`project_camera_points` is
  the only implementation of this map; every projection goes through it.
* The camera kernels (:func:`distort`, :func:`undistort`,
  :func:`project_camera_points`, :func:`pixel_to_normalized`) also take
  stacked intrinsics, whose fields are arrays: a field of shape S applies
  elementwise over the leading axes of their (..., 2|3) input, which S must
  broadcast against.  :func:`stack_intrinsics` builds the (V,) form for V
  views along the axis just before the coordinate axis; (N,) fields give
  N observations their own cameras, (T, 1, V) fields T tracks of V views
  scored at any number of points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateError, ZeroVector

MIN_DEPTH = 1e-9
_ROTATION_TOL = 1e-9


def solve_each(a: np.ndarray, b: np.ndarray) -> tuple:
    """``np.linalg.solve`` over a stack ``a`` (S, n, n), ``b`` (S, n, k);
    when a singular system makes the stack raise, each is solved alone.
    Returns (solutions, singular (S,)), a singular system's solution 0."""
    singular = np.zeros(len(a), dtype=bool)
    try:
        return np.linalg.solve(a, b), singular
    except np.linalg.LinAlgError:
        out = np.zeros(b.shape)
        for k in range(len(a)):
            try:
                out[k] = np.linalg.solve(a[k], b[k])
            except np.linalg.LinAlgError:
                singular[k] = True
        return out, singular


def so3_hat(omega: np.ndarray) -> np.ndarray:
    """Skew-symmetric matrix such that ``so3_hat(w) @ v == cross(w, v)``."""
    wx, wy, wz = omega
    return np.array([[0.0, -wz, wy], [wz, 0.0, -wx], [-wy, wx, 0.0]])


def so3_hat_batch(vectors: np.ndarray) -> np.ndarray:
    """Skew-symmetric matrices of an (N, 3) array, shape (N, 3, 3)."""
    vectors = np.atleast_2d(vectors)
    out = np.zeros((len(vectors), 9))
    # row-major entries of [[0, -z, y], [z, 0, -x], [-y, x, 0]]
    out[:, [7, 2, 3]] = vectors
    out[:, [5, 6, 1]] = -vectors
    return out.reshape(-1, 3, 3)


def so3_exp(omega: np.ndarray) -> np.ndarray:
    """Rodrigues exponential map from an axis-angle vector to a rotation matrix.

    Args:
        omega: length-3 axis-angle vector, radians.

    Returns:
        3x3 rotation matrix.  ``so3_log(so3_exp(w)) == w`` for ``|w| < pi``.
    """
    omega = np.asarray(omega, dtype=float)
    theta2 = float(omega @ omega)
    k = so3_hat(omega)
    if theta2 < 1e-16:
        # 2nd-order series; error O(theta^4) stays below double roundoff here
        return np.eye(3) + k + 0.5 * (k @ k)
    theta = math.sqrt(theta2)
    return np.eye(3) + (math.sin(theta) / theta) * k + ((1.0 - math.cos(theta)) / theta2) * (k @ k)


def so3_exp_batch(omegas: np.ndarray) -> np.ndarray:
    """:func:`so3_exp` of every row of an (N, 3) array, shape (N, 3, 3)."""
    omegas = np.atleast_2d(np.asarray(omegas, dtype=float))
    theta2 = np.einsum("ni,ni->n", omegas, omegas)
    small = theta2 < 1e-16
    theta2 = np.where(small, 1.0, theta2)
    theta = np.sqrt(theta2)
    a = np.where(small, 1.0, np.sin(theta) / theta)
    b = np.where(small, 0.5, (1.0 - np.cos(theta)) / theta2)
    k = so3_hat_batch(omegas)
    return np.eye(3) + a[:, None, None] * k + b[:, None, None] * (k @ k)


def so3_log(rotation: np.ndarray) -> np.ndarray:
    """Logarithmic map: rotation matrix to axis-angle vector (radians).

    Stable near both the identity and the pi-rotation boundary.
    """
    r = np.asarray(rotation, dtype=float)
    cos_theta = min(1.0, max(-1.0, (np.trace(r) - 1.0) * 0.5))
    theta = math.acos(cos_theta)
    skew_part = np.array([r[2, 1] - r[1, 2], r[0, 2] - r[2, 0], r[1, 0] - r[0, 1]])
    if theta < 1e-7:
        # log(R) ~ (R - R^T)/2 for small angles
        return 0.5 * skew_part
    if math.pi - theta < 1e-5:
        # near pi the skew part vanishes; recover the axis from R + I
        m = r + np.eye(3)
        axis = m[:, int(np.argmax(np.diag(m)))]
        axis = axis / np.linalg.norm(axis)
        # fix the sign using the (possibly tiny) skew part
        if axis @ skew_part < 0.0:
            axis = -axis
        return theta * axis
    return (0.5 * theta / math.sin(theta)) * skew_part


def project_to_so3(m: np.ndarray) -> np.ndarray:
    """Closest rotation matrix (Frobenius) to an arbitrary 3x3 matrix."""
    u, _, vt = np.linalg.svd(m)
    d = np.sign(np.linalg.det(u @ vt))
    return u @ np.diag([1.0, 1.0, d]) @ vt


def is_rotation(m: np.ndarray, tol: float = _ROTATION_TOL) -> bool:
    m = np.asarray(m, dtype=float)
    if m.shape != (3, 3):
        return False
    return bool(
        np.max(np.abs(m @ m.T - np.eye(3))) <= tol and abs(np.linalg.det(m) - 1.0) <= tol
    )


def random_rotation(rng: np.random.Generator, max_angle_rad: float = math.pi) -> np.ndarray:
    """Random rotation with angle uniform in (0, max_angle_rad] and uniform axis."""
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    angle = rng.uniform(0.0, max_angle_rad)
    return so3_exp(axis * angle)


def rotation_angular_error(a: np.ndarray, b: np.ndarray) -> float:
    """Geodesic angle between two rotations, in degrees.

    Equals ``|log(a^T b)|`` and is symmetric and bi-invariant.
    """
    return math.degrees(np.linalg.norm(so3_log(np.asarray(a).T @ np.asarray(b))))


def direction_angular_error(a: np.ndarray, b: np.ndarray) -> float:
    """Angle between two nonzero 3-vectors, in degrees, in [0, 180].

    Raises:
        ZeroVector: if either argument has norm below 1e-12.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    na = np.linalg.norm(a)
    nb = np.linalg.norm(b)
    if na < 1e-12 or nb < 1e-12:
        raise ZeroVector("direction undefined for (near-)zero vector")
    # atan2 formulation stays accurate near 0 and 180 degrees, where the
    # arccos of the normalized dot product loses half the precision
    return math.degrees(math.atan2(float(np.linalg.norm(np.cross(a, b))),
                                   float(a @ b)))


def normalized(v: np.ndarray) -> np.ndarray:
    """Unit vector along ``v``; raises ZeroVector below 1e-12 norm."""
    v = np.asarray(v, dtype=float)
    n = np.linalg.norm(v)
    if n < 1e-12:
        raise ZeroVector("cannot normalize (near-)zero vector")
    return v / n


@dataclass(frozen=True)
class Pose3:
    """Rigid transform; as a camera pose it is camera-to-world.

    ``rotation`` is a 3x3 matrix, ``translation`` the camera center in world
    coordinates (scene units).
    """

    rotation: np.ndarray
    translation: np.ndarray

    @staticmethod
    def identity() -> "Pose3":
        return Pose3(np.eye(3), np.zeros(3))

    def compose(self, other: "Pose3") -> "Pose3":
        """Transform composition: ``(self * other)(p) = self(other(p))``."""
        return Pose3(self.rotation @ other.rotation,
                     self.rotation @ other.translation + self.translation)

    def inverse(self) -> "Pose3":
        rt = self.rotation.T
        return Pose3(rt, -rt @ self.translation)

    def transform(self, points: np.ndarray) -> np.ndarray:
        """Apply to one point (3,) or many points (N, 3)."""
        p = np.asarray(points, dtype=float)
        return p @ self.rotation.T + self.translation

    @property
    def center(self) -> np.ndarray:
        """Camera center in world coordinates (alias for ``translation``)."""
        return self.translation

    def world_to_camera(self) -> "Pose3":
        """The inverse transform, mapping world points into the camera frame."""
        return self.inverse()


def relative_pose(pose_i: Pose3, pose_j: Pose3) -> Pose3:
    """Transform mapping camera-i frame coordinates into the camera-j frame.

    For camera-to-world poses this is ``pose_j^-1 * pose_i``; its translation
    is the position of camera i's center expressed in camera j's frame.
    """
    return pose_j.inverse().compose(pose_i)


@dataclass(frozen=True)
class Sim3:
    """Similarity transform acting on points as ``s * R @ p + t``."""

    rotation: np.ndarray
    translation: np.ndarray
    scale: float

    def __post_init__(self):
        if self.scale <= 0.0:
            raise DegenerateError("Sim3 scale must be positive")

    @staticmethod
    def identity() -> "Sim3":
        return Sim3(np.eye(3), np.zeros(3), 1.0)

    def transform(self, points: np.ndarray) -> np.ndarray:
        p = np.asarray(points, dtype=float)
        return self.scale * (p @ self.rotation.T) + self.translation

    def compose(self, other: "Sim3") -> "Sim3":
        return Sim3(self.rotation @ other.rotation,
                    self.scale * (self.rotation @ other.translation) + self.translation,
                    self.scale * other.scale)

    def inverse(self) -> "Sim3":
        rt = self.rotation.T
        inv_s = 1.0 / self.scale
        return Sim3(rt, -inv_s * (rt @ self.translation), inv_s)

    def transform_pose(self, pose: Pose3) -> Pose3:
        """Apply to a camera-to-world pose: rotation composes, center maps as a point."""
        return Pose3(self.rotation @ pose.rotation, self.transform(pose.translation))


@dataclass(frozen=True)
class CameraIntrinsics:
    """Single focal length, two radial distortion coefficients, principal point (px).

    :func:`stack_intrinsics` fills the fields with (V,) arrays, one entry
    per view, for the camera kernels below.
    """

    f: float
    k1: float = 0.0
    k2: float = 0.0
    u0: float = 0.0
    v0: float = 0.0

    def __post_init__(self):
        if np.any(np.asarray(self.f) <= 0.0):
            raise DegenerateError("focal length must be positive")


def stack_intrinsics(intrinsics) -> CameraIntrinsics:
    """The intrinsics of V views as one CameraIntrinsics of (V,) arrays."""
    table = np.array([[c.f, c.k1, c.k2, c.u0, c.v0] for c in intrinsics])
    return CameraIntrinsics(*table.T)


def take_intrinsics(intr: CameraIntrinsics, index) -> CameraIntrinsics:
    """Stacked intrinsics gathered along their first axis: ``field[index]``."""
    return CameraIntrinsics(*(np.asarray(field)[index] for field in
                              (intr.f, intr.k1, intr.k2, intr.u0, intr.v0)))


def _per_view(value):
    """A one-camera parameter as is; a stacked one with a trailing unit axis."""
    return value if np.ndim(value) == 0 else value[..., None]


def distort(intr: CameraIntrinsics, xy: np.ndarray) -> np.ndarray:
    """Apply the radial polynomial to normalized coordinates (..., 2)."""
    xy = np.asarray(xy, dtype=float)
    r2 = np.sum(xy * xy, axis=-1, keepdims=True)
    return xy * (1.0 + _per_view(intr.k1) * r2 + _per_view(intr.k2) * r2 * r2)


def undistort(intr: CameraIntrinsics, xy_distorted: np.ndarray,
              iterations: int = 50, tol: float = 1e-12) -> np.ndarray:
    """Invert the radial polynomial by fixed-point iteration.

    Each row (point) stops at the first iterate that moves it by less than
    ``tol`` in both coordinates and keeps that iterate, so its result does
    not depend on the rows that share the call.  Only measurement-to-ray
    conversion (RANSAC / DLT) needs this; reprojection residuals are always
    evaluated in distorted pixel space.
    """
    xd = np.asarray(xy_distorted, dtype=float)
    if not (np.any(intr.k1) or np.any(intr.k2)):
        return xd.copy()
    k1, k2 = _per_view(intr.k1), _per_view(intr.k2)
    x = xd.copy()
    moving = np.ones(xd.shape[:-1] + (1,), dtype=bool)
    for _ in range(iterations):
        # the columns written out: a sum over an axis of 2 costs more
        sq = x * x
        r2 = sq[..., :1] + sq[..., 1:]
        x_new = xd / (1.0 + k1 * r2 + k2 * r2 * r2)
        step = np.abs(x_new - x)
        np.copyto(x, x_new, where=moving)
        moving &= np.maximum(step[..., :1], step[..., 1:]) >= tol
        if not moving.any():
            break
    return x


def project_points(points_world: np.ndarray, pose: Pose3,
                   intr: CameraIntrinsics) -> tuple[np.ndarray, np.ndarray]:
    """Project (N, 3) world points through a camera.

    Returns:
        (uv, depths): (N, 2) pixel coordinates and (N,) camera-frame depths.
        Rows with depth <= 1e-9 hold garbage pixels; callers must mask on depth.
    """
    pts = np.atleast_2d(np.asarray(points_world, dtype=float))
    p_cam = (pts - pose.translation) @ pose.rotation
    return project_camera_points(p_cam, intr), p_cam[:, 2]


def project_camera_points(p_cam: np.ndarray, intr: CameraIntrinsics) -> np.ndarray:
    """Pixel coordinates of (N, 3) points already in the camera frame.

    With stacked intrinsics ``p_cam`` is (..., V, 3) and the result
    (..., V, 2).  No depth check; callers mask on ``p_cam[..., 2]``
    themselves.
    """
    p = np.atleast_2d(np.asarray(p_cam, dtype=float))
    z = p[..., 2]
    safe_z = np.where(np.abs(z) > MIN_DEPTH, z, 1.0)
    xy = p[..., :2] / safe_z[..., None]
    return distort(intr, xy) * _per_view(intr.f) + _principal_point(intr)


def _principal_point(intr: CameraIntrinsics) -> np.ndarray:
    """(2,) for one camera, (..., 2) for stacked intrinsics."""
    return np.stack([intr.u0, intr.v0], axis=-1)


def camera_point_pixel_jacobian(p_cam: np.ndarray, intr: CameraIntrinsics) -> np.ndarray:
    """d(pixel)/d(camera-frame point), shape (N, 2, 3), for points with depth > 0.

    Stacked intrinsics with (N,) fields give each point its own camera.
    """
    p = np.atleast_2d(np.asarray(p_cam, dtype=float))
    n = len(p)
    z = p[:, 2]
    safe_z = np.where(np.abs(z) > MIN_DEPTH, z, 1.0)
    x = p[:, 0] / safe_z
    y = p[:, 1] / safe_z
    r2 = x * x + y * y
    d = 1.0 + intr.k1 * r2 + intr.k2 * r2 * r2
    dd = intr.k1 + 2.0 * intr.k2 * r2  # derivative of d with respect to r^2

    # pixel wrt normalized coordinates
    a = np.empty((n, 2, 2))
    a[:, 0, 0] = intr.f * (d + 2.0 * x * x * dd)
    a[:, 0, 1] = intr.f * (2.0 * x * y * dd)
    a[:, 1, 0] = a[:, 0, 1]
    a[:, 1, 1] = intr.f * (d + 2.0 * y * y * dd)

    # normalized coordinates wrt camera-frame point
    b = np.zeros((n, 2, 3))
    inv_z = 1.0 / safe_z
    b[:, 0, 0] = inv_z
    b[:, 0, 2] = -x * inv_z
    b[:, 1, 1] = inv_z
    b[:, 1, 2] = -y * inv_z
    return a @ b


def pixel_to_normalized(uv: np.ndarray, intr: CameraIntrinsics) -> np.ndarray:
    """Pixel measurements (..., 2) to undistorted normalized camera coordinates."""
    uv = np.asarray(uv, dtype=float)
    xy_d = (uv - _principal_point(intr)) / _per_view(intr.f)
    return undistort(intr, xy_d)


def karcher_mean_rotation(rotations: list[np.ndarray], max_iters: int = 100,
                          tol: float = 1e-10) -> np.ndarray:
    """Intrinsic (Karcher) mean of rotations by fixed-step gradient descent.

    Iterates ``M <- M exp(mean_i log(M^T R_i))`` with unit step until the mean
    tangent update has norm below ``tol`` or ``max_iters`` is reached.
    """
    if not rotations:
        raise DegenerateError("need at least one rotation")
    mean = np.asarray(rotations[0], dtype=float).copy()
    for _ in range(max_iters):
        tangent = np.zeros(3)
        for r in rotations:
            tangent += so3_log(mean.T @ r)
        tangent /= len(rotations)
        if np.linalg.norm(tangent) < tol:
            break
        mean = mean @ so3_exp(tangent)
    return project_to_so3(mean)


def sim3_align(estimated: list[Pose3], reference: list[Pose3]) -> Sim3:
    """Similarity transform mapping estimated poses onto reference poses.

    The rotation is the Karcher mean of the per-camera relative rotations
    ``R_ref R_est^T``; scale and translation follow from the centroid-based
    closed form over camera centers with that rotation held fixed.

    Args:
        estimated: camera-to-world poses to be aligned.
        reference: camera-to-world poses to align to, same length and order.

    Returns:
        Sim3 ``T`` such that ``T.transform_pose(estimated[i]) ~ reference[i]``.

    Raises:
        DegenerateError: fewer than 2 pose pairs, or all estimated centers
            coincide (scale unobservable).
    """
    if len(estimated) != len(reference):
        raise DegenerateError("pose lists must have equal length")
    if len(estimated) < 2:
        raise DegenerateError("need at least 2 pose pairs")

    rot = karcher_mean_rotation([ref.rotation @ est.rotation.T
                                 for est, ref in zip(estimated, reference)])

    est_centers = np.array([p.translation for p in estimated])
    ref_centers = np.array([p.translation for p in reference])
    est_mean = est_centers.mean(axis=0)
    ref_mean = ref_centers.mean(axis=0)
    est_c = est_centers - est_mean
    ref_c = ref_centers - ref_mean

    denom = float(np.sum(est_c * est_c))
    if denom < 1e-18:
        raise DegenerateError("all estimated centers coincide; scale unobservable")
    scale = float(np.sum(ref_c * (est_c @ rot.T))) / denom
    if scale <= 0.0:
        raise DegenerateError("alignment produced non-positive scale")
    translation = ref_mean - scale * (rot @ est_mean)
    return Sim3(rot, translation, scale)
