"""Robust global bundle adjustment with staged reprojection filtering.

Optimizes camera poses (and optionally intrinsics) together with landmark
positions by Levenberg-Marquardt over Huber-weighted pixel residuals.  The
gauge is fixed by holding the first registered camera's pose constant and
renormalizing the global scale after every accepted step so the distance to
the second registered camera keeps its initial value.

An observation whose point falls behind its camera (depth below the cutoff)
contributes a constant residual of norm equal to the Huber parameter and a
zero Jacobian row, so it adds a fixed cost offset without steering the solve.

:func:`levenberg_marquardt` is the package's one Levenberg-Marquardt loop
with points eliminated by Schur complement, as in "Bundle Adjustment in the
Large" (Agarwal et al., ECCV 2010).  It has three callers.  Global BA gives
it a 6-column pose block per camera (plus 5 intrinsics columns when
optimized); the two-view refinement in :mod:`globalsfm.two_view` a 5-DOF
block for the second camera (right rotation increment, tangent-plane step of
the unit translation); the position solve in
:mod:`globalsfm.translation_averaging` 3-column position blocks, with
landmark positions as the eliminated points and camera-camera direction rows
that see no point.  Per iteration the core builds the normal equations once;
per damping attempt it solves the reduced camera system and evaluates
residuals only; the Jacobian is evaluated only at an accepted state.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse

from .errors import AllTracksFiltered
from .geometry import (
    MIN_DEPTH,
    CameraIntrinsics,
    Pose3,
    camera_point_pixel_jacobian,
    project_camera_points,
    so3_exp,
    so3_hat_batch,
    stack_intrinsics,
    take_intrinsics,
)
from .tracks import Landmark

# The damping schedule shared by every caller of levenberg_marquardt.
INITIAL_DAMPING = 1e-4
MIN_DAMPING = 1e-12
DAMPING_ATTEMPTS = 8
COST_DECREASE_TOL = 1e-9
GRADIENT_TOL = 1e-10
# Absolute stop: a cost at most this much per residual row (an RMS residual
# of 1e-10, in pixels or unit-vector units) is exact up to round-off, where
# steps only trade one rounding pattern for another.
COST_FLOOR_PER_ROW = 1e-20


@dataclass(frozen=True)
class BaConfig:
    huber_px: float = 1.345  # None disables the robust loss
    max_iterations: int = 100
    optimize_intrinsics: bool = False
    share_intrinsics: bool = True
    min_track_length: int = 3
    filter_thresholds_px: tuple = (10.0, 5.0, 3.0)

    def __post_init__(self):
        if self.huber_px is not None and self.huber_px <= 0:
            raise ValueError("huber_px must be positive or None")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be positive")
        if any(t <= 0 for t in self.filter_thresholds_px):
            raise ValueError("filter thresholds must be positive")


@dataclass(frozen=True)
class BaProblem:
    """Cameras plus triangulated landmarks ready for joint refinement.

    ``poses`` holds camera-to-world poses indexed by image id (None for
    unregistered images); every inlier observation of every landmark must
    reference a registered image.
    """

    poses: tuple
    intrinsics: tuple
    landmarks: tuple

    def __post_init__(self):
        registered = [k for k, pose in enumerate(self.poses) if pose is not None]
        if len(registered) < 1:
            raise ValueError("at least one registered camera required")
        for lm in self.landmarks:
            for slot, (image, _) in enumerate(lm.track.observations):
                if lm.inlier_mask[slot] and (image >= len(self.poses)
                                             or self.poses[image] is None):
                    raise ValueError(
                        f"landmark observation references unregistered image "
                        f"{image}")

    def registered_cameras(self) -> list:
        return [k for k, pose in enumerate(self.poses) if pose is not None]


@dataclass(frozen=True)
class BaRound:
    """Optimization statistics for one round (filter fields optional)."""

    initial_cost: float
    final_cost: float
    iterations: int
    converged: bool
    n_tracks_kept: int
    filter_threshold_px: float | None


@dataclass(frozen=True)
class BaReport:
    rounds: tuple


@dataclass(frozen=True)
class Linearization:
    """Residuals (N, R) and their Jacobian; BA's rows are pixel residuals
    (R = 2), projected minus measured.

    Rows whose ``valid`` flag is false weigh zero.  ``j_cam`` (N, R, B) holds
    each row's derivatives by the B camera parameters it touches, ``j_point``
    (N, R, 3) by its point; both are None after a residual-only evaluation.
    """

    res: np.ndarray
    valid: np.ndarray
    j_cam: np.ndarray | None = None
    j_point: np.ndarray | None = None


@dataclass(frozen=True)
class BlockStructure:
    """Reduced-system column of each ``j_cam`` entry (N, B; -1 = held fixed)
    and the point each row sees (N,; -1 = none, its ``j_point`` is ignored)."""

    cam_cols: np.ndarray
    point_idx: np.ndarray
    n_cam_params: int
    n_points: int


@dataclass(frozen=True)
class NormalEquations:
    """Weighted Gauss-Newton blocks: cameras ``u`` (P, P), points ``v``
    (L, 3, 3), coupling ``w`` (L, P, 3), gradients ``g_cam`` and ``g_pt``."""

    u: np.ndarray
    v: np.ndarray
    w: np.ndarray
    g_cam: np.ndarray
    g_pt: np.ndarray


def _robust_weights(res: np.ndarray, valid: np.ndarray, huber_px) -> np.ndarray:
    """Per-observation IRLS weights; invalid observations weigh zero."""
    if huber_px is None:
        return valid.astype(float)
    norms = np.maximum(np.linalg.norm(res, axis=1), 1e-30)
    return np.where(valid, np.minimum(1.0, huber_px / norms), 0.0)


def robust_cost(res: np.ndarray, huber_px) -> float:
    """Total (Huber) cost of residual rows; invalid rows already hold their
    constant residual."""
    norms = np.linalg.norm(res, axis=1)
    if huber_px is None:
        return float(np.sum(norms * norms))
    huber = np.where(norms <= huber_px, norms * norms,
                     huber_px * (2.0 * norms - huber_px))
    return float(np.sum(huber))


def _scatter_add(index: np.ndarray, values: np.ndarray, size: int) -> np.ndarray:
    """Sum ``values`` into a length-``size`` vector at the matching ``index``."""
    return np.bincount(index.ravel(), weights=values.ravel(), minlength=size)


def normal_equations(lin: Linearization, structure: BlockStructure,
                     huber_px) -> NormalEquations:
    """Robustly weighted normal-equation blocks of a linearization."""
    sw = np.sqrt(_robust_weights(lin.res, lin.valid, huber_px))
    jc = lin.j_cam * sw[:, None, None]
    jp = lin.j_point * sw[:, None, None]
    res_w = lin.res * sw[:, None]
    n_cam, n_pts = structure.n_cam_params, structure.n_points
    # fixed parameters and point-free rows are summed into one extra camera
    # or point slot that is then dropped
    size = n_cam + 1
    cols = np.where(structure.cam_cols < 0, n_cam, structure.cam_cols)
    pts = np.where(structure.point_idx < 0, n_pts, structure.point_idx)
    n_slots = n_pts + 1
    u = _scatter_add(cols[:, :, None] * size + cols[:, None, :],
                     np.einsum("nri,nrj->nij", jc, jc), size * size)
    g_cam = _scatter_add(cols, np.einsum("nri,nr->ni", jc, res_w), size)
    v = _scatter_add(pts[:, None] * 9 + np.arange(9),
                     np.einsum("nri,nrj->nij", jp, jp), 9 * n_slots)
    g_pt = _scatter_add(pts[:, None] * 3 + np.arange(3),
                        np.einsum("nri,nr->ni", jp, res_w), 3 * n_slots)
    w = _scatter_add((pts[:, None] * size + cols)[:, :, None] * 3 + np.arange(3),
                     np.einsum("nri,nrj->nij", jc, jp), 3 * size * n_slots)
    return NormalEquations(u.reshape(size, size)[:n_cam, :n_cam],
                           v.reshape(n_slots, 3, 3)[:n_pts],
                           w.reshape(n_slots, size, 3)[:n_pts, :n_cam],
                           g_cam[:n_cam], g_pt.reshape(n_slots, 3)[:n_pts])


def block_jacobian(lin: Linearization,
                   structure: BlockStructure) -> scipy.sparse.csr_matrix:
    """The sparse Jacobian that a linearization's blocks describe.

    Rows are the flattened residuals; columns are the ``n_cam_params``
    camera columns, then 3 per point.  Held-fixed camera entries and the
    point entries of point-free rows are left out.
    """
    n, r = lin.res.shape
    pts = structure.point_idx[:, None]
    point_cols = np.where(pts < 0, -1,
                          structure.n_cam_params + 3 * pts + np.arange(3))
    cols = np.broadcast_to(
        np.hstack([structure.cam_cols, point_cols])[:, None, :],
        (n, r, structure.cam_cols.shape[1] + 3))
    rows = np.broadcast_to(r * np.arange(n)[:, None, None]
                           + np.arange(r)[None, :, None], cols.shape)
    vals = np.concatenate([lin.j_cam, lin.j_point], axis=2)
    keep = cols >= 0
    return scipy.sparse.coo_matrix(
        (vals[keep], (rows[keep], cols[keep])),
        shape=(n * r, structure.n_cam_params + 3 * structure.n_points)).tocsr()


def reduced_camera_system(normal: NormalEquations, lam: float):
    """(S, rhs, (V + lam I)^-1) with S = U + lam I - W (V + lam I)^-1 W^T and
    rhs = -(g_cam - W (V + lam I)^-1 g_pt); LinAlgError if V + lam I is singular."""
    v_inv = np.linalg.inv(normal.v + lam * np.eye(3))
    n_cam = len(normal.g_cam)
    wv = np.einsum("lpk,lkj->lpj", normal.w, v_inv)
    s_mat = (normal.u + lam * np.eye(n_cam)
             - wv.transpose(1, 0, 2).reshape(n_cam, -1)
             @ normal.w.transpose(1, 0, 2).reshape(n_cam, -1).T)
    rhs = -(normal.g_cam - np.einsum("lpj,lj->p", wv, normal.g_pt))
    return s_mat, rhs, v_inv


def damped_step(normal: NormalEquations, lam: float):
    """One damped Gauss-Newton step (delta_cam, delta_pt), or None if singular."""
    try:
        s_mat, rhs, v_inv = reduced_camera_system(normal, lam)
        delta_cam = np.linalg.solve(s_mat, rhs)
    except np.linalg.LinAlgError:
        return None
    back = np.einsum("lpj,p->lj", normal.w, delta_cam)
    delta_pt = np.einsum("lij,lj->li", v_inv, -(normal.g_pt + back))
    return delta_cam, delta_pt


def levenberg_marquardt(state, evaluate, retract, structure: BlockStructure,
                        huber_px, max_iterations: int = 100) -> tuple:
    """Minimize the (robust) reprojection cost with points Schur-eliminated.

    ``evaluate(state, with_jacobian)`` returns a :class:`Linearization`, or
    None for a state the caller rejects (the initial state must pass);
    ``retract(state, delta_cam, delta_pt)`` returns the stepped state.  A
    step is accepted when it lowers the cost; the run stops when the
    cost is at most ``COST_FLOOR_PER_ROW`` per residual row, the gradient
    vanishes, no damping yields a descent, or the relative cost decrease
    falls below ``COST_DECREASE_TOL``.  Returns (final state, its
    Linearization with Jacobian, BaRound with the point count kept).
    """
    lin = evaluate(state, True)
    cost = initial_cost = robust_cost(lin.res, huber_px)
    cost_floor = COST_FLOOR_PER_ROW * len(lin.res)
    lam = INITIAL_DAMPING
    converged = False
    for iterations in range(1, max_iterations + 1):
        if cost <= cost_floor:
            converged = True
            break
        normal = normal_equations(lin, structure, huber_px)
        gradient = np.concatenate([normal.g_cam, normal.g_pt.ravel()])
        if np.max(np.abs(gradient), initial=0.0) < GRADIENT_TOL:
            converged = True
            break
        for _attempt in range(DAMPING_ATTEMPTS):
            step = damped_step(normal, lam)
            candidate = None if step is None else retract(state, *step)
            trial = None if candidate is None else evaluate(candidate, False)
            trial_cost = (np.inf if trial is None
                          else robust_cost(trial.res, huber_px))
            if trial_cost < cost:
                break
            lam *= 10.0
        else:
            converged = True  # no descent direction left at huge damping
            break
        state, prev_cost, cost = candidate, cost, trial_cost
        lam = max(lam * 0.1, MIN_DAMPING)
        lin = evaluate(state, True)
        if prev_cost - cost < COST_DECREASE_TOL * (prev_cost + 1e-30):
            converged = True
            break
    return state, lin, BaRound(initial_cost, cost, iterations, converged,
                               structure.n_points, None)


class _Observations:
    """Flat observation arrays gathered from the landmark inlier masks.

    ``cam_idx`` holds each observation's image id, ``cam_slot`` its
    camera's index among the registered cameras (the :class:`_State` rows).
    """

    def __init__(self, problem: BaProblem):
        cam_idx, lm_idx, uv = [], [], []
        for j, lm in enumerate(problem.landmarks):
            for slot, (image, pixel) in enumerate(lm.track.observations):
                if lm.inlier_mask[slot]:
                    cam_idx.append(image)
                    lm_idx.append(j)
                    uv.append(pixel)
        self.cam_idx = np.array(cam_idx, dtype=int)
        self.cam_slot = np.searchsorted(problem.registered_cameras(),
                                        self.cam_idx)
        self.lm_idx = np.array(lm_idx, dtype=int)
        self.uv = np.array(uv, dtype=float).reshape(-1, 2)
        self.n = len(self.cam_idx)


@dataclass
class _State:
    """Mutable copy of the optimizable parameters.

    Row k of ``rotations`` (C, 3, 3), ``centers`` (C, 3) and of the stacked
    ``intrinsics`` fields (C,) is the k-th registered camera.
    """

    rotations: np.ndarray
    centers: np.ndarray
    intrinsics: CameraIntrinsics
    points: np.ndarray

    @staticmethod
    def from_problem(problem: BaProblem) -> "_State":
        registered = problem.registered_cameras()
        rotations = np.array([problem.poses[k].rotation for k in registered])
        centers = np.array([problem.poses[k].translation for k in registered])
        intr = stack_intrinsics([problem.intrinsics[k] for k in registered])
        points = np.array([lm.point for lm in problem.landmarks],
                          dtype=float).reshape(-1, 3)
        return _State(rotations, centers, intr, points)

    def copy(self) -> "_State":
        return _State(self.rotations.copy(), self.centers.copy(),
                      self.intrinsics, self.points.copy())


def _intrinsics_jacobian(p_cam: np.ndarray, intr) -> np.ndarray:
    """d(pixel)/d(f, k1, k2, u0, v0), shape (N, 2, 5)."""
    p = np.atleast_2d(p_cam)
    z = p[:, 2]
    safe_z = np.where(np.abs(z) > MIN_DEPTH, z, 1.0)
    x = p[:, 0] / safe_z
    y = p[:, 1] / safe_z
    r2 = x * x + y * y
    factor = 1.0 + intr.k1 * r2 + intr.k2 * r2 * r2
    jac = np.zeros((len(p), 2, 5))
    jac[:, 0, 0] = x * factor
    jac[:, 1, 0] = y * factor
    jac[:, 0, 1] = intr.f * x * r2
    jac[:, 1, 1] = intr.f * y * r2
    jac[:, 0, 2] = intr.f * x * r2 * r2
    jac[:, 1, 2] = intr.f * y * r2 * r2
    jac[:, 0, 3] = 1.0
    jac[:, 1, 4] = 1.0
    return jac


def _evaluate(state: _State, obs: _Observations, config: BaConfig,
              with_jacobian: bool) -> Linearization:
    """Residuals (and block Jacobians) at the current state.

    Every observation is projected and differentiated in one stacked call,
    with its own camera's pose and intrinsics.  Residual convention:
    projected minus measured, in pixels.  Observations with depth <= cutoff
    are flagged invalid: constant residual of norm equal to the Huber
    parameter (1.0 px when the loss is disabled) and zero Jacobian blocks.
    The camera block of a row is its 6 pose columns (rotation increment,
    then center), followed by its 5 intrinsics columns when
    ``config.optimize_intrinsics`` is set.
    """
    rot = state.rotations[obs.cam_slot]
    intr = take_intrinsics(state.intrinsics, obs.cam_slot)
    p_cam = ((state.points[obs.lm_idx] - state.centers[obs.cam_slot])[:, None]
             @ rot)[:, 0]
    valid = p_cam[:, 2] > MIN_DEPTH
    const = config.huber_px if config.huber_px is not None else 1.0
    res = np.where(valid[:, None], project_camera_points(p_cam, intr) - obs.uv,
                   const / np.sqrt(2.0))
    if not with_jacobian:
        return Linearization(res, valid)
    duv_dp = camera_point_pixel_jacobian(p_cam, intr)
    duv_dp[~valid] = 0.0
    # camera-to-world pose, right-perturbed rotation: dp/dw = [p]x,
    # dp/dc = -R^T, dp/dX = R^T
    j_point = duv_dp @ rot.transpose(0, 2, 1)
    blocks = [duv_dp @ so3_hat_batch(p_cam), -j_point]
    if config.optimize_intrinsics:
        ji = _intrinsics_jacobian(p_cam, intr)
        ji[~valid] = 0.0
        blocks.append(ji)
    return Linearization(res, valid, np.concatenate(blocks, axis=2), j_point)


@dataclass(frozen=True)
class BaLayout:
    """Column layout of the full Jacobian (gauge included).

    Camera pose blocks come first (6 columns per registered camera, in image
    id order), then intrinsics blocks (5 columns each; one shared block or
    one per camera), then point blocks (3 columns per landmark).
    """

    cam_cols: dict
    intr_cols: dict
    point_cols: dict
    n_cols: int


def ba_parameter_layout(problem: BaProblem,
                        config: BaConfig = BaConfig()) -> BaLayout:
    registered = problem.registered_cameras()
    cam_cols = {cam: 6 * k for k, cam in enumerate(registered)}
    col = 6 * len(registered)
    intr_cols = {}
    if config.optimize_intrinsics:
        shared = config.share_intrinsics
        intr_cols = {cam: col + (0 if shared else 5 * k)
                     for k, cam in enumerate(registered)}
        col += 5 if shared else 5 * len(registered)
    point_cols = {j: col + 3 * j for j in range(len(problem.landmarks))}
    return BaLayout(cam_cols, intr_cols, point_cols,
                    col + 3 * len(problem.landmarks))


def _camera_columns(layout: BaLayout, obs: _Observations) -> np.ndarray:
    """(N, B) full-Jacobian column of every camera-block entry of every row."""
    blocks = [(layout.cam_cols, 6)] + ([(layout.intr_cols, 5)]
                                       if layout.intr_cols else [])
    return np.hstack([np.array([cols[c] for c in obs.cam_idx.tolist()],
                               dtype=int)[:, None] + np.arange(width)
                      for cols, width in blocks])


def ba_residuals_and_jacobian(problem: BaProblem,
                              config: BaConfig = BaConfig()):
    """Raw (unweighted) residual vector in pixels and the sparse Jacobian.

    The Jacobian covers every parameter block including the gauge camera;
    gauge handling is a solver concern.  Behind-camera observations carry
    constant residuals and all-zero rows.
    """
    obs = _Observations(problem)
    lin = _evaluate(_State.from_problem(problem), obs, config,
                    with_jacobian=True)
    layout = ba_parameter_layout(problem, config)
    n_landmarks = len(problem.landmarks)
    structure = BlockStructure(_camera_columns(layout, obs), obs.lm_idx,
                               layout.n_cols - 3 * n_landmarks, n_landmarks)
    return lin.res.ravel(), block_jacobian(lin, structure)


def _apply_step(state: _State, delta_cam, delta_pt, pose_cols: np.ndarray,
                intr_cols, gauge_dist) -> _State:
    """The state stepped by ``delta_cam`` and ``delta_pt``.

    ``pose_cols`` gives each camera's first pose column in ``delta_cam``
    (negative for the gauge camera, row 0, which stays fixed) and ``intr_cols``
    its first intrinsics column (None when intrinsics are fixed).  The
    scale is then renormalized so the distance from camera 0 to camera 1
    stays ``gauge_dist``.
    """
    new = state.copy()
    for slot, col in enumerate(pose_cols):
        if col >= 0:
            new.rotations[slot] = new.rotations[slot] @ so3_exp(
                delta_cam[col:col + 3])
            new.centers[slot] = new.centers[slot] + delta_cam[col + 3:col + 6]
    if intr_cols is not None:
        intr = new.intrinsics
        new.intrinsics = CameraIntrinsics(*(
            field + delta_cam[intr_cols + k] for k, field in
            enumerate((intr.f, intr.k1, intr.k2, intr.u0, intr.v0))))
    new.points = new.points + delta_pt

    if len(new.centers) > 1 and gauge_dist > 0.0:
        origin = new.centers[0].copy()
        current = float(np.linalg.norm(new.centers[1] - origin))
        if current > 1e-15:
            scale = gauge_dist / current
            new.centers = origin + scale * (new.centers - origin)
            new.points = origin + scale * (new.points - origin)
    return new


def _state_to_problem(problem: BaProblem, state: _State) -> BaProblem:
    poses = list(problem.poses)
    intrinsics = list(problem.intrinsics)
    intr = state.intrinsics
    for slot, cam in enumerate(problem.registered_cameras()):
        poses[cam] = Pose3(state.rotations[slot].copy(),
                           state.centers[slot].copy())
        intrinsics[cam] = CameraIntrinsics(*(
            float(field[slot])
            for field in (intr.f, intr.k1, intr.k2, intr.u0, intr.v0)))
    landmarks = tuple(
        Landmark(lm.track, state.points[j].copy(), lm.inlier_mask,
                 lm.mean_reprojection_error_px)
        for j, lm in enumerate(problem.landmarks))
    return BaProblem(tuple(poses), tuple(intrinsics), landmarks)


def run_bundle_adjustment(problem: BaProblem,
                          config: BaConfig = BaConfig()) -> tuple:
    """One Levenberg-Marquardt pass over all cameras and landmarks.

    The first registered camera is held fixed and the global scale is pinned
    to the initial distance between the first two registered cameras.
    Returns (refined problem, BaRound); a round that exhausts its iteration
    budget is flagged ``converged=False`` but still returns its best state.
    """
    obs = _Observations(problem)
    n_landmarks = len(problem.landmarks)
    if obs.n == 0:
        return problem, BaRound(0.0, 0.0, 0, True, n_landmarks, None)

    state = _State.from_problem(problem)
    registered = problem.registered_cameras()
    gauge_dist = (float(np.linalg.norm(state.centers[1] - state.centers[0]))
                  if len(registered) > 1 else 0.0)

    # The reduced system takes the layout's camera and intrinsics columns
    # without the gauge camera's pose block, which the layout puts first.
    layout = ba_parameter_layout(problem, config)
    pose_cols = np.array([layout.cam_cols[cam] - 6 for cam in registered])
    intr_cols = (np.array([layout.intr_cols[cam] - 6 for cam in registered])
                 if layout.intr_cols else None)
    cam_cols = np.maximum(_camera_columns(layout, obs) - 6, -1)
    structure = BlockStructure(cam_cols, obs.lm_idx,
                               layout.n_cols - 3 * n_landmarks - 6, n_landmarks)
    state, _, round_report = levenberg_marquardt(
        state,
        lambda s, with_jacobian: _evaluate(s, obs, config, with_jacobian),
        lambda s, delta_cam, delta_pt: _apply_step(
            s, delta_cam, delta_pt, pose_cols, intr_cols, gauge_dist),
        structure, config.huber_px, config.max_iterations)
    return _state_to_problem(problem, state), round_report


def landmark_reprojection_errors(problem: BaProblem) -> list:
    """Per-landmark inlier pixel errors: the residual norms BA minimizes.

    An observation behind its camera (depth at or below the cutoff) reads
    np.inf.  Returns one array per landmark, in observation order.
    """
    obs = _Observations(problem)
    lin = _evaluate(_State.from_problem(problem), obs, BaConfig(),
                    with_jacobian=False)
    errors = np.where(lin.valid, np.linalg.norm(lin.res, axis=1), np.inf)
    ends = np.cumsum(np.bincount(obs.lm_idx,
                                 minlength=len(problem.landmarks)))
    return np.split(errors, ends)[:-1]


def filter_tracks(problem: BaProblem, threshold_px: float,
                  min_track_length: int = 3) -> BaProblem:
    """Drop landmarks whose worst inlier reprojection error exceeds the threshold.

    Landmarks with fewer inlier observations than the minimum track length
    are dropped as well.  A kept landmark's ``mean_reprojection_error_px``
    is set to the mean of the errors it was judged on.  Raises
    AllTracksFiltered when nothing survives.
    """
    if threshold_px <= 0:
        raise ValueError("threshold must be positive")
    kept = []
    for lm, errors in zip(problem.landmarks,
                          landmark_reprojection_errors(problem)):
        if len(errors) < min_track_length:
            continue
        if float(np.max(errors)) > threshold_px:
            continue
        kept.append(replace(lm, mean_reprojection_error_px=float(
            np.mean(errors))))
    if not kept:
        raise AllTracksFiltered(
            f"no landmark survived the {threshold_px} px filter")
    return BaProblem(problem.poses, problem.intrinsics, tuple(kept))


def three_round_ba(problem: BaProblem, config: BaConfig = BaConfig()) -> tuple:
    """Alternating optimize/filter rounds at the staged pixel thresholds.

    Returns (final problem, BaReport).  Each round runs a full LM pass and
    then removes landmarks exceeding that round's reprojection threshold.
    """
    rounds = []
    current = problem
    for threshold in config.filter_thresholds_px:
        current, round_report = run_bundle_adjustment(current, config)
        current = filter_tracks(current, threshold, config.min_track_length)
        rounds.append(replace(round_report,
                              n_tracks_kept=len(current.landmarks),
                              filter_threshold_px=float(threshold)))
    return current, BaReport(tuple(rounds))
