"""Robust global bundle adjustment with staged reprojection filtering.

Optimizes camera poses (and optionally intrinsics) together with landmark
positions by Levenberg-Marquardt over Huber-weighted pixel residuals.  Points
are eliminated through the Schur complement.  The gauge is fixed by holding
the first registered camera's pose constant and renormalizing the global
scale after every accepted step so the distance to the second registered
camera keeps its initial value.

An observation whose point falls behind its camera (depth below the cutoff)
contributes a constant residual of norm equal to the Huber parameter and a
zero Jacobian row, so it adds a fixed cost offset without steering the solve.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse

from .errors import AllTracksFiltered
from .geometry import (
    MIN_DEPTH,
    Pose3,
    camera_point_pixel_jacobian,
    project_camera_points,
    so3_exp,
)
from .tracks import Landmark


@dataclass(frozen=True)
class BaConfig:
    huber_px: float = 1.345  # None disables the robust loss
    max_iterations: int = 100
    initial_damping: float = 1e-4
    cost_decrease_tol: float = 1e-9
    gradient_tol: float = 1e-10
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


class _Observations:
    """Flat observation arrays gathered from the landmark inlier masks."""

    def __init__(self, problem: BaProblem):
        cam_idx, lm_idx, uv = [], [], []
        for j, lm in enumerate(problem.landmarks):
            for slot, (image, pixel) in enumerate(lm.track.observations):
                if lm.inlier_mask[slot]:
                    cam_idx.append(image)
                    lm_idx.append(j)
                    uv.append(pixel)
        self.cam_idx = np.array(cam_idx, dtype=int)
        self.lm_idx = np.array(lm_idx, dtype=int)
        self.uv = np.array(uv, dtype=float).reshape(-1, 2)
        self.n = len(self.cam_idx)


@dataclass
class _State:
    """Mutable copy of the optimizable parameters."""

    rotations: dict
    centers: dict
    intrinsics: dict
    points: np.ndarray

    @staticmethod
    def from_problem(problem: BaProblem) -> "_State":
        rotations = {k: problem.poses[k].rotation.copy()
                     for k in problem.registered_cameras()}
        centers = {k: problem.poses[k].translation.copy()
                   for k in problem.registered_cameras()}
        intr = {k: problem.intrinsics[k] for k in problem.registered_cameras()}
        points = np.array([lm.point for lm in problem.landmarks],
                          dtype=float).reshape(-1, 3)
        return _State(rotations, centers, intr, points)

    def copy(self) -> "_State":
        return _State({k: v.copy() for k, v in self.rotations.items()},
                      {k: v.copy() for k, v in self.centers.items()},
                      dict(self.intrinsics),
                      self.points.copy())


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
              with_jacobian: bool):
    """Residuals (and block Jacobians) at the current state.

    Residual convention: projected minus measured, in pixels.  Observations
    with depth <= cutoff are flagged invalid: constant residual of norm equal
    to the Huber parameter (1.0 px when the loss is disabled) and zero
    Jacobian blocks.

    Returns:
        dict with res (N, 2), valid (N,), and when requested j_pose (N, 2, 6),
        j_point (N, 2, 3), j_intr (N, 2, 5).
    """
    n = obs.n
    res = np.zeros((n, 2))
    valid = np.zeros(n, dtype=bool)
    j_pose = np.zeros((n, 2, 6)) if with_jacobian else None
    j_point = np.zeros((n, 2, 3)) if with_jacobian else None
    j_intr = np.zeros((n, 2, 5)) if with_jacobian else None

    const = config.huber_px if config.huber_px is not None else 1.0
    for cam in sorted(set(obs.cam_idx.tolist())):
        sel = np.nonzero(obs.cam_idx == cam)[0]
        rot = state.rotations[cam]
        center = state.centers[cam]
        intr = state.intrinsics[cam]
        p_cam = (state.points[obs.lm_idx[sel]] - center) @ rot
        ok = p_cam[:, 2] > MIN_DEPTH
        valid[sel] = ok
        uv_proj = project_camera_points(p_cam, intr)
        res[sel] = np.where(ok[:, None], uv_proj - obs.uv[sel],
                            const / np.sqrt(2.0))
        if not with_jacobian:
            continue
        duv_dp = camera_point_pixel_jacobian(p_cam, intr)
        duv_dp[~ok] = 0.0
        # camera-to-world pose, right-perturbed rotation: dp/dw = [p]x,
        # dp/dc = -R^T, dp/dX = R^T
        hats = np.zeros((len(sel), 3, 3))
        px, py, pz = p_cam[:, 0], p_cam[:, 1], p_cam[:, 2]
        hats[:, 0, 1] = -pz
        hats[:, 0, 2] = py
        hats[:, 1, 0] = pz
        hats[:, 1, 2] = -px
        hats[:, 2, 0] = -py
        hats[:, 2, 1] = px
        j_pose[sel, :, :3] = np.einsum("nij,njk->nik", duv_dp, hats)
        j_pose[sel, :, 3:] = duv_dp @ (-rot.T)
        j_point[sel] = duv_dp @ rot.T
        ji = _intrinsics_jacobian(p_cam, intr)
        ji[~ok] = 0.0
        j_intr[sel] = ji

    out = {"res": res, "valid": valid}
    if with_jacobian:
        out.update(j_pose=j_pose, j_point=j_point, j_intr=j_intr)
    return out


def _robust_weights(res: np.ndarray, valid: np.ndarray, huber_px) -> np.ndarray:
    """Per-observation IRLS weights; invalid observations weigh zero."""
    norms = np.linalg.norm(res, axis=1)
    if huber_px is None:
        w = np.ones(len(res))
    else:
        safe = np.maximum(norms, 1e-30)
        w = np.where(norms <= huber_px, 1.0, huber_px / safe)
    return np.where(valid, w, 0.0)


def _cost(res: np.ndarray, huber_px) -> float:
    """Total robust cost; behind-camera rows already hold their constant residual."""
    norms = np.linalg.norm(res, axis=1)
    if huber_px is None:
        return float(np.sum(norms * norms))
    huber = np.where(norms <= huber_px, norms * norms,
                     huber_px * (2.0 * norms - huber_px))
    return float(np.sum(huber))


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
    cam_cols = {}
    col = 0
    for cam in problem.registered_cameras():
        cam_cols[cam] = col
        col += 6
    intr_cols = {}
    if config.optimize_intrinsics:
        if config.share_intrinsics:
            shared = col
            col += 5
            intr_cols = {cam: shared for cam in problem.registered_cameras()}
        else:
            for cam in problem.registered_cameras():
                intr_cols[cam] = col
                col += 5
    point_cols = {}
    for j in range(len(problem.landmarks)):
        point_cols[j] = col
        col += 3
    return BaLayout(cam_cols, intr_cols, point_cols, col)


def ba_residuals_and_jacobian(problem: BaProblem,
                              config: BaConfig = BaConfig()):
    """Raw (unweighted) residual vector in pixels and the sparse Jacobian.

    The Jacobian covers every parameter block including the gauge camera;
    gauge handling is a solver concern.  Behind-camera observations carry
    constant residuals and all-zero rows.
    """
    obs = _Observations(problem)
    state = _State.from_problem(problem)
    ev = _evaluate(state, obs, config, with_jacobian=True)
    layout = ba_parameter_layout(problem, config)

    rows, cols, vals = [], [], []

    def add_block(obs_k, col0, block):
        for r in range(2):
            for c in range(block.shape[1]):
                rows.append(2 * obs_k + r)
                cols.append(col0 + c)
                vals.append(block[r, c])

    for k in range(obs.n):
        add_block(k, layout.cam_cols[obs.cam_idx[k]], ev["j_pose"][k])
        if config.optimize_intrinsics:
            add_block(k, layout.intr_cols[obs.cam_idx[k]], ev["j_intr"][k])
        add_block(k, layout.point_cols[obs.lm_idx[k]], ev["j_point"][k])

    jac = scipy.sparse.coo_matrix(
        (vals, (rows, cols)), shape=(2 * obs.n, layout.n_cols)).tocsr()
    return ev["res"].ravel(), jac


def _solve_schur(ev, obs, weights, cam_slots, intr_slots, n_cam_params,
                 n_landmarks, lam):
    """One damped normal-equations solve with points eliminated.

    Returns (delta_cam_params, delta_points, gradient_inf_norm) or None when
    the reduced system is singular.
    """
    w = weights
    sw = np.sqrt(w)[:, None, None]
    j_cam_full = np.zeros((obs.n, 2, n_cam_params))
    # scatter pose blocks (and optional intrinsics blocks) into camera rows
    for cam, slot in cam_slots.items():
        sel = obs.cam_idx == cam
        j_cam_full[sel, :, slot:slot + 6] = ev["j_pose"][sel]
    for cam, slot in intr_slots.items():
        sel = obs.cam_idx == cam
        j_cam_full[sel, :, slot:slot + 5] += ev["j_intr"][sel]
    jc = j_cam_full * sw
    jp = ev["j_point"] * sw
    res_w = ev["res"] * np.sqrt(w)[:, None]

    jc_rows = jc.reshape(-1, n_cam_params)
    u_mat = jc_rows.T @ jc_rows
    g_cam = jc_rows.T @ res_w.ravel()
    v_blocks = np.zeros((n_landmarks, 3, 3))
    g_pt = np.zeros((n_landmarks, 3))
    np.add.at(v_blocks, obs.lm_idx, np.einsum("nri,nrj->nij", jp, jp))
    np.add.at(g_pt, obs.lm_idx, np.einsum("nri,nr->ni", jp, res_w))
    # camera-point coupling blocks, scattered per landmark
    w_by_lm = np.zeros((n_landmarks, n_cam_params, 3))
    np.add.at(w_by_lm, obs.lm_idx, np.einsum("nri,nrj->nij", jc, jp))
    w_mat = w_by_lm.transpose(1, 0, 2)

    grad_inf = max(float(np.max(np.abs(g_cam))) if len(g_cam) else 0.0,
                   float(np.max(np.abs(g_pt))) if n_landmarks else 0.0)

    v_damped = v_blocks + lam * np.eye(3)[None]
    try:
        v_inv = np.linalg.inv(v_damped)
    except np.linalg.LinAlgError:
        return None
    # S = U - W V^-1 W^T ; rhs = -(g_cam - W V^-1 g_pt)
    wv = np.einsum("alk,lkj->alj", w_mat, v_inv)
    s_mat = u_mat + lam * np.eye(n_cam_params) \
        - wv.reshape(n_cam_params, -1) @ w_mat.reshape(n_cam_params, -1).T
    rhs = -(g_cam - np.einsum("alj,lj->a", wv, g_pt))
    try:
        delta_cam = np.linalg.solve(s_mat, rhs)
    except np.linalg.LinAlgError:
        return None
    back = np.einsum("alj,a->lj", w_mat, delta_cam)
    delta_pt = np.einsum("lij,lj->li", v_inv, -(g_pt + back))
    return delta_cam, delta_pt, grad_inf


def _apply_step(state: _State, delta_cam, delta_pt, cam_slots, intr_slots,
                gauge_cam, second_cam, gauge_dist) -> _State:
    new = state.copy()
    for cam, slot in cam_slots.items():
        omega = delta_cam[slot:slot + 3]
        dc = delta_cam[slot + 3:slot + 6]
        new.rotations[cam] = new.rotations[cam] @ so3_exp(omega)
        new.centers[cam] = new.centers[cam] + dc
    for cam, slot in sorted(intr_slots.items()):
        d = delta_cam[slot:slot + 5]
        intr = new.intrinsics[cam]
        new.intrinsics[cam] = replace(intr, f=intr.f + d[0],
                                      k1=intr.k1 + d[1], k2=intr.k2 + d[2],
                                      u0=intr.u0 + d[3], v0=intr.v0 + d[4])
    new.points = new.points + delta_pt

    if second_cam is not None and gauge_dist > 0.0:
        origin = new.centers[gauge_cam]
        current = float(np.linalg.norm(new.centers[second_cam] - origin))
        if current > 1e-15:
            scale = gauge_dist / current
            for cam in new.centers:
                new.centers[cam] = origin + scale * (new.centers[cam] - origin)
            new.points = origin + scale * (new.points - origin)
    return new


def _state_to_problem(problem: BaProblem, state: _State) -> BaProblem:
    poses = list(problem.poses)
    intrinsics = list(problem.intrinsics)
    for cam in state.rotations:
        poses[cam] = Pose3(state.rotations[cam], state.centers[cam])
        intrinsics[cam] = state.intrinsics[cam]
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
    state = _State.from_problem(problem)
    registered = problem.registered_cameras()
    gauge_cam = registered[0]
    second_cam = registered[1] if len(registered) > 1 else None
    gauge_dist = (float(np.linalg.norm(state.centers[second_cam]
                                       - state.centers[gauge_cam]))
                  if second_cam is not None else 0.0)

    cam_slots = {}
    col = 0
    for cam in registered:
        if cam == gauge_cam:
            continue
        cam_slots[cam] = col
        col += 6
    intr_slots = {}
    if config.optimize_intrinsics:
        if config.share_intrinsics:
            shared_col = col
            col += 5
            intr_slots = {cam: shared_col for cam in registered}
        else:
            for cam in registered:
                intr_slots[cam] = col
                col += 5
    n_cam_params = col
    n_landmarks = len(problem.landmarks)

    if obs.n == 0:
        round_report = BaRound(0.0, 0.0, 0, True, n_landmarks, None)
        return problem, round_report

    ev = _evaluate(state, obs, config, with_jacobian=True)
    cost = _cost(ev["res"], config.huber_px)
    initial_cost = cost
    lam = config.initial_damping
    iterations = 0
    converged = False

    for _ in range(config.max_iterations):
        weights = _robust_weights(ev["res"], ev["valid"], config.huber_px)
        accepted = False
        for _attempt in range(12):
            solved = _solve_schur(ev, obs, weights, cam_slots, intr_slots,
                                  n_cam_params, n_landmarks, lam)
            if solved is None:
                lam *= 10.0
                continue
            delta_cam, delta_pt, grad_inf = solved
            if grad_inf < config.gradient_tol:
                converged = True
                break
            candidate = _apply_step(state, delta_cam, delta_pt, cam_slots,
                                    intr_slots, gauge_cam, second_cam,
                                    gauge_dist)
            ev_c = _evaluate(candidate, obs, config, with_jacobian=True)
            cost_c = _cost(ev_c["res"], config.huber_px)
            if cost_c < cost:
                state, ev, prev_cost, cost = candidate, ev_c, cost, cost_c
                lam = max(lam * 0.1, 1e-14)
                accepted = True
                break
            lam *= 10.0
        iterations += 1
        if converged:
            break
        if not accepted:
            converged = True  # no descent direction left at huge damping
            break
        if prev_cost - cost < config.cost_decrease_tol * (prev_cost + 1e-30):
            converged = True
            break

    refined = _state_to_problem(problem, state)
    return refined, BaRound(initial_cost, cost, iterations, converged,
                            n_landmarks, None)


def landmark_reprojection_errors(problem: BaProblem) -> list:
    """Per-landmark inlier pixel errors: the residual norms BA minimizes.

    An observation behind its camera (depth at or below the cutoff) reads
    np.inf.  Returns one array per landmark, in observation order.
    """
    obs = _Observations(problem)
    ev = _evaluate(_State.from_problem(problem), obs, BaConfig(),
                   with_jacobian=False)
    errors = np.where(ev["valid"], np.linalg.norm(ev["res"], axis=1), np.inf)
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
