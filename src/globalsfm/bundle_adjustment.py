"""Robust global bundle adjustment with staged reprojection filtering.

Optimizes camera poses (and optionally intrinsics) together with landmark
positions by Levenberg-Marquardt over Huber-weighted pixel residuals, one
per inlier row of the :class:`globalsfm.tracks.Landmarks` table; the
reprojection filter judges each landmark by segment reductions over them.
The gauge is fixed by holding the first registered camera's pose constant
and renormalizing the global scale after every accepted step so the
distance to the second registered camera keeps its initial value.

An observation whose point falls behind its camera (depth below the cutoff)
contributes a constant residual of norm equal to the Huber parameter and a
zero Jacobian row, so it adds a fixed cost offset without steering the solve.

:func:`levenberg_marquardt` is the package's one Levenberg-Marquardt loop
with points eliminated by Schur complement, as in "Bundle Adjustment in the
Large" (Agarwal et al., ECCV 2010).  It takes a leading problem axis:
several independent problems run in lockstep, each with its own cost,
damping, step decision and stop rule, as Theseus runs batched
Levenberg-Marquardt (Pineda et al., NeurIPS 2022); their per-problem
reduced systems are solved as one stack, and a problem that stops leaves
the batch.  The state of several problems is a tuple of arrays over the
problems.  Only a system of one problem has points, which are eliminated
from it; several problems are point-free, so each one's reduced system is
its camera block.  It has three callers.  Global BA gives it one problem
with a 6-column pose block per camera (plus 5 intrinsics columns when
optimized); translation averaging's position solve one problem with
3-column position blocks, landmark positions as the eliminated points and
camera-camera direction rows that see no point; the two-view refinement
in :mod:`globalsfm.two_view` one point-free problem per image pair, a
5-DOF relative pose (right rotation increment, tangent-plane step of the
unit translation) on the Sampson distances of its correspondences.  Per
iteration the core builds the normal equations once; per damping attempt
it solves the reduced camera systems and evaluates residuals once; an
accepted state's Jacobian comes from the evaluation that accepted it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

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
    solve_each,
    stack_intrinsics,
    take_intrinsics,
)
from .tracks import Landmarks, segment_means

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
        # an empty cascade would run no BA round at all
        if (not self.filter_thresholds_px
                or any(t <= 0 for t in self.filter_thresholds_px)):
            raise ValueError("filter_thresholds_px must be a non-empty list of "
                             "positive values")
        if self.min_track_length < 2:
            raise ValueError("min_track_length must be at least 2")


@dataclass(frozen=True)
class BaProblem:
    """Cameras plus triangulated landmarks ready for joint refinement.

    ``poses`` holds camera-to-world poses indexed by image id (None for
    unregistered images); every inlier observation of every landmark must
    reference a registered image.
    """

    poses: tuple
    intrinsics: tuple
    landmarks: Landmarks

    def __post_init__(self):
        registered = np.array([pose is not None for pose in self.poses] + [False])
        if not registered.any():
            raise ValueError("at least one registered camera required")
        images = self.landmarks.tracks.images[self.landmarks.inliers]
        unregistered = ~registered[np.minimum(images, len(self.poses))]
        if unregistered.any():
            raise ValueError(
                f"landmark observation references unregistered image "
                f"{images[np.argmax(unregistered)]}")

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
    (N, R, 3) by its point; both are None until the evaluation is
    differentiated, and ``j_point`` is None in a system without points.
    """

    res: np.ndarray
    valid: np.ndarray
    j_cam: np.ndarray | None = None
    j_point: np.ndarray | None = None

    def take(self, rows: np.ndarray) -> "Linearization":
        """The linearization of the rows flagged in ``rows``."""
        return Linearization(*(None if field is None else field[rows]
                               for field in (self.res, self.valid,
                                             self.j_cam, self.j_point)))


@dataclass(frozen=True)
class BlockStructure:
    """Reduced-system column of each ``j_cam`` entry (N, B; -1 = held fixed)
    and the point each row sees (N,; -1 = none, its ``j_point`` is ignored).

    The rows may belong to ``n_problems`` independent problems:
    ``row_problem`` (N,) gives each row's problem (None: all in problem 0).
    Every problem has its own ``n_cam_params`` camera columns.  Only a
    system of one problem has points; several problems must be point-free.
    """

    cam_cols: np.ndarray
    point_idx: np.ndarray
    n_cam_params: int
    n_points: int
    n_problems: int = 1
    row_problem: np.ndarray | None = None

    def __post_init__(self):
        if self.n_points and self.n_problems > 1:
            raise ValueError("points are eliminated from one problem only")
        if self.row_problem is None:
            object.__setattr__(self, "row_problem",
                               np.zeros(len(self.point_idx), dtype=int))

    @cached_property
    def camera_scatter_index(self) -> tuple:
        """Where :func:`normal_equations` sums each row's entries of U and
        g_cam, as flat indices.

        Fixed parameters go to one extra camera slot that is then dropped;
        each problem's camera slots follow the previous problem's.
        """
        size = self.n_cam_params + 1
        cols = np.where(self.cam_cols < 0, self.n_cam_params, self.cam_cols)
        slots = cols + self.row_problem[:, None] * size
        return slots[:, :, None] * size + cols[:, None, :], slots

    @cached_property
    def point_scatter_index(self) -> tuple:
        """Where :func:`normal_equations` sums each row's entries of V, g_pt
        and W, as flat indices; point-free rows and fixed parameters go to
        one extra point or camera slot that is then dropped."""
        size = self.n_cam_params + 1
        cols = np.where(self.cam_cols < 0, self.n_cam_params, self.cam_cols)
        pts = np.where(self.point_idx < 0, self.n_points, self.point_idx)
        return (pts[:, None, None] * 9 + np.arange(9).reshape(3, 3),
                pts[:, None] * 3 + np.arange(3),
                (pts[:, None] * size + cols)[:, :, None] * 3 + np.arange(3))

    def take(self, keep: np.ndarray) -> tuple:
        """(structure of the problems flagged in ``keep``, renumbered in
        order; index of their rows).  A proper subset of the problems has
        no points."""
        if keep.all():
            return self, slice(None)
        rows = keep[self.row_problem]
        sub = BlockStructure(self.cam_cols[rows], self.point_idx[rows],
                             self.n_cam_params, 0, int(keep.sum()),
                             (np.cumsum(keep) - 1)[self.row_problem[rows]])
        return sub, rows


@dataclass(frozen=True)
class NormalEquations:
    """Weighted Gauss-Newton blocks: cameras ``u`` (P, C, C) per problem,
    points ``v`` (L, 3, 3), coupling ``w`` (L, C, 3), gradients ``g_cam``
    (P, C) and ``g_pt`` (L, 3).  Only a system of one problem has points."""

    u: np.ndarray
    v: np.ndarray
    w: np.ndarray
    g_cam: np.ndarray
    g_pt: np.ndarray

    def take(self, keep: np.ndarray) -> "NormalEquations":
        """The blocks of the problems flagged in ``keep``; a proper subset
        of the problems has no points."""
        if keep.all():
            return self
        return NormalEquations(self.u[keep], self.v[:0], self.w[:0],
                               self.g_cam[keep], self.g_pt[:0])


def _robust_weights(res: np.ndarray, valid: np.ndarray, huber_px) -> np.ndarray:
    """Per-observation IRLS weights; invalid observations weigh zero."""
    if huber_px is None:
        return valid.astype(float)
    norms = np.maximum(np.linalg.norm(res, axis=1), 1e-30)
    return np.where(valid, np.minimum(1.0, huber_px / norms), 0.0)


def _problem_costs(res: np.ndarray, huber_px, structure) -> np.ndarray:
    """(Huber) cost of every problem of ``structure``: the sum of its rows'
    costs.  Invalid rows already hold their constant residual."""
    norms = np.linalg.norm(res, axis=1)
    if huber_px is None:
        per_row = norms * norms
    else:
        per_row = np.where(norms <= huber_px, norms * norms,
                           huber_px * (2.0 * norms - huber_px))
    if structure.n_problems == 1:  # numpy's pairwise sum, as BA always summed
        return np.sum(per_row, keepdims=True)
    return _scatter_add(structure.row_problem, per_row, structure.n_problems)


def _scatter_add(index: np.ndarray, values: np.ndarray, size: int) -> np.ndarray:
    """Sum ``values`` into a length-``size`` vector at the matching ``index``."""
    return np.bincount(index.ravel(), weights=values.ravel(), minlength=size)


def _row_products(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a[n]^T b[n] of every row n of (N, R, I) and (N, R, J) blocks, (N, I, J),
    summed over the few residual components r."""
    out = a[:, 0, :, None] * b[:, 0, None, :]
    for r in range(1, a.shape[1]):
        out += a[:, r, :, None] * b[:, r, None, :]
    return out


def normal_equations(lin: Linearization, structure: BlockStructure,
                     huber_px) -> NormalEquations:
    """Robustly weighted normal-equation blocks of a linearization."""
    sw = np.sqrt(_robust_weights(lin.res, lin.valid, huber_px))
    jc = lin.j_cam * sw[:, None, None]
    res_w = lin.res * sw[:, None]
    n_cam, n_pts = structure.n_cam_params, structure.n_points
    n_prob = structure.n_problems
    size, n_slots = n_cam + 1, n_pts + 1
    u_index, g_cam_index = structure.camera_scatter_index
    # whichever of an einsum and row sums measured faster at the sizes of
    # global BA
    u = _scatter_add(u_index, np.einsum("nri,nrj->nij", jc, jc),
                     n_prob * size * size)
    g_cam = _scatter_add(g_cam_index, np.einsum("nri,nr->ni", jc, res_w),
                         n_prob * size)
    u = u.reshape(n_prob, size, size)[:, :n_cam, :n_cam]
    g_cam = g_cam.reshape(n_prob, size)[:, :n_cam]
    if not n_pts:
        return NormalEquations(u, np.zeros((0, 3, 3)), np.zeros((0, n_cam, 3)),
                               g_cam, np.zeros((0, 3)))
    v_index, g_pt_index, w_index = structure.point_scatter_index
    jp = lin.j_point * sw[:, None, None]
    v = _scatter_add(v_index, _row_products(jp, jp), 9 * n_slots)
    g_pt = _scatter_add(g_pt_index, np.einsum("nri,nr->ni", jp, res_w),
                        3 * n_slots)
    w = _scatter_add(w_index, _row_products(jc, jp), 3 * size * n_slots)
    return NormalEquations(u, v.reshape(n_slots, 3, 3)[:n_pts],
                           w.reshape(n_slots, size, 3)[:n_pts, :n_cam], g_cam,
                           g_pt.reshape(n_slots, 3)[:n_pts])


def block_jacobian(lin: Linearization,
                   structure: BlockStructure) -> scipy.sparse.csr_matrix:
    """The sparse Jacobian that a linearization's blocks describe.

    Rows are the flattened residuals; columns are the ``n_cam_params``
    camera columns of each problem in turn, then 3 per point.  Held-fixed
    camera entries and the point entries of point-free rows are left out.
    """
    n, r = lin.res.shape
    n_cam_cols = structure.n_problems * structure.n_cam_params
    pts = structure.point_idx[:, None]
    point_cols = np.where(pts < 0, -1, n_cam_cols + 3 * pts + np.arange(3))
    cam_cols = np.where(structure.cam_cols < 0, -1,
                        structure.cam_cols
                        + structure.n_cam_params * structure.row_problem[:, None])
    cols = np.broadcast_to(
        np.hstack([cam_cols, point_cols])[:, None, :],
        (n, r, structure.cam_cols.shape[1] + 3))
    rows = np.broadcast_to(r * np.arange(n)[:, None, None]
                           + np.arange(r)[None, :, None], cols.shape)
    vals = np.concatenate([lin.j_cam, lin.j_point], axis=2)
    keep = cols >= 0
    return scipy.sparse.coo_matrix(
        (vals[keep], (rows[keep], cols[keep])),
        shape=(n * r, n_cam_cols + 3 * structure.n_points)).tocsr()


def _block_products(w: np.ndarray, m: np.ndarray) -> np.ndarray:
    """``w[l] @ m[l]`` of (L, C, 3) and (L, 3, 3) stacks, the bits of an
    einsum in a quarter of its time at global BA's sizes: written out a
    column at a time, each column's three products summed in place."""
    out = np.empty_like(w)
    for j in range(3):
        column = w[:, :, 0] * m[:, 0, j, None]
        column += w[:, :, 1] * m[:, 1, j, None]
        column += w[:, :, 2] * m[:, 2, j, None]
        out[:, :, j] = column
    return out


def reduced_camera_system(normal: NormalEquations, lam) -> tuple:
    """The damped reduced camera system of every problem.

    With ``lam`` the damping of each problem (P,) or of all, problem p gets
    S_p = U_p + lam_p I - sum_l W_l (V_l + lam_p I)^-1 W_l^T and
    rhs_p = -(g_p - sum_l W_l (V_l + lam_p I)^-1 g_l) over its points l.
    Returns (S (P, C, C), rhs (P, C), (V + lam I)^-1 (L, 3, 3), singular
    (P,)); a problem is singular when one of its V_l + lam_p I is, and its
    S and rhs are then meaningless.

    Point-free problems, one or several, get S_p = U_p + lam_p I and
    rhs_p = -g_p.  A system with points has one problem, whose C may be
    large (global BA); it gets LAPACK's 3x3 inverses and one dense product
    without (L, C, C) per-point blocks.
    """
    n_prob, n_cam = normal.g_cam.shape
    lam = np.broadcast_to(np.asarray(lam, dtype=float), (n_prob,))
    damped = normal.u + lam[:, None, None] * np.eye(n_cam)
    singular = np.zeros(n_prob, dtype=bool)
    if not len(normal.v):
        return damped, -normal.g_cam, normal.v, singular
    try:
        v_inv = np.linalg.inv(normal.v + lam[0] * np.eye(3))
    except np.linalg.LinAlgError:
        v_inv = np.full(normal.v.shape, np.nan)
        singular[0] = True
    wv = _block_products(normal.w, v_inv)
    reduction = (wv.transpose(1, 0, 2).reshape(n_cam, -1)
                 @ normal.w.transpose(1, 0, 2).reshape(n_cam, -1).T)
    back = np.einsum("lpj,lj->p", wv, normal.g_pt)
    return damped - reduction, -(normal.g_cam - back), v_inv, singular


def damped_step(normal: NormalEquations, lam) -> tuple:
    """Damped Gauss-Newton steps of every problem at damping ``lam``.

    Returns (delta_cam (P, C), delta_pt (L, 3), singular (P,)); a problem
    whose damped system is singular gets a zero step and is flagged.
    """
    s_mat, rhs, v_inv, singular = reduced_camera_system(normal, lam)
    delta_cam = np.zeros(normal.g_cam.shape)
    delta_pt = np.zeros(normal.g_pt.shape)
    solvable = np.flatnonzero(~singular)
    steps, failed = solve_each(s_mat[solvable], rhs[solvable][:, :, None])
    delta_cam[solvable] = steps[:, :, 0]
    singular[solvable] |= failed
    if len(delta_pt) and not singular[0]:
        back = np.einsum("lpj,p->lj", normal.w, delta_cam[0])
        delta_pt = np.einsum("lij,lj->li", v_inv, -(normal.g_pt + back))
    return delta_cam, delta_pt, singular


def _problem_gradients(normal: NormalEquations) -> np.ndarray:
    """Largest absolute gradient entry of every problem; the points, if
    any, are all in the one problem."""
    return np.maximum(np.max(np.abs(normal.g_cam), axis=1, initial=0.0),
                      np.max(np.abs(normal.g_pt), initial=0.0))


def _take_state(state, keep: np.ndarray):
    """The state of the problems flagged in ``keep``; a state of exactly
    those problems as is."""
    if keep.all():
        return state
    return tuple(a[keep] for a in state)


def _put_state(state, keep: np.ndarray, part):
    """``state`` with the problems flagged in ``keep`` replaced by those of
    ``part``, in order."""
    if keep.all():
        return part
    merged = []
    for a, b in zip(state, part):
        a = a.copy()
        a[keep] = b
        merged.append(a)
    return tuple(merged)


def levenberg_marquardt(state, evaluate, retract, structure: BlockStructure,
                        huber_px, max_iterations: int = 100) -> tuple:
    """Minimize the (robust) cost of one or several problems in lockstep,
    with points Schur-eliminated.

    ``evaluate(state)`` returns the state's residuals as a
    :class:`Linearization`, rows following ``structure``, and a
    ``differentiate()`` that adds their Jacobian from that evaluation's
    intermediates; a non-finite residual row rejects its problem's state
    (the initial state must pass).  ``retract(state, delta_cam, delta_pt)``
    returns the stepped state; ``delta_cam`` holds the camera steps of the
    state's problems one after another.

    Every problem keeps its own cost, damping, accept/reject decision,
    iteration count and stop rule, so it takes the iterates it would take
    alone.  A step is accepted when it lowers the cost; a problem stops
    when its cost is at most ``COST_FLOOR_PER_ROW`` per residual row, its
    gradient vanishes, no damping yields a descent, or its relative cost
    decrease falls below ``COST_DECREASE_TOL``.  A problem that stops
    leaves the batch: its rows are no longer evaluated.  The per-problem
    reduced systems are solved as one stack.  The next linearization is the
    accepting trial's ``differentiate()`` when every problem tried accepts
    at one attempt (always, with one problem), else one evaluation of the
    merged state.

    With several problems the state is a tuple of arrays whose first axis
    runs over the problems, and ``structure`` has no points; ``evaluate``
    and ``retract`` must take such a tuple holding any subset of the
    problems, in order, and return that subset's rows in the order the
    whole state has them.  With one problem, the only shape that may have
    points, the state may be any object.

    Returns (final state, its Linearization with Jacobian, one BaRound per
    problem with its point count kept).
    """
    n_prob = structure.n_problems
    lin = evaluate(state)[1]()
    cost = _problem_costs(lin.res, huber_px, structure)
    initial_cost = cost.copy()
    cost_floor = COST_FLOOR_PER_ROW * np.bincount(structure.row_problem,
                                                  minlength=n_prob)
    lam = np.full(n_prob, INITIAL_DAMPING)
    iterations = np.zeros(n_prob, dtype=int)
    converged = np.zeros(n_prob, dtype=bool)
    # the batch: its problems' ids, state, structure, rows and linearization
    ids = np.arange(n_prob)
    batch_state, batch = state, structure
    batch_rows = np.arange(len(lin.res))
    final_state, final_rows, final_lins = state, [], []

    def stop(stopping, iteration, finished=True):
        """Record the final state, linearization and statistics of the batch
        problems flagged in ``stopping``, and drop them from the batch;
        ``finished`` is false for problems out of iterations."""
        nonlocal ids, batch_state, batch, batch_rows, lin, final_state
        iterations[ids[stopping]] = iteration
        converged[ids[stopping]] = finished
        keep = np.zeros(n_prob, dtype=bool)
        keep[ids[stopping]] = True
        _, rows = batch.take(stopping)
        final_state = _put_state(final_state, keep,
                                 _take_state(batch_state, stopping))
        final_rows.append(batch_rows[rows])
        final_lins.append(lin.take(rows))
        staying = ~stopping
        batch, rows = batch.take(staying)
        ids, batch_rows = ids[staying], batch_rows[rows]
        batch_state = _take_state(batch_state, staying) if len(ids) else None
        lin = lin.take(rows)

    for iteration in range(1, max_iterations + 1):
        differentiate = trial_differentiate = None  # free the last trial
        at_floor = cost[ids] <= cost_floor[ids]
        if at_floor.any():
            stop(at_floor, iteration)
            if not len(ids):
                break
        normal = normal_equations(lin, batch, huber_px)
        trying = _problem_gradients(normal) >= GRADIENT_TOL
        prev_cost = cost.copy()
        accepted = np.zeros(len(ids), dtype=bool)
        if trying.any():
            trial_batch, _ = batch.take(trying)
            trial_normal = normal.take(trying)
            trial_state = _take_state(batch_state, trying)
        for _attempt in range(DAMPING_ATTEMPTS):
            if not trying.any():
                break
            trial_ids = ids[trying]
            delta_cam, delta_pt, singular = damped_step(trial_normal,
                                                        lam[trial_ids])
            better = np.zeros(len(trial_ids), dtype=bool)
            if not singular.all():
                candidate = retract(trial_state, delta_cam.ravel(), delta_pt)
                trial, trial_differentiate = evaluate(candidate)
                trial_cost = _problem_costs(trial.res, huber_px, trial_batch)
                better = (trial_cost < cost[trial_ids]) & ~singular
                cost[trial_ids[better]] = trial_cost[better]
            lam[trial_ids[~better]] *= 10.0
            if not better.any():
                continue
            if better.all() and not accepted.any():
                differentiate = trial_differentiate
            newly = _spread(trying, better)
            batch_state = _put_state(batch_state, newly,
                                     _take_state(candidate, better))
            accepted |= newly
            trying &= ~newly
            if trying.any():
                trial_batch, _ = trial_batch.take(~better)
                trial_normal = trial_normal.take(~better)
                trial_state = _take_state(trial_state, ~better)
        # a vanished gradient, or no descent left at huge damping
        if not accepted.all():
            stop(~accepted, iteration)
            if not len(ids):
                break
        lam[ids] = np.maximum(lam[ids] * 0.1, MIN_DAMPING)
        lin = (differentiate or evaluate(batch_state)[1])()
        stalled = (prev_cost[ids] - cost[ids]
                   < COST_DECREASE_TOL * (prev_cost[ids] + 1e-30))
        if stalled.any():
            stop(stalled, iteration)
            if not len(ids):
                break
    if len(ids):
        stop(np.ones(len(ids), dtype=bool), max_iterations, finished=False)

    if len(final_lins) == 1:
        final_lin = final_lins[0]
    else:
        order = np.argsort(np.concatenate(final_rows))
        final_lin = Linearization(*(
            None if parts[0] is None else np.concatenate(parts)[order]
            for parts in zip(*((piece.res, piece.valid, piece.j_cam,
                                piece.j_point) for piece in final_lins))))
    rounds = tuple(BaRound(float(initial_cost[p]), float(cost[p]),
                           int(iterations[p]), bool(converged[p]),
                           int(structure.n_points), None)
                   for p in range(n_prob))
    return final_state, final_lin, rounds


def _spread(inner: np.ndarray, flags: np.ndarray) -> np.ndarray:
    """A mask over ``inner``'s whole axis: ``flags`` at ``inner``'s true
    entries, false elsewhere."""
    out = np.zeros(len(inner), dtype=bool)
    out[inner] = flags
    return out


def _inlier_rows(problem: BaProblem) -> tuple:
    """(image id, :class:`_State` camera row, landmark, pixel) of every
    inlier row of the problem's table, in table order: BA's residual rows."""
    table = problem.landmarks
    images = table.tracks.images[table.inliers]
    return (images, np.searchsorted(problem.registered_cameras(), images),
            table.tracks.row_tracks()[table.inliers],
            table.tracks.pixels[table.inliers])


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
        return _State(rotations, centers, intr, problem.landmarks.points.copy())

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


def _evaluate(state: _State, rows: tuple, config: BaConfig) -> tuple:
    """Residuals of the :func:`_inlier_rows` ``rows`` at the current state
    and their ``differentiate``.

    Every observation is projected and differentiated in one stacked call,
    with its own camera's pose and intrinsics.  Residual convention:
    projected minus measured, in pixels.  Observations with depth <= cutoff
    are flagged invalid: constant residual of norm equal to the Huber
    parameter (1.0 px when the loss is disabled) and zero Jacobian blocks.
    The camera block of a row is its 6 pose columns (rotation increment,
    then center), followed by its 5 intrinsics columns when
    ``config.optimize_intrinsics`` is set.
    """
    _, slots, lm_idx, uv = rows
    rot = state.rotations[slots]
    intr = take_intrinsics(state.intrinsics, slots)
    p_cam = ((state.points[lm_idx] - state.centers[slots])[:, None] @ rot)[:, 0]
    valid = p_cam[:, 2] > MIN_DEPTH
    const = config.huber_px if config.huber_px is not None else 1.0
    res = np.where(valid[:, None], project_camera_points(p_cam, intr) - uv,
                   const / np.sqrt(2.0))

    def differentiate():
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
        return Linearization(res, valid, np.concatenate(blocks, 2), j_point)

    return Linearization(res, valid), differentiate


@dataclass(frozen=True)
class BaLayout:
    """Column layout of the full Jacobian (gauge included).

    Camera pose blocks come first (6 columns per registered camera, in image
    id order), then intrinsics blocks (5 columns each; one shared block or
    one per camera), then point blocks (3 columns per landmark).  The
    ``*_cols`` arrays give each block's first column, by image id (-1 if
    unregistered; ``intr_cols`` is empty if intrinsics are fixed) or by
    landmark.
    """

    cam_cols: np.ndarray
    intr_cols: np.ndarray
    point_cols: np.ndarray
    n_cols: int


def ba_parameter_layout(problem: BaProblem,
                        config: BaConfig = BaConfig()) -> BaLayout:
    registered = problem.registered_cameras()
    cam_cols = np.full(len(problem.poses), -1)
    cam_cols[registered] = 6 * np.arange(len(registered))
    col = 6 * len(registered)
    intr_cols = np.zeros(0, dtype=int)
    if config.optimize_intrinsics:
        shared = config.share_intrinsics
        intr_cols = np.full(len(problem.poses), -1)
        intr_cols[registered] = col + (0 if shared
                                       else 5 * np.arange(len(registered)))
        col += 5 if shared else 5 * len(registered)
    point_cols = col + 3 * np.arange(len(problem.landmarks))
    return BaLayout(cam_cols, intr_cols, point_cols,
                    col + 3 * len(problem.landmarks))


def _camera_columns(layout: BaLayout, images: np.ndarray) -> np.ndarray:
    """(N, B) full-Jacobian column of every camera-block entry of the rows
    that see ``images``."""
    blocks = [(layout.cam_cols, 6)] + ([(layout.intr_cols, 5)]
                                       if len(layout.intr_cols) else [])
    return np.hstack([cols[images][:, None] + np.arange(width)
                      for cols, width in blocks])


def ba_residuals_and_jacobian(problem: BaProblem,
                              config: BaConfig = BaConfig()):
    """Raw (unweighted) residual vector in pixels and the sparse Jacobian.

    The Jacobian covers every parameter block including the gauge camera;
    gauge handling is a solver concern.  Behind-camera observations carry
    constant residuals and all-zero rows.
    """
    rows = _inlier_rows(problem)
    lin = _evaluate(_State.from_problem(problem), rows, config)[1]()
    layout = ba_parameter_layout(problem, config)
    n_landmarks = len(problem.landmarks)
    structure = BlockStructure(_camera_columns(layout, rows[0]), rows[2],
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
    return BaProblem(tuple(poses), tuple(intrinsics),
                     replace(problem.landmarks, points=state.points))


def run_bundle_adjustment(problem: BaProblem,
                          config: BaConfig = BaConfig()) -> tuple:
    """One Levenberg-Marquardt pass over all cameras and landmarks.

    The first registered camera is held fixed and the global scale is pinned
    to the initial distance between the first two registered cameras.
    Returns (refined problem, BaRound); a round that exhausts its iteration
    budget is flagged ``converged=False`` but still returns its best state.
    """
    rows = _inlier_rows(problem)
    n_landmarks = len(problem.landmarks)
    if not len(rows[0]):
        return problem, BaRound(0.0, 0.0, 0, True, n_landmarks, None)

    state = _State.from_problem(problem)
    registered = problem.registered_cameras()
    gauge_dist = (float(np.linalg.norm(state.centers[1] - state.centers[0]))
                  if len(registered) > 1 else 0.0)

    # The reduced system takes the layout's camera and intrinsics columns
    # without the gauge camera's pose block, which the layout puts first.
    layout = ba_parameter_layout(problem, config)
    pose_cols = layout.cam_cols[registered] - 6
    intr_cols = (layout.intr_cols[registered] - 6 if len(layout.intr_cols)
                 else None)
    cam_cols = np.maximum(_camera_columns(layout, rows[0]) - 6, -1)
    structure = BlockStructure(cam_cols, rows[2],
                               layout.n_cols - 3 * n_landmarks - 6, n_landmarks)
    state, _, (round_report,) = levenberg_marquardt(
        state,
        lambda s: _evaluate(s, rows, config),
        lambda s, delta_cam, delta_pt: _apply_step(
            s, delta_cam, delta_pt, pose_cols, intr_cols, gauge_dist),
        structure, config.huber_px, config.max_iterations)
    return _state_to_problem(problem, state), round_report


def landmark_reprojection_errors(problem: BaProblem) -> np.ndarray:
    """Inlier pixel errors: the residual norms BA minimizes.

    One error per inlier row of the problem's table, in table order (each
    landmark's inlier observations in turn); an observation behind its
    camera (depth at or below the cutoff) reads np.inf.
    """
    rows = _inlier_rows(problem)
    lin, _ = _evaluate(_State.from_problem(problem), rows, BaConfig())
    return np.where(lin.valid, np.linalg.norm(lin.res, axis=1), np.inf)


def filter_tracks(problem: BaProblem, threshold_px: float,
                  min_track_length: int = 3) -> BaProblem:
    """Drop landmarks whose worst inlier reprojection error exceeds the threshold.

    Landmarks with fewer inlier observations than the minimum track length
    are dropped as well.  A kept landmark's mean error is set to the mean
    of the errors it was judged on.  Raises AllTracksFiltered when nothing
    survives.
    """
    if threshold_px <= 0:
        raise ValueError("threshold must be positive")
    table = problem.landmarks
    errors = landmark_reprojection_errors(problem)
    counts = np.bincount(table.tracks.row_tracks()[table.inliers],
                         minlength=len(table))
    seen = counts > 0
    worst = np.zeros(len(table))
    worst[seen] = np.maximum.reduceat(errors, (np.cumsum(counts) - counts)[seen])
    kept = np.flatnonzero((counts >= min_track_length) & ~(worst > threshold_px))
    if not len(kept):
        raise AllTracksFiltered(
            f"no landmark survived the {threshold_px} px filter")
    return BaProblem(problem.poses, problem.intrinsics, replace(
        table.take(kept), mean_errors=segment_means(errors, counts)[kept]))


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
