"""Global camera positions from pairwise and camera-to-landmark directions.

Measurements are unit direction vectors in the world frame: either "camera a
sees camera b along u" (derived from a verified relative pose and the solved
global rotations) or "camera a sees landmark t along u" (derived from a
keypoint ray).  Outlier directions are rejected by projecting all measurements
onto many seeded random axes and scoring how often each measurement disagrees
with a greedy feedback-minimizing node order; the orders of all axes are
built together, in O(axes * (nodes^2 + measurements)).  Survivors enter a
robust nonlinear solve over camera and landmark positions with a
normalized-difference residual under a Huber loss.  It starts from one
closed-form guess, the positions of a linear surrogate in which every
measurement carries its own scale (in the family of Ozyesil and Singer,
"Robust camera location estimation by convex programming", CVPR 2015),
with the scales eliminated so that one 3(n-1) system remains.  The solve
has no loop of its own: it runs the Schur-LM core of
:mod:`globalsfm.bundle_adjustment` (``levenberg_marquardt``) with a 3-column
position block per camera (camera 0 held fixed as the gauge) and the
landmark positions as the eliminated points; a camera-camera row touches two
camera blocks and no point, a camera-landmark row one camera block and one
point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bundle_adjustment import (
    BlockStructure,
    Linearization,
    block_jacobian,
    levenberg_marquardt,
)
from .errors import Disconnected, Underconstrained
from .geometry import normalized
from .seeding import rng_for
from .view_graph import connected_components

KIND_CAMERA = "camera-camera"
KIND_LANDMARK = "camera-landmark"


@dataclass(frozen=True)
class DirectionMeasurement:
    """Unit world-frame direction from one endpoint toward the other.

    For ``camera-camera`` both endpoints are camera ids and the direction
    points from camera ``a`` toward camera ``b``.  For ``camera-landmark``
    endpoint ``b`` is a landmark key and the direction points from the camera
    toward the landmark.
    """

    kind: str
    a: int
    b: int
    direction: np.ndarray

    def __post_init__(self):
        if self.kind not in (KIND_CAMERA, KIND_LANDMARK):
            raise ValueError(f"unknown measurement kind {self.kind!r}")
        if self.kind == KIND_CAMERA and self.a == self.b:
            raise ValueError("endpoints must be distinct")
        norm = float(np.linalg.norm(self.direction))
        # a NaN or inf entry makes the norm non-finite and fails this test
        if not abs(norm - 1.0) <= 1e-9:
            raise ValueError(f"direction must be unit norm, got {norm}")

    def node_a(self) -> tuple:
        return ("c", self.a)

    def node_b(self) -> tuple:
        return ("c", self.b) if self.kind == KIND_CAMERA else ("l", self.b)


@dataclass(frozen=True)
class TranslationSolution:
    """Camera positions (gauge: camera 0 at origin, unit mean baseline)."""

    positions: np.ndarray
    landmarks: dict
    cost: float
    measurements: tuple


def camera_direction_measurements(two_view_measurements: list,
                                  rotations: list) -> list:
    """World-frame camera-to-camera directions from verified pairs.

    A verified pair (i, j) carries the unit translation of the pose mapping
    frame i into frame j; with the global camera-to-world rotation of j this
    yields the world-frame direction from camera i toward camera j.
    """
    out = []
    for m in two_view_measurements:
        i, j = m.pair
        baseline = -(rotations[j] @ m.direction)
        out.append(DirectionMeasurement(KIND_CAMERA, i, j, normalized(baseline)))
    return out


def mfas_projection_axes(n_projections: int, seed: int) -> np.ndarray:
    """Seeded random unit axes used for the 1-D ordering passes."""
    rng = rng_for(seed, "mfas-projections")
    axes = rng.normal(size=(n_projections, 3))
    return axes / np.linalg.norm(axes, axis=1, keepdims=True)


def mfas_projection_violations(axes: np.ndarray, ends_a: np.ndarray,
                               ends_b: np.ndarray, dirs: np.ndarray,
                               n_nodes: int) -> tuple:
    """Violation and weight charged to each measurement on every axis.

    Measurement m projects onto axis k as ``w = dirs[m] @ axes[k]``: an arc
    of weight ``|w|`` from endpoint a to endpoint b when ``w >= 0``, else
    from b to a.  Each axis gets its own greedy node order
    (``_greedy_orders``), all axes in lockstep, and an arc that points
    backward in its axis's order is charged its weight.

    Returns:
        (violation, weight), each (n_axes, n_measurements).
    """
    # one product per axis: ``dirs @ axes.T`` differs in the last bits
    weights = np.empty((len(axes), len(dirs)))
    for k, axis in enumerate(axes):
        weights[k] = dirs @ axis
    forward = weights >= 0.0
    weights = np.abs(weights)
    order_pos = _greedy_orders(n_nodes, ends_a, ends_b, forward, weights)
    pos_a = order_pos[:, ends_a]
    pos_b = order_pos[:, ends_b]
    backward = np.where(forward, pos_a > pos_b, pos_b > pos_a)
    return np.where(backward, weights, 0.0), weights


def mfas_filter(measurements: list, n_projections: int = 48, seed: int = 0,
                rejection_ratio: float = 0.1) -> tuple:
    """Reject direction outliers by 1-D ordering consistency.

    Every measurement is projected onto ``n_projections`` seeded random unit
    axes; each projection induces weighted order constraints between the two
    endpoints.  A greedy source-first order approximates the minimum-feedback
    order and the weight of arcs pointing backward in it is charged to their
    measurements.  A measurement whose accumulated violation exceeds
    ``rejection_ratio`` of its accumulated projection weight is removed.
    The orders of all axes are built in one lockstep pass
    (``mfas_projection_violations``) and the per-axis charges are summed in
    axis order.

    Returns:
        (kept measurements, violation fraction array aligned with the input).
    """
    if not measurements:
        raise ValueError("need at least one measurement")
    nodes = sorted({m.node_a() for m in measurements}
                   | {m.node_b() for m in measurements})
    node_index = {node: k for k, node in enumerate(nodes)}
    ends_a = np.array([node_index[m.node_a()] for m in measurements])
    ends_b = np.array([node_index[m.node_b()] for m in measurements])
    dirs = np.array([m.direction for m in measurements])

    per_axis_violation, per_axis_weight = mfas_projection_violations(
        mfas_projection_axes(n_projections, seed), ends_a, ends_b, dirs,
        len(nodes))
    violation = np.zeros(len(measurements))
    total_weight = np.zeros(len(measurements))
    for viol, weights in zip(per_axis_violation, per_axis_weight):
        violation += viol
        total_weight += weights

    frac = violation / np.maximum(total_weight, 1e-30)
    kept = [m for m, f in zip(measurements, frac) if f <= rejection_ratio]
    return kept, frac


def _greedy_orders(n_nodes: int, ends_a: np.ndarray, ends_b: np.ndarray,
                   forward: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Greedy feedback-minimizing order of every axis; (n_axes, n_nodes)
    positions of the nodes.

    Arc m of axis k runs from ``ends_a[m]`` to ``ends_b[m]`` when
    ``forward[k, m]``, else the other way, with weight ``weights[k, m]``.
    Each axis picks a node with zero remaining in-weight when one exists
    (largest out-weight first, smallest id on ties), otherwise the node with
    the best (1 + out) / (1 + in) weight ratio.  Source-first selection
    reproduces a topological order on acyclic inputs, so consistent
    measurements incur zero violation.

    All axes take their n_nodes steps together.  A step retires only the
    arcs incident to each axis's picked node, from a per-node list of
    incident arcs in arc order, so every arc is touched a constant number of
    times per axis: O(n_axes (n_nodes^2 + n_arcs)) in all.  The weights of
    each node are added and subtracted in arc order, step by step, as a
    one-axis loop would.
    """
    n_axes, n_arcs = weights.shape
    rows = np.arange(n_axes)
    heads = np.where(forward, ends_b, ends_a) + (n_nodes * rows)[:, None]
    tails = np.where(forward, ends_a, ends_b) + (n_nodes * rows)[:, None]
    size = n_axes * n_nodes
    in_w = np.bincount(heads.ravel(), weights.ravel(), size).reshape(n_axes, -1)
    out_w = np.bincount(tails.ravel(), weights.ravel(), size).reshape(n_axes, -1)
    in_flat, out_flat = in_w.reshape(-1), out_w.reshape(-1)

    # Incident arcs of each node in arc order, with the other endpoint and
    # whether the node is the arc's endpoint a.
    arcs = np.arange(n_arcs)
    node_of = np.concatenate([ends_a, ends_b])
    by_node = np.lexsort((np.concatenate([arcs, arcs]), node_of))
    inc_arc = np.concatenate([arcs, arcs])[by_node]
    inc_other = np.concatenate([ends_b, ends_a])[by_node]
    inc_is_a = by_node < n_arcs
    degree = np.bincount(node_of, minlength=n_nodes)
    first = np.cumsum(degree) - degree

    forward_flat = forward.reshape(-1)
    weights_flat = weights.reshape(-1)
    remaining = np.ones((n_axes, n_nodes), dtype=bool)
    remaining_flat = remaining.reshape(-1)
    order_pos = np.empty((n_axes, n_nodes), dtype=int)
    for position in range(n_nodes):
        sources = remaining & (in_w <= 1e-12)
        pick = np.where(
            sources.any(axis=1),
            np.where(sources, out_w, -np.inf).argmax(axis=1),
            np.where(remaining, (1.0 + out_w) / (1.0 + in_w),
                     -np.inf).argmax(axis=1))
        order_pos[rows, pick] = position
        remaining[rows, pick] = False
        # retire arcs between each picked node and still-active nodes
        count = degree[pick]
        offset = np.repeat(first[pick] - np.cumsum(count) + count, count)
        slot = offset + np.arange(len(offset))
        axis_of = np.repeat(rows, count)
        arc = axis_of * n_arcs + inc_arc[slot]
        other = axis_of * n_nodes + inc_other[slot]
        live = remaining_flat[other]
        leaving = forward_flat[arc] == inc_is_a[slot]
        into_other = live & leaving
        from_other = live & ~leaving
        np.add.at(in_flat, other[into_other], -weights_flat[arc[into_other]])
        np.add.at(out_flat, other[from_other], -weights_flat[arc[from_other]])
    return order_pos


def solve_translations(measurements: list, n_cameras: int,
                       huber_delta: float | None = 0.1) -> TranslationSolution:
    """Camera (and landmark) positions from filtered direction measurements.

    Minimizes the Huber-robustified chordal disagreement between each
    measured direction and the normalized difference of its endpoint
    positions; ``huber_delta`` of ``None`` gives plain least squares, the
    default 0.1 is roughly a 5.7 degree direction error.  The solve starts
    from one closed-form guess, the positions of a linear surrogate with one
    free scale per measurement and the mean scale pinned to one
    (``_linear_surrogate_init``); the Schur-LM core of
    :mod:`globalsfm.bundle_adjustment` polishes it with the landmark
    positions eliminated.  Endpoints that coincide read a residual of norm 2,
    the worst direction disagreement, and weigh zero in the solve.

    Gauge: camera 0 at the origin, unit mean camera-camera baseline.

    Raises:
        Disconnected: measurement graph does not span all position nodes.
        Underconstrained: the linear surrogate is singular (e.g. every
            direction lies on one line), or the network keeps more than the
            global-scale freedom at the solution (Jacobian nullity >= 2),
            e.g. an open chain.
    """
    if not measurements:
        raise Disconnected("no measurements")
    landmark_keys = sorted({m.b for m in measurements
                            if m.kind == KIND_LANDMARK})
    node_slot = {("c", i): i for i in range(n_cameras)}
    node_slot.update({("l", key): n_cameras + k
                      for k, key in enumerate(landmark_keys)})
    n_nodes = n_cameras + len(landmark_keys)
    ends_a = np.array([node_slot[m.node_a()] for m in measurements])
    ends_b = np.array([node_slot[m.node_b()] for m in measurements])
    unreachable = np.count_nonzero(connected_components(n_nodes, ends_a, ends_b))
    if unreachable:
        raise Disconnected(f"{unreachable} of {n_nodes} position nodes "
                           "unreachable from camera 0")
    dirs = np.array([m.direction for m in measurements])
    evaluate, retract, structure = _position_problem(
        ends_a, ends_b, dirs, n_cameras, len(landmark_keys))

    positions, lin, (round_report,) = levenberg_marquardt(
        _linear_surrogate_init(ends_a, ends_b, dirs, n_nodes), evaluate,
        retract, structure, huber_delta)

    # One zero singular direction (global scale) is the expected gauge
    # freedom; a second one means the network is not parallel-rigid.
    singular = np.linalg.svd(block_jacobian(lin, structure).toarray(),
                             compute_uv=False)
    nullity = int(np.sum(singular < 1e-8 * max(singular[0], 1e-30)))
    if nullity >= 2:
        raise Underconstrained(
            f"direction network keeps {nullity} null directions (expected 1)")

    positions = positions - positions[0]
    cam_mask = np.array([m.kind == KIND_CAMERA for m in measurements])
    if cam_mask.any():
        baselines = np.linalg.norm(positions[ends_b[cam_mask]]
                                   - positions[ends_a[cam_mask]], axis=1)
        scale = float(np.mean(baselines))
        if scale > 1e-15:
            positions = positions / scale
    landmarks = {key: positions[n_cameras + k]
                 for k, key in enumerate(landmark_keys)}
    return TranslationSolution(positions[:n_cameras], landmarks,
                               round_report.final_cost, tuple(measurements))


def _position_problem(ends_a, ends_b, dirs, n_cameras, n_landmarks) -> tuple:
    """``evaluate``, ``retract`` and block structure of the position solve.

    The state is the (n_nodes, 3) array of camera positions followed by
    landmark positions.  Row m holds ``u_m - d / |d|`` with ``d`` the
    difference of its endpoints; its camera block is 3 columns for endpoint
    a then 3 for endpoint b, and a landmark endpoint b is the row's point
    instead.  Camera 0 (the gauge) has no columns.
    """
    def camera_cols(nodes):
        free = (nodes > 0) & (nodes < n_cameras)
        return np.where(free[:, None], 3 * (nodes[:, None] - 1) + np.arange(3),
                        -1)

    structure = BlockStructure(
        np.hstack([camera_cols(ends_a), camera_cols(ends_b)]),
        np.where(ends_b < n_cameras, -1, ends_b - n_cameras),
        3 * (n_cameras - 1), n_landmarks)

    def evaluate(positions):
        diff = positions[ends_b] - positions[ends_a]
        norms = np.linalg.norm(diff, axis=1)
        valid = norms >= 1e-15
        unit = diff / np.maximum(norms, 1e-15)[:, None]
        res = np.where(valid[:, None], dirs - unit, 2.0 * dirs)

        def differentiate():
            # d(-d/|d|)/d(p_b) = -(I - unit unit^T) / |d|; p_a the opposite
            proj = ((np.eye(3) - np.einsum("na,nb->nab", unit, unit))
                    / np.maximum(norms, 1e-15)[:, None, None])
            proj[~valid] = 0.0
            # the core ignores the endpoint-b block a row does not use
            return Linearization(res, valid,
                                 np.concatenate([proj, -proj], axis=2), -proj)

        return Linearization(res, valid), differentiate

    def retract(positions, delta_cam, delta_pt):
        stepped = positions.copy()
        stepped[1:n_cameras] += delta_cam.reshape(-1, 3)
        stepped[n_cameras:] += delta_pt
        return stepped

    return evaluate, retract, structure


def _linear_surrogate_init(ends_a, ends_b, dirs, n_nodes) -> np.ndarray:
    """Closed-form start: the positions of a linear surrogate of the solve.

    The surrogate minimizes ``sum_m ||B_m p - s_m u_m||^2`` over the free
    positions ``p`` (node 0 fixed at the origin) and one scale ``s_m`` per
    measurement, subject to ``sum_m s_m = M`` (the mean scale is one), where
    ``B_m p = p_b - p_a`` and M is the measurement count.  With a multiplier
    ``mu`` on the constraint, the scale that is optimal for fixed positions
    is ``s_m = u_m . B_m p - mu``, and the constraint gives
    ``mu = g . p / M - 1`` with ``g = sum_m B_m^T u_m``.  Putting both back
    into the position equations eliminates the scales and the multiplier and
    leaves one symmetric 3(n-1) system,

        (sum_m B_m^T (I - u_m u_m^T) B_m + g g^T / M) p = g,

    whose 3x3 blocks are those of a graph Laplacian weighted by the
    projector orthogonal to each measured direction.

    Raises:
        Underconstrained: the surrogate system is singular, as on a network
            whose directions all lie on one line.
    """
    proj = np.eye(3) - np.einsum("ma,mb->mab", dirs, dirs)
    blocks = np.zeros((n_nodes, n_nodes, 3, 3))
    np.add.at(blocks, (ends_a, ends_a), proj)
    np.add.at(blocks, (ends_b, ends_b), proj)
    np.add.at(blocks, (ends_a, ends_b), -proj)
    np.add.at(blocks, (ends_b, ends_a), -proj)
    system = blocks.transpose(0, 2, 1, 3).reshape(3 * n_nodes, 3 * n_nodes)
    system = system[3:, 3:]
    summed = np.zeros((n_nodes, 3))
    np.add.at(summed, ends_b, dirs)
    np.add.at(summed, ends_a, -dirs)
    g = summed[1:].ravel()
    system += np.outer(g, g) / len(dirs)
    try:
        free = np.linalg.solve(system, g)
    except np.linalg.LinAlgError:
        free = None
    if free is None or not np.all(np.isfinite(free)):
        raise Underconstrained("direction network is not parallel-rigid: "
                               "its linear surrogate is singular")
    return np.vstack([np.zeros((1, 3)), free.reshape(-1, 3)])
