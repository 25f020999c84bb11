"""Global rotation averaging via a rank-staircase chordal solver.

Camera-to-world rotations are estimated from pairwise relative rotations by
minimizing a weighted chordal consistency cost.  The problem is lifted: each
rotation becomes a p x 3 orthonormal-column block (p starts at 3 and grows),
the cost is the quadratic form ``tr(Y L Y^T)`` over a measurement-weighted
block Laplacian ``L``, and each level is solved by Riemannian gradient
descent.  After a level converges, a second-order certificate (the smallest
eigenvalue of ``L`` minus the block-diagonal Lagrange multipliers) either
proves global optimality or supplies an escape direction into the next level.
The final lifted solution is rounded back to one rotation per camera.

Cost convention: with camera-to-world rotations ``R`` and measurements
``M_ij = R_i^T R_j`` (ideal case), the reported cost is
``sum_e kappa_e * (3 - tr(M_e^T R_i^T R_j))`` which equals half the quadratic
form and is zero exactly on consistent data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import Disconnected
from .geometry import project_to_so3, so3_exp_batch

_SKEW = 0.5
# Per-level stopping rule of the Riemannian gradient descent.
GRADIENT_TOL = 1e-9
MAX_ITERATIONS_PER_LEVEL = 2000
# A level is certified optimal when the certificate's smallest eigenvalue is
# at least -CERTIFICATE_TOL.
CERTIFICATE_TOL = 1e-7


def kappa_from_sigma(sigma: float) -> float:
    """Concentration weight for a measurement angular uncertainty (kappa = 1/sigma^2)."""
    if sigma <= 0.0:
        raise ValueError("sigma must be positive")
    return 1.0 / (sigma * sigma)


@dataclass(frozen=True)
class RotationAveragingProblem:
    """Edges ``(i, j, rotation mapping frame i to frame j, kappa)`` over n cameras."""

    edges: tuple
    n_cameras: int

    def __post_init__(self):
        for i, j, _, kappa in self.edges:
            if not (0 <= i < self.n_cameras and 0 <= j < self.n_cameras and i != j):
                raise ValueError(f"bad edge endpoints ({i}, {j})")
            if kappa <= 0.0:
                raise ValueError("kappa must be positive")


@dataclass(frozen=True)
class RotationConfig:
    max_staircase_level: int = 30

    def __post_init__(self):
        if self.max_staircase_level < 1:
            raise ValueError("max_staircase_level must be >= 1")


@dataclass(frozen=True)
class RotationSolution:
    """Gauge-fixed global rotations with solve diagnostics."""

    rotations: tuple
    cost: float
    certified: bool
    p_final: int
    level_costs: tuple


def spanning_tree_init(problem: RotationAveragingProblem) -> list:
    """Rotations composed along a BFS tree from the smallest camera id.

    Exact on noise-free inputs (any consistent assignment); the root gets the
    identity.

    Raises:
        Disconnected: some camera is unreachable through the edges.
    """
    n = problem.n_cameras
    adj = {v: [] for v in range(n)}
    for i, j, rotation, _ in problem.edges:
        adj[i].append((j, rotation))        # rotation maps i -> j
        adj[j].append((i, rotation.T))
    rotations = [None] * n
    root = 0
    rotations[root] = np.eye(3)
    queue = [root]
    while queue:
        i = queue.pop(0)
        for j, rot_ij in adj[i]:
            if rotations[j] is None:
                # world rotation of j from R_j^T R_i = rot_ij
                rotations[j] = rotations[i] @ rot_ij.T
                queue.append(j)
    missing = [v for v in range(n) if rotations[v] is None]
    if missing:
        raise Disconnected(f"cameras unreachable from {root}: {missing[:8]}")
    return rotations


def _build_laplacian(problem: RotationAveragingProblem) -> np.ndarray:
    n = problem.n_cameras
    lap = np.zeros((3 * n, 3 * n))
    for i, j, rot_ij, kappa in problem.edges:
        m = rot_ij.T  # measurement of R_i^T R_j
        lap[3 * i: 3 * i + 3, 3 * j: 3 * j + 3] -= kappa * m
        lap[3 * j: 3 * j + 3, 3 * i: 3 * i + 3] -= kappa * m.T
        for d in (i, j):
            lap[3 * d: 3 * d + 3, 3 * d: 3 * d + 3] += kappa * np.eye(3)
    return lap


def _cost(y: np.ndarray, lap: np.ndarray) -> float:
    return float(np.sum((y @ lap) * y))


def _to_blocks(y: np.ndarray, n: int) -> np.ndarray:
    """(p, 3n) layout to (n, p, 3) block stack."""
    p = y.shape[0]
    return np.ascontiguousarray(y.reshape(p, n, 3).swapaxes(0, 1))


def _from_blocks(blocks: np.ndarray) -> np.ndarray:
    n, p, _ = blocks.shape
    return np.ascontiguousarray(blocks.swapaxes(0, 1).reshape(p, 3 * n))


def _riemannian_gradient(y: np.ndarray, lap: np.ndarray, n: int) -> np.ndarray:
    grad = 2.0 * (y @ lap)
    yb = _to_blocks(y, n)
    gb = _to_blocks(grad, n)
    sym = np.einsum("npa,npb->nab", yb, gb)
    sym = _SKEW * (sym + sym.transpose(0, 2, 1))
    return _from_blocks(gb - yb @ sym)


def _retract(y: np.ndarray, step: np.ndarray, n: int) -> np.ndarray:
    """Per-block retraction: geodesic on SO(3) at p=3, polar factor above."""
    p = y.shape[0]
    yb = _to_blocks(y, n)
    sb = _to_blocks(step, n)
    if p == 3:
        omega_hat = np.einsum("npa,npb->nab", yb, sb)
        omega_hat = _SKEW * (omega_hat - omega_hat.transpose(0, 2, 1))
        omegas = np.column_stack([omega_hat[:, 2, 1], omega_hat[:, 0, 2],
                                  omega_hat[:, 1, 0]])
        return _from_blocks(yb @ so3_exp_batch(omegas))
    u, _, vt = np.linalg.svd(yb + sb, full_matrices=False)
    return _from_blocks(u @ vt)


def _optimize_level(y: np.ndarray, lap: np.ndarray, n: int) -> tuple:
    """Riemannian gradient descent with alternating Barzilai-Borwein steps.

    Steps are accepted nonmonotonically against the worst cost in a trailing
    window (plain monotone backtracking defeats the BB step); backtracking
    only guards against genuine blow-ups.
    """
    degree_bound = float(np.max(np.diag(lap)))
    tau = 1.0 / max(4.0 * degree_bound, 1e-12)
    cost = _cost(y, lap)
    grad = _riemannian_gradient(y, lap, n)
    recent = [cost]
    prev_y = None
    prev_grad = None
    best_y, best_cost = y, cost
    for iteration in range(MAX_ITERATIONS_PER_LEVEL):
        grad_norm = float(np.linalg.norm(grad))
        if grad_norm <= GRADIENT_TOL:
            break
        if prev_y is not None:
            s = y - prev_y
            d = grad - prev_grad
            ss = float(np.sum(s * s))
            sd = float(np.sum(s * d))
            dd = float(np.sum(d * d))
            if iteration % 2 == 0:
                raw = ss / sd if abs(sd) > 1e-30 else tau
            else:
                raw = sd / dd if dd > 1e-30 else tau
            tau = min(max(abs(raw), 1e-12), 1e6)
        reference = max(recent)
        accepted = False
        step_tau = tau
        for _bt in range(60):
            y_try = _retract(y, -step_tau * grad, n)
            cost_try = _cost(y_try, lap)
            if cost_try <= reference - 1e-6 * step_tau * grad_norm ** 2:
                prev_y, prev_grad = y, grad
                y, cost = y_try, cost_try
                grad = _riemannian_gradient(y, lap, n)
                accepted = True
                break
            step_tau *= 0.5
        if not accepted:
            break
        recent.append(cost)
        if len(recent) > 15:
            recent.pop(0)
        if cost < best_cost:
            best_y, best_cost = y, cost
    if cost <= best_cost:
        return y, cost
    return best_y, best_cost


def _certificate(y: np.ndarray, lap: np.ndarray, n: int) -> tuple:
    """(smallest eigenvalue, eigenvector) of the dual certificate matrix."""
    ylap = y @ lap
    cert = lap.copy()
    for b in range(n):
        lam = y[:, 3 * b: 3 * b + 3].T @ ylap[:, 3 * b: 3 * b + 3]
        lam = _SKEW * (lam + lam.T)
        cert[3 * b: 3 * b + 3, 3 * b: 3 * b + 3] -= lam
    vals, vecs = scipy.linalg.eigh(cert, subset_by_index=[0, 0])
    return float(vals[0]), vecs[:, 0]


def _round_solution(y: np.ndarray, n: int) -> list:
    """Rank-3 rounding of the lifted solution with a consistent sign choice."""
    u, _, _ = np.linalg.svd(y, full_matrices=False)
    a = u[:, :3]
    blocks = [a.T @ y[:, 3 * b: 3 * b + 3] for b in range(n)]
    negative = sum(1 for blk in blocks if np.linalg.det(blk) < 0.0)
    flip = np.diag([1.0, 1.0, -1.0]) if negative * 2 > n else np.eye(3)
    return [project_to_so3(flip @ blk) for blk in blocks]


def solve_rotations(problem: RotationAveragingProblem,
                    config: RotationConfig = RotationConfig()) -> RotationSolution:
    """Globally consistent rotations from relative measurements.

    Starts from the spanning-tree composition, optimizes the chordal cost at
    lift level p=3, and climbs one level at a time (escaping along the
    certificate eigenvector) until the optimality check passes or the level
    cap is reached.  The returned rotations are camera-to-world and
    gauge-fixed so the smallest camera id maps to the identity.

    Raises:
        Disconnected: the measurement graph does not reach every camera.
    """
    n = problem.n_cameras
    if n == 0:
        return RotationSolution((), 0.0, True, 3, ())
    lap = _build_laplacian(problem)
    init = spanning_tree_init(problem)
    y = np.concatenate(init, axis=1)  # 3 x 3n

    certified = False
    level_costs = []
    p = 3
    while True:
        y, cost = _optimize_level(y, lap, n)
        level_costs.append(0.5 * cost)
        lam_min, escape_vec = _certificate(y, lap, n)
        if lam_min >= -CERTIFICATE_TOL:
            certified = True
            break
        if p >= config.max_staircase_level:
            break
        # lift one level and move along the negative-curvature direction
        p += 1
        y = np.vstack([y, np.zeros((1, 3 * n))])
        direction = np.zeros_like(y)
        direction[-1, :] = escape_vec
        alpha = 1.0
        base_cost = _cost(y, lap)
        for _ in range(60):
            y_try = _retract(y, alpha * direction, n)
            if _cost(y_try, lap) < base_cost - 1e-14:
                y = y_try
                break
            alpha *= 0.5

    rotations = _round_solution(y, n)
    gauge = rotations[0]
    rotations = [gauge.T @ r for r in rotations]

    final_cost = 0.5 * _cost(np.concatenate(rotations, axis=1), lap)
    return RotationSolution(tuple(rotations), final_cost, certified, p,
                            tuple(level_costs))
