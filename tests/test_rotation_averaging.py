"""Tests for spanning-tree initialization and staircase rotation averaging."""

import math

import numpy as np
import pytest

from _helpers import so3_exp_random_axis
from globalsfm import rotation_averaging
from globalsfm.errors import Disconnected
from globalsfm.geometry import is_rotation, random_rotation, rotation_angular_error
from globalsfm.rotation_averaging import (
    RotationAveragingProblem,
    RotationConfig,
    kappa_from_sigma,
    solve_rotations,
    spanning_tree_init,
)


def consistent_problem(rng, n_cameras, edge_list, kappa=100.0, noise_deg=0.0,
                       gt_rotations=None):
    """Problem built from ground-truth camera-to-world rotations."""
    if gt_rotations is None:
        gt_rotations = [random_rotation(rng) for _ in range(n_cameras)]
    edges = []
    for i, j in edge_list:
        rel = gt_rotations[j].T @ gt_rotations[i]  # maps frame i into frame j
        if noise_deg > 0.0:
            rel = so3_exp_random_axis(rng, math.radians(noise_deg)) @ rel
        edges.append((i, j, rel, kappa))
    return RotationAveragingProblem(tuple(edges), n_cameras), gt_rotations


def gauge_fixed(rotations):
    g = rotations[0]
    return [g.T @ r for r in rotations]


def ring_edges(n, extra_hops=(2, 3)):
    edges = [(i, (i + 1) % n) for i in range(n)]
    for hop in extra_hops:
        edges.extend((i, (i + hop) % n) for i in range(n))
    return sorted({(min(i, j), max(i, j)) for i, j in edges})


class TestKappa:
    def test_inverse_square(self):
        assert kappa_from_sigma(0.1) == pytest.approx(100.0)
        assert kappa_from_sigma(1.0) == pytest.approx(1.0)

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            kappa_from_sigma(0.0)


class TestSpanningTreeInit:
    def test_chain_composes_exactly(self):
        rng = np.random.default_rng(521)
        problem, gt = consistent_problem(rng, 3, [(0, 1), (1, 2)])
        init = spanning_tree_init(problem)
        expected = gauge_fixed(gt)
        for a, b in zip(init, expected):
            assert rotation_angular_error(a, b) < 1e-10

    def test_noise_free_cycles_consistent(self):
        rng = np.random.default_rng(523)
        problem, _ = consistent_problem(rng, 10, ring_edges(10))
        init = spanning_tree_init(problem)
        for i, j, rel, _ in problem.edges:
            residual = rotation_angular_error(init[j].T @ init[i], rel)
            assert residual < 1e-9

    def test_single_camera(self):
        problem = RotationAveragingProblem((), 1)
        init = spanning_tree_init(problem)
        assert len(init) == 1
        np.testing.assert_allclose(init[0], np.eye(3))

    def test_disconnected_raises(self):
        rng = np.random.default_rng(541)
        problem, _ = consistent_problem(rng, 4, [(0, 1)])
        with pytest.raises(Disconnected):
            spanning_tree_init(problem)


class TestSolveRotations:
    def test_noise_free_exact_and_certified(self):
        rng = np.random.default_rng(547)
        problem, gt = consistent_problem(rng, 20, ring_edges(20), kappa=100.0)
        solution = solve_rotations(problem)
        assert solution.certified
        assert solution.p_final == 3
        assert solution.cost < 1e-12
        expected = gauge_fixed(gt)
        worst = max(rotation_angular_error(a, b)
                    for a, b in zip(solution.rotations, expected))
        assert worst < 1e-6

    def test_two_cameras_reproduce_measurement(self):
        rng = np.random.default_rng(557)
        rel = random_rotation(rng)
        problem = RotationAveragingProblem(((0, 1, rel, 1.0),), 2)
        solution = solve_rotations(problem)
        np.testing.assert_allclose(solution.rotations[0], np.eye(3), atol=1e-9)
        # measurement maps frame 0 to frame 1: R_1^T R_0 = rel
        np.testing.assert_allclose(solution.rotations[1].T, rel, atol=1e-9)

    def test_noisy_solution_beats_spanning_tree(self):
        for seed in range(5):
            rng = np.random.default_rng(5600 + seed)
            problem, gt = consistent_problem(rng, 20, ring_edges(20),
                                             kappa=1.0, noise_deg=2.0)
            expected = gauge_fixed(gt)
            tree = gauge_fixed(spanning_tree_init(problem))
            solution = solve_rotations(problem)
            tree_err = np.mean([rotation_angular_error(a, b)
                                for a, b in zip(tree, expected)])
            avg_err = np.mean([rotation_angular_error(a, b)
                               for a, b in zip(solution.rotations, expected)])
            assert avg_err < tree_err, f"seed {seed}: {avg_err} >= {tree_err}"

    def test_gauge_invariance_of_measurements(self):
        rng = np.random.default_rng(563)
        gt = [random_rotation(rng) for _ in range(8)]
        fixed_q = random_rotation(rng)
        problem_a, _ = consistent_problem(rng, 8, ring_edges(8), gt_rotations=gt)
        problem_b, _ = consistent_problem(rng, 8, ring_edges(8),
                                          gt_rotations=[fixed_q @ r for r in gt])
        sol_a = solve_rotations(problem_a)
        sol_b = solve_rotations(problem_b)
        for a, b in zip(sol_a.rotations, sol_b.rotations):
            np.testing.assert_allclose(a, b, atol=1e-9)

    def test_forced_staircase_costs_monotone(self, monkeypatch):
        # an impossible certificate tolerance forces a climb through every
        # level; re-optimized costs must never increase
        monkeypatch.setattr(rotation_averaging, "CERTIFICATE_TOL", -1.0)
        rng = np.random.default_rng(569)
        problem, _ = consistent_problem(rng, 6, ring_edges(6, extra_hops=(2,)),
                                        kappa=1.0, noise_deg=25.0)
        config = RotationConfig(max_staircase_level=8)
        solution = solve_rotations(problem, config)
        assert not solution.certified
        assert solution.p_final == 8
        costs = solution.level_costs
        assert len(costs) == 6  # levels 3..8
        for lo, hi in zip(costs[1:], costs[:-1]):
            assert lo <= hi + 1e-9

    def test_cost_matches_direct_formula(self):
        rng = np.random.default_rng(577)
        problem, _ = consistent_problem(rng, 10, ring_edges(10), kappa=2.5,
                                        noise_deg=3.0)
        solution = solve_rotations(problem)
        direct = 0.0
        for i, j, rel, kappa in problem.edges:
            m = rel.T  # measurement of R_i^T R_j
            direct += kappa * (3.0 - np.trace(
                m.T @ solution.rotations[i].T @ solution.rotations[j]))
        assert solution.cost == pytest.approx(direct, abs=1e-9)

    def test_rounded_outputs_are_rotations(self):
        rng = np.random.default_rng(587)
        problem, _ = consistent_problem(rng, 12, ring_edges(12), kappa=1.0,
                                        noise_deg=10.0)
        solution = solve_rotations(problem)
        for r in solution.rotations:
            assert is_rotation(r, tol=1e-8)

    def test_disconnected_raises(self):
        rng = np.random.default_rng(593)
        problem, _ = consistent_problem(rng, 4, [(0, 1), (2, 3)])
        with pytest.raises(Disconnected):
            solve_rotations(problem)

    def test_empty_problem(self):
        solution = solve_rotations(RotationAveragingProblem((), 0))
        assert solution.rotations == ()
        assert solution.certified


class TestProblemValidation:
    def test_bad_kappa_rejected(self):
        with pytest.raises(ValueError):
            RotationAveragingProblem(((0, 1, np.eye(3), 0.0),), 2)

    def test_bad_endpoints_rejected(self):
        with pytest.raises(ValueError):
            RotationAveragingProblem(((0, 2, np.eye(3), 1.0),), 2)
