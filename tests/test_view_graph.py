"""Tests for triplet cycle errors, two-stage filtering, and connectivity."""

import math
from collections import deque

import numpy as np
import pytest

from _helpers import MatchStubMeasurement, rotation_graph, so3_exp_random_axis
from globalsfm.geometry import random_rotation
from globalsfm.view_graph import (
    ViewGraph,
    build_view_graph,
    connected_components,
    edge_rotation,
    enumerate_triplets,
    largest_connected_component,
    triplet_cycle_error,
    two_stage_cycle_filter,
)


def random_global_rotations(rng, n):
    return [random_rotation(rng) for _ in range(n)]


def complete_edges(n):
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def lookahead_chain_edges(n):
    """Edges (i, i+1) and (i, i+2): a skeletal graph where (i, i+2) lies in
    a single triplet."""
    return ([(i, i + 1) for i in range(n - 1)]
            + [(i, i + 2) for i in range(n - 2)])


class TestTripletCycleError:
    def test_consistent_triplet_is_zero(self):
        rng = np.random.default_rng(419)
        for _ in range(20):
            rots = random_global_rotations(rng, 3)
            r01 = rots[1].T @ rots[0]
            r12 = rots[2].T @ rots[1]
            r20 = rots[0].T @ rots[2]
            assert triplet_cycle_error(r01, r12, r20) < 1e-9

    def test_identity_triplet(self):
        assert triplet_cycle_error(np.eye(3), np.eye(3), np.eye(3)) == 0.0

    def test_single_exact_perturbation_measured(self):
        rng = np.random.default_rng(421)
        for _ in range(20):
            rots = random_global_rotations(rng, 3)
            r01 = rots[1].T @ rots[0]
            r12 = rots[2].T @ rots[1]
            r20 = rots[0].T @ rots[2]
            r01_bad = so3_exp_random_axis(rng, math.radians(10.0)) @ r01
            assert triplet_cycle_error(r01_bad, r12, r20) == pytest.approx(10.0, abs=1e-6)

    def test_cyclic_permutation_invariance(self):
        rng = np.random.default_rng(431)
        rots = random_global_rotations(rng, 3)
        r01 = so3_exp_random_axis(rng, 0.05) @ (rots[1].T @ rots[0])
        r12 = rots[2].T @ rots[1]
        r20 = rots[0].T @ rots[2]
        e_a = triplet_cycle_error(r01, r12, r20)
        e_b = triplet_cycle_error(r12, r20, r01)
        e_c = triplet_cycle_error(r20, r01, r12)
        assert e_a == pytest.approx(e_b, abs=1e-9)
        assert e_a == pytest.approx(e_c, abs=1e-9)

    def test_reverse_traversal_invariance(self):
        # walking the loop backwards uses transposed edge rotations
        rng = np.random.default_rng(433)
        rots = random_global_rotations(rng, 3)
        r01 = so3_exp_random_axis(rng, 0.1) @ (rots[1].T @ rots[0])
        r12 = rots[2].T @ rots[1]
        r20 = rots[0].T @ rots[2]
        forward = triplet_cycle_error(r01, r12, r20)
        backward = triplet_cycle_error(r20.T, r12.T, r01.T)
        assert forward == pytest.approx(backward, abs=1e-9)


class TestEnumerateTriplets:
    def test_triangle(self):
        rng = np.random.default_rng(439)
        graph = rotation_graph(random_global_rotations(rng, 3), complete_edges(3))
        assert enumerate_triplets(graph) == [(0, 1, 2)]

    def test_complete_graph_count(self):
        rng = np.random.default_rng(443)
        graph = rotation_graph(random_global_rotations(rng, 6), complete_edges(6))
        assert len(enumerate_triplets(graph)) == 20  # C(6, 3)

    def test_chain_has_no_triplets(self):
        rng = np.random.default_rng(449)
        graph = rotation_graph(random_global_rotations(rng, 5),
                               [(i, i + 1) for i in range(4)])
        assert enumerate_triplets(graph) == []

    def test_edge_rotation_directionality(self):
        rng = np.random.default_rng(457)
        rots = random_global_rotations(rng, 2)
        graph = rotation_graph(rots, [(0, 1)])
        np.testing.assert_allclose(edge_rotation(graph, 0, 1),
                                   edge_rotation(graph, 1, 0).T, atol=1e-15)


class TestTwoStageCycleFilter:
    def test_consistent_graph_identity(self):
        rng = np.random.default_rng(461)
        graph = rotation_graph(random_global_rotations(rng, 10), complete_edges(10))
        filtered, records = two_stage_cycle_filter(graph, epsilon_deg=7.0)
        assert set(filtered.edges) == set(graph.edges)
        assert all(r.kept_stage1 and r.kept_stage2 for r in records.values())

    def test_outlier_edges_removed_clean_kept(self):
        for seed in range(5):
            rng = np.random.default_rng(1000 + seed)
            n = 20
            rots = random_global_rotations(rng, n)
            edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                     if j - i <= 5]
            n_out = max(1, len(edges) // 10)
            outlier_idx = rng.choice(len(edges), size=n_out, replace=False)
            perturb = {edges[k]: rng.uniform(30.0, 180.0) for k in outlier_idx}
            graph = rotation_graph(rots, edges, perturb_deg=perturb, rng=rng)
            filtered, _ = two_stage_cycle_filter(graph, epsilon_deg=7.0)
            removed = set(graph.edges) - set(filtered.edges)
            assert set(perturb) <= removed, f"seed {seed}: outliers survived"
            clean = set(graph.edges) - set(perturb)
            kept_clean = len(clean & set(filtered.edges)) / len(clean)
            assert kept_clean >= 0.95, f"seed {seed}: kept only {kept_clean:.2%}"

    def test_single_poisoned_triangle_empties(self):
        rng = np.random.default_rng(463)
        rots = random_global_rotations(rng, 3)
        graph = rotation_graph(rots, complete_edges(3),
                               perturb_deg={(0, 1): 90.0}, rng=rng)
        filtered, records = two_stage_cycle_filter(graph, epsilon_deg=7.0)
        assert filtered.n_edges() == 0
        assert all(not r.kept_stage1 for r in records.values())

    def test_survivors_are_subsets(self):
        rng = np.random.default_rng(467)
        rots = random_global_rotations(rng, 12)
        edges = complete_edges(12)
        perturb = {edges[k]: 45.0 for k in [3, 17, 40]}
        graph = rotation_graph(rots, edges, perturb_deg=perturb, rng=rng,
                               noise_deg=1.0)
        filtered, records = two_stage_cycle_filter(graph, epsilon_deg=7.0)
        assert set(filtered.edges) <= set(graph.edges)
        for record in records.values():
            if record.kept_stage2:
                assert record.kept_stage1
            if record.errors:
                assert record.min_error <= record.median_error + 1e-12

    def test_untestable_edges_kept(self):
        # a dangling edge participates in no triplet and passes untested
        rng = np.random.default_rng(479)
        rots = random_global_rotations(rng, 5)
        edges = complete_edges(4) + [(3, 4)]
        graph = rotation_graph(rots, edges, rng=rng)
        filtered, records = two_stage_cycle_filter(graph, epsilon_deg=7.0)
        assert (3, 4) in filtered.edges
        assert math.isnan(records[(3, 4)].min_error)

    def test_empty_result_is_valid(self):
        rng = np.random.default_rng(487)
        rots = random_global_rotations(rng, 3)
        perturb = {(0, 1): 90.0, (1, 2): 120.0, (0, 2): 60.0}
        graph = rotation_graph(rots, complete_edges(3), perturb_deg=perturb, rng=rng)
        filtered, _ = two_stage_cycle_filter(graph, epsilon_deg=7.0)
        assert filtered.n_edges() == 0
        assert filtered.vertices == graph.vertices


class TestStage1Attribution:
    """Stage 1 blames the edge that explains failing triplets, not all three."""

    @pytest.mark.parametrize("bad", [(5, 6), (4, 6)])
    def test_one_corrupted_interior_edge_removed_alone(self, bad):
        rng = np.random.default_rng(509)
        rots = random_global_rotations(rng, 12)
        graph = rotation_graph(rots, lookahead_chain_edges(12),
                               perturb_deg={bad: 60.0}, rng=rng)
        filtered, records = two_stage_cycle_filter(graph, epsilon_deg=7.0)
        assert set(graph.edges) - set(filtered.edges) == {bad}
        assert not records[bad].kept_stage1
        lcc = largest_connected_component(filtered)
        assert lcc.vertices == graph.vertices

    def test_alternating_corrupted_edges_removed_exactly(self):
        rng = np.random.default_rng(521)
        rots = random_global_rotations(rng, 12)
        bad = {(1, 2): 45.0, (3, 4): 90.0, (5, 6): 120.0}
        graph = rotation_graph(rots, lookahead_chain_edges(12),
                               perturb_deg=bad, rng=rng)
        filtered, records = two_stage_cycle_filter(graph, epsilon_deg=7.0)
        assert set(graph.edges) - set(filtered.edges) == set(bad)
        assert {e for e, r in records.items() if not r.kept_stage1} == set(bad)
        lcc = largest_connected_component(filtered)
        assert lcc.vertices == graph.vertices

    def test_corrupted_chords_around_clean_edge_removed(self):
        # (5, 6) lies in both failing triplets and each chord in one, the
        # shape of a corrupted (5, 6) between clean chords with the roles
        # swapped; the paths around (5, 6) disagree, so nothing is blamed on
        # evidence and both triplets drop their unconfirmed edges.
        rng = np.random.default_rng(523)
        rots = random_global_rotations(rng, 12)
        bad = {(4, 6): 60.0, (5, 7): 90.0}
        graph = rotation_graph(rots, lookahead_chain_edges(12),
                               perturb_deg=bad, rng=rng)
        filtered, records = two_stage_cycle_filter(graph, epsilon_deg=7.0)
        assert not set(bad) & set(filtered.edges)
        assert {e for e, r in records.items() if not r.kept_stage1} == (
            set(bad) | {(5, 6)})


def bfs_labels(n_nodes, a, b):
    """Smallest member of every node's component, by breadth-first search."""
    adjacency = [[] for _ in range(n_nodes)]
    for u, v in zip(a, b):
        adjacency[u].append(v)
        adjacency[v].append(u)
    labels = [-1] * n_nodes
    for start in range(n_nodes):
        if labels[start] >= 0:
            continue
        labels[start] = start
        queue = deque([start])
        while queue:
            for v in adjacency[queue.popleft()]:
                if labels[v] < 0:
                    labels[v] = start
                    queue.append(v)
    return np.array(labels, dtype=np.intp)


class TestConnectedComponents:
    def test_matches_bfs_oracle_on_random_graphs(self):
        rng = np.random.default_rng(509)
        for trial in range(200):
            n = int(rng.integers(1, 80))
            m = int(rng.integers(0, 2 * n))
            a, b = rng.integers(0, n, size=(2, m))
            np.testing.assert_array_equal(connected_components(n, a, b),
                                          bfs_labels(n, a, b),
                                          err_msg=f"trial {trial}")

    def test_isolated_nodes_self_loops_and_repeated_edges(self):
        a = [3, 3, 5, 5, 1, 7]
        b = [3, 5, 3, 3, 1, 5]
        labels = connected_components(9, a, b)
        np.testing.assert_array_equal(labels, [0, 1, 2, 3, 4, 3, 6, 3, 8])
        np.testing.assert_array_equal(labels, bfs_labels(9, a, b))

    def test_zero_nodes(self):
        labels = connected_components(0, [], [])
        assert labels.shape == (0,)

    def test_zero_edges(self):
        np.testing.assert_array_equal(
            connected_components(4, np.empty(0, int), np.empty(0, int)),
            np.arange(4))

    def test_shuffled_long_path(self):
        rng = np.random.default_rng(521)
        path = rng.permutation(100_000)
        labels = connected_components(len(path), path[:-1], path[1:])
        assert not labels.any()


class TestLargestConnectedComponent:
    def test_connected_graph_unchanged(self):
        rng = np.random.default_rng(491)
        graph = rotation_graph(random_global_rotations(rng, 6), complete_edges(6))
        lcc = largest_connected_component(graph)
        assert lcc.vertices == graph.vertices
        assert set(lcc.edges) == set(graph.edges)

    def test_larger_component_wins(self):
        rng = np.random.default_rng(499)
        rots = random_global_rotations(rng, 8)
        edges = [(0, 1), (1, 2), (2, 3), (3, 4), (5, 6), (6, 7)]
        graph = rotation_graph(rots, edges, rng=rng)
        lcc = largest_connected_component(graph)
        assert lcc.vertices == (0, 1, 2, 3, 4)

    def test_tie_breaks_to_smallest_vertex(self):
        rng = np.random.default_rng(503)
        rots = random_global_rotations(rng, 8)
        edges = [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (6, 7)]
        graph = rotation_graph(rots, edges, rng=rng)
        lcc = largest_connected_component(graph)
        assert lcc.vertices == (0, 1, 2, 3)

    def test_isolated_vertices_are_singletons(self):
        graph = build_view_graph(
            [MatchStubMeasurement((0, 1), np.eye(3))], n_cameras=4)
        lcc = largest_connected_component(graph)
        assert lcc.vertices == (0, 1)

    def test_empty_graph(self):
        lcc = largest_connected_component(ViewGraph((), {}))
        assert lcc.vertices == ()
        assert lcc.n_edges() == 0
