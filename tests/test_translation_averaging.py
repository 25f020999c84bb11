"""Tests for direction-based position recovery and MFAS outlier filtering."""

import itertools

import numpy as np
import pytest

from _helpers import recording_core, replay_one_problem
from globalsfm import translation_averaging
from globalsfm.bundle_adjustment import block_jacobian
from globalsfm.errors import Disconnected, Underconstrained
from globalsfm.geometry import normalized
from globalsfm.translation_averaging import (
    KIND_CAMERA,
    KIND_LANDMARK,
    DirectionMeasurement,
    TranslationSolution,
    camera_direction_measurements,
    mfas_filter,
    mfas_projection_axes,
    mfas_projection_violations,
    solve_translations,
)


def cam_dir(a, b, cams):
    return DirectionMeasurement(KIND_CAMERA, a, b,
                                normalized(cams[b] - cams[a]))


def lm_dir(cam_id, lm_key, cams, lms):
    return DirectionMeasurement(KIND_LANDMARK, cam_id, lm_key,
                                normalized(lms[lm_key] - cams[cam_id]))


def build_network(seed, n_cameras=20, n_landmarks=10, views_per_landmark=5,
                  hops=(1, 2), noise_deg=0.0):
    """Direction network over a random scene, optionally with angular noise.

    Camera-camera directions cover a ring with chords at the given hop
    distances; each landmark is observed from several cameras.  Returns
    (measurements, camera positions, landmark positions keyed by track id).
    """
    rng = np.random.default_rng(seed)
    cams = rng.normal(scale=3.0, size=(n_cameras, 3))
    lms = {100 + t: rng.normal(scale=3.0, size=3) for t in range(n_landmarks)}

    def bump(u):
        if noise_deg == 0.0:
            return u
        return normalized(u + rng.normal(scale=np.deg2rad(noise_deg), size=3))

    measurements = []
    for i in range(n_cameras):
        for hop in hops:
            j = (i + hop) % n_cameras
            a, b = min(i, j), max(i, j)
            measurements.append(DirectionMeasurement(
                KIND_CAMERA, a, b, bump(normalized(cams[b] - cams[a]))))
    for key in sorted(lms):
        viewers = rng.choice(n_cameras, size=views_per_landmark, replace=False)
        for cam_id in sorted(int(v) for v in viewers):
            measurements.append(DirectionMeasurement(
                KIND_LANDMARK, cam_id, key,
                bump(normalized(lms[key] - cams[cam_id]))))
    return measurements, cams, lms


def gauge_expected(cams, measurements):
    """Ground truth mapped into the solver gauge (cam 0 origin, unit mean baseline)."""
    shifted = cams - cams[0]
    baselines = [np.linalg.norm(shifted[m.b] - shifted[m.a])
                 for m in measurements if m.kind == KIND_CAMERA]
    return shifted / np.mean(baselines)


class TestDirectionMeasurement:

    @pytest.mark.parametrize("direction", [
        [1.0, 1.0, 0.0], [np.nan, 0.0, 0.0], [np.inf, 0.0, 0.0],
        [1.0, -np.inf, 0.0]], ids=["non-unit", "nan", "inf", "minus-inf"])
    def test_rejects_non_unit_direction(self, direction):
        with pytest.raises(ValueError, match="unit norm"):
            DirectionMeasurement(KIND_CAMERA, 0, 1, np.array(direction))

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            DirectionMeasurement("camera-plane", 0, 1, np.array([1.0, 0, 0]))

    def test_rejects_self_edge(self):
        with pytest.raises(ValueError, match="distinct"):
            DirectionMeasurement(KIND_CAMERA, 2, 2, np.array([1.0, 0, 0]))

    def test_landmark_and_camera_nodes_are_distinct(self):
        m = DirectionMeasurement(KIND_LANDMARK, 1, 1, np.array([1.0, 0, 0]))
        assert m.node_a() != m.node_b()


class TestCameraDirectionHelper:

    def test_matches_world_frame_baseline(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            from globalsfm.geometry import random_rotation

            rot_i = random_rotation(rng)
            rot_j = random_rotation(rng)
            c_i = rng.normal(size=3)
            c_j = rng.normal(size=3)

            class Stub:
                pair = (0, 1)
                direction = normalized(rot_j.T @ (c_i - c_j))

            (m,) = camera_direction_measurements([Stub()], [rot_i, rot_j])
            np.testing.assert_allclose(m.direction, normalized(c_j - c_i),
                                       atol=1e-12)


def exhaustive_min_feedback(n_nodes, tails, heads, weights):
    """Minimum backward weight over all node orders (oracle, small n only)."""
    best = np.inf
    for perm in itertools.permutations(range(n_nodes)):
        pos = np.empty(n_nodes, dtype=int)
        for slot, node in enumerate(perm):
            pos[node] = slot
        backward = float(np.sum(weights[pos[tails] > pos[heads]]))
        best = min(best, backward)
    return best


class TestMfasFilter:

    def test_noise_free_network_removes_nothing(self):
        measurements, _, _ = build_network(seed=1)
        kept, frac = mfas_filter(measurements, n_projections=48, seed=3)
        assert len(kept) == len(measurements)
        assert float(np.max(frac)) < 1e-12

    def reversed_collinear_instance(self):
        """Three collinear cameras; the long-range direction is reversed.

        Adjacent links are duplicated so the greedy order prefers breaking
        the single reversed arc (the cheapest feedback set) in every
        projection with a nonzero component along the line.
        """
        cams = np.array([[0.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0]])
        good = [cam_dir(0, 1, cams), cam_dir(0, 1, cams),
                cam_dir(1, 2, cams), cam_dir(1, 2, cams)]
        flipped = DirectionMeasurement(
            KIND_CAMERA, 0, 2, -normalized(cams[2] - cams[0]))
        return good + [flipped]

    def test_reversed_direction_has_strictly_highest_violation(self):
        measurements = self.reversed_collinear_instance()
        kept, frac = mfas_filter(measurements, n_projections=48, seed=5)
        assert frac[4] > max(frac[:4])
        assert float(np.max(frac[:4])) < 1e-12
        assert frac[4] > 0.9
        assert kept == measurements[:4]

    def test_greedy_matches_exhaustive_order_enumeration(self):
        """Greedy feedback weight equals the 3-node optimum on every axis,
        with all 48 axes in one lockstep call."""
        measurements = self.reversed_collinear_instance()
        ends_a = np.array([0, 0, 1, 1, 0])
        ends_b = np.array([1, 1, 2, 2, 2])
        dirs = np.array([m.direction for m in measurements])
        axes = mfas_projection_axes(48, seed=5)
        viol, weights = mfas_projection_violations(axes, ends_a, ends_b, dirs,
                                                   3)
        assert viol.shape == weights.shape == (48, 5)
        for axis, axis_viol in zip(axes, viol):
            w = dirs @ axis
            tails = np.where(w >= 0.0, ends_a, ends_b)
            heads = np.where(w >= 0.0, ends_b, ends_a)
            optimal = exhaustive_min_feedback(3, tails, heads, np.abs(w))
            assert float(np.sum(axis_viol)) == pytest.approx(optimal,
                                                             abs=1e-12)

    def test_seed_determinism(self):
        measurements, _, _ = build_network(seed=2, n_cameras=8, n_landmarks=3)
        _, frac_a = mfas_filter(measurements, n_projections=16, seed=11)
        _, frac_b = mfas_filter(measurements, n_projections=16, seed=11)
        assert np.array_equal(frac_a, frac_b)

    def test_landmark_node_does_not_collide_with_camera_id(self):
        cams = np.array([[0.0, 0, 0], [1.0, 0, 0]])
        lms = {1: np.array([0.5, 1.0, 0.0])}
        measurements = [cam_dir(0, 1, cams), lm_dir(0, 1, cams, lms),
                        lm_dir(1, 1, cams, lms)]
        kept, frac = mfas_filter(measurements, n_projections=24, seed=0)
        assert len(kept) == 3
        assert float(np.max(frac)) < 1e-12

    def test_empty_input_raises(self):
        with pytest.raises(ValueError):
            mfas_filter([], n_projections=8, seed=0)


def reference_greedy_order(n_nodes, tails, heads, weights):
    """The one-axis greedy order the lockstep kernel replaced (reference)."""
    in_w = np.zeros(n_nodes)
    out_w = np.zeros(n_nodes)
    np.add.at(in_w, heads, weights)
    np.add.at(out_w, tails, weights)
    remaining = np.ones(n_nodes, dtype=bool)
    order_pos = np.empty(n_nodes, dtype=int)
    for position in range(n_nodes):
        active = np.nonzero(remaining)[0]
        act_in = in_w[active]
        sources = active[act_in <= 1e-12]
        if len(sources):
            pick = int(sources[int(np.argmax(out_w[sources]))])
        else:
            ratio = (1.0 + out_w[active]) / (1.0 + act_in)
            pick = int(active[int(np.argmax(ratio))])
        order_pos[pick] = position
        remaining[pick] = False
        from_pick = (tails == pick) & remaining[heads]
        into_pick = (heads == pick) & remaining[tails]
        np.add.at(in_w, heads[from_pick], -weights[from_pick])
        np.add.at(out_w, tails[into_pick], -weights[into_pick])
    return order_pos


def reference_projection_pass(axis, ends_a, ends_b, dirs, n_nodes):
    """One axis's (violation, weight) per measurement, as the per-axis loop
    computed them (reference)."""
    w = dirs @ axis
    tails = np.where(w >= 0.0, ends_a, ends_b)
    heads = np.where(w >= 0.0, ends_b, ends_a)
    weights = np.abs(w)
    order_pos = reference_greedy_order(n_nodes, tails, heads, weights)
    backward = order_pos[tails] > order_pos[heads]
    return np.where(backward, weights, 0.0), weights


def reference_mfas_filter(measurements, n_projections, seed,
                          rejection_ratio=0.1):
    """``mfas_filter`` as a loop of one-axis passes summed in axis order
    (reference)."""
    nodes = sorted({m.node_a() for m in measurements}
                   | {m.node_b() for m in measurements})
    node_index = {node: k for k, node in enumerate(nodes)}
    ends_a = np.array([node_index[m.node_a()] for m in measurements])
    ends_b = np.array([node_index[m.node_b()] for m in measurements])
    dirs = np.array([m.direction for m in measurements])
    violation = np.zeros(len(measurements))
    total_weight = np.zeros(len(measurements))
    for axis in mfas_projection_axes(n_projections, seed):
        viol, weights = reference_projection_pass(axis, ends_a, ends_b, dirs,
                                                  len(nodes))
        violation += viol
        total_weight += weights
    frac = violation / np.maximum(total_weight, 1e-30)
    kept = [m for m, f in zip(measurements, frac) if f <= rejection_ratio]
    return kept, frac


def assert_same_bits(actual, expected):
    assert actual.dtype == expected.dtype and actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


def random_direction_network(rng, n_cameras, n_landmarks, n_measurements,
                             outlier_fraction=0.2):
    """Random camera-camera and camera-landmark directions with noise and
    outliers, some measured several times between the same nodes (each
    with its own noise), and camera pairs also both ways round."""
    cams = rng.normal(scale=3.0, size=(n_cameras, 3))
    lms = rng.normal(scale=3.0, size=(max(n_landmarks, 1), 3))
    measurements = []
    while len(measurements) < n_measurements:
        a = int(rng.integers(n_cameras))
        if n_landmarks and rng.random() < 0.5:
            key = int(rng.integers(n_landmarks))
            kind, b, target = KIND_LANDMARK, key, lms[key]
        else:
            b = int((a + rng.integers(1, n_cameras)) % n_cameras)
            kind, target = KIND_CAMERA, cams[b]
        sign = -1.0 if rng.random() < outlier_fraction else 1.0
        for _ in range(int(rng.integers(1, 4))):
            u = sign * normalized(target - cams[a]
                                  + rng.normal(scale=0.05, size=3))
            measurements.append(DirectionMeasurement(kind, a, b, u))
        if kind == KIND_CAMERA and rng.random() < 0.3:
            measurements.append(DirectionMeasurement(kind, b, a, -u))
    return measurements


class TestLockstepKernel:
    """The lockstep kernel against the one-axis loop, bit for bit."""

    def assert_matches_per_axis_loop(self, axes, ends_a, ends_b, dirs,
                                     n_nodes):
        viol, weights = mfas_projection_violations(axes, ends_a, ends_b, dirs,
                                                   n_nodes)
        assert viol.shape == weights.shape == (len(axes), len(dirs))
        forward = np.array([dirs @ axis >= 0.0 for axis in axes])
        orders = translation_averaging._greedy_orders(n_nodes, ends_a, ends_b,
                                                      forward, weights)
        for k, axis in enumerate(axes):
            ref_viol, ref_weights = reference_projection_pass(
                axis, ends_a, ends_b, dirs, n_nodes)
            assert_same_bits(viol[k], ref_viol)
            assert_same_bits(weights[k], ref_weights)
            assert_same_bits(orders[k], reference_greedy_order(
                n_nodes, np.where(forward[k], ends_a, ends_b),
                np.where(forward[k], ends_b, ends_a), weights[k]))

    @pytest.mark.parametrize("seed", range(12))
    def test_filter_matches_per_axis_loop(self, seed):
        rng = np.random.default_rng([71, seed])
        measurements = random_direction_network(
            rng, n_cameras=int(rng.integers(2, 12)),
            n_landmarks=int(rng.integers(0, 10)),
            n_measurements=int(rng.integers(1, 90)))
        n_projections = int(rng.integers(1, 49))
        kept, frac = mfas_filter(measurements, n_projections, seed=seed)
        ref_kept, ref_frac = reference_mfas_filter(measurements,
                                                   n_projections, seed)
        assert_same_bits(frac, ref_frac)
        assert len(kept) == len(ref_kept)
        assert all(m is ref for m, ref in zip(kept, ref_kept))

    def test_zero_weights_and_ties_match_per_axis_loop(self):
        """Axis-aligned directions on coordinate and diagonal axes: some
        project to exactly zero, and out-weights and ratios tie."""
        basis = np.eye(3)
        diagonal = normalized(np.array([1.0, 1.0, 0.0]))
        dirs = np.array([basis[0], basis[1], basis[1], -basis[0], basis[2],
                         diagonal, -diagonal, basis[0], basis[2], -basis[1]])
        ends_a = np.array([0, 1, 2, 3, 4, 0, 5, 2, 3, 5])
        ends_b = np.array([1, 2, 3, 0, 5, 4, 1, 5, 0, 3])
        axes = np.vstack([basis, diagonal, normalized(np.ones(3)),
                          mfas_projection_axes(8, seed=2)])
        assert np.count_nonzero(dirs @ basis[2] == 0.0) >= 5
        self.assert_matches_per_axis_loop(axes, ends_a, ends_b, dirs, 6)

    def test_retired_arcs_are_subtracted_in_arc_order(self):
        """Arcs 0-2 join nodes 0 and 1 in alternating orientation.  Only
        when node 0's arcs are subtracted from node 1's in-weight in arc
        order do nodes 1 and 2 tie exactly in ratio at the second step, and
        node 1, the first index, wins."""
        ends_a = np.array([0, 1, 0, 1, 2, 3])
        ends_b = np.array([1, 0, 1, 2, 3, 1])
        forward = np.array([[True, False, True, True, True, True]])
        weights = np.array([[0.464, 0.279, 0.182, 0.622, 0.9217560262965667,
                             0.369]])
        tails = np.where(forward[0], ends_a, ends_b)
        heads = np.where(forward[0], ends_b, ends_a)
        order = translation_averaging._greedy_orders(4, ends_a, ends_b,
                                                     forward, weights)
        assert order[0].tolist() == [0, 1, 2, 3]
        assert order[0].tolist() == reference_greedy_order(
            4, tails, heads, weights[0]).tolist()

    def test_one_axis(self):
        rng = np.random.default_rng(5)
        dirs = rng.normal(size=(30, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        ends_a = rng.integers(0, 8, size=30)
        ends_b = (ends_a + rng.integers(1, 8, size=30)) % 8
        self.assert_matches_per_axis_loop(mfas_projection_axes(1, seed=4),
                                          ends_a, ends_b, dirs, 8)

    def test_single_measurement_between_two_nodes(self):
        u = normalized(np.array([0.2, -0.5, 0.7]))
        self.assert_matches_per_axis_loop(
            mfas_projection_axes(48, seed=0), np.array([0]), np.array([1]),
            u[None], 2)
        kept, frac = mfas_filter([DirectionMeasurement(KIND_CAMERA, 3, 7, u)])
        assert len(kept) == 1 and frac.tolist() == [0.0]

    def test_two_nodes_measured_both_ways(self):
        """Opposed arcs between one pair of nodes: a cycle on every axis."""
        u = normalized(np.array([0.3, 0.1, -0.9]))
        dirs = np.array([u, u, -u, u])
        self.assert_matches_per_axis_loop(
            mfas_projection_axes(48, seed=1), np.array([0, 0, 0, 1]),
            np.array([1, 1, 1, 0]), dirs, 2)


class TestSolveTranslations:

    def test_two_cameras_single_direction_unit_baseline(self):
        u = normalized(np.array([0.3, -0.4, 0.85]))
        measurements = [DirectionMeasurement(KIND_CAMERA, 0, 1, u)]
        sol = solve_translations(measurements, n_cameras=2)
        np.testing.assert_allclose(sol.positions[0], np.zeros(3), atol=1e-12)
        np.testing.assert_allclose(sol.positions[1], u, atol=1e-9)
        assert np.linalg.norm(sol.positions[1] - sol.positions[0]) == \
            pytest.approx(1.0, abs=1e-9)

    def test_noise_free_network_recovered_exactly(self):
        measurements, cams, lms = build_network(seed=4)
        sol = solve_translations(measurements, n_cameras=len(cams))
        expected = gauge_expected(cams, measurements)
        scene = float(np.max(np.linalg.norm(expected, axis=1)))
        err = np.max(np.linalg.norm(sol.positions - expected, axis=1))
        assert err / scene < 1e-6
        shift, scale = cams[0], None
        baselines = [np.linalg.norm(cams[m.b] - cams[m.a])
                     for m in measurements if m.kind == KIND_CAMERA]
        scale = float(np.mean(baselines))
        for key, gt in lms.items():
            est = sol.landmarks[key]
            np.testing.assert_allclose(est, (gt - shift) / scale,
                                       atol=1e-6 * scene)

    def test_gauge_constraints_hold(self):
        measurements, cams, _ = build_network(seed=9, n_cameras=10,
                                              n_landmarks=4)
        sol = solve_translations(measurements, n_cameras=len(cams))
        np.testing.assert_allclose(sol.positions[0], np.zeros(3), atol=1e-12)
        baselines = [np.linalg.norm(sol.positions[m.b] - sol.positions[m.a])
                     for m in sol.measurements if m.kind == KIND_CAMERA]
        assert float(np.mean(baselines)) == pytest.approx(1.0, abs=1e-9)

    def test_landmark_rays_reproduced(self):
        measurements, cams, _ = build_network(seed=6, n_cameras=12,
                                              n_landmarks=6)
        sol = solve_translations(measurements, n_cameras=len(cams))
        for m in sol.measurements:
            if m.kind != KIND_LANDMARK:
                continue
            ray = normalized(sol.landmarks[m.b] - sol.positions[m.a])
            np.testing.assert_allclose(ray, m.direction, atol=1e-9)

    @pytest.mark.parametrize("seed", [8, 18, 28])
    def test_flipped_direction_bounded_under_huber_not_l2(self, seed):
        """One 180-degree flipped direction: the robust loss caps its pull.

        An exactly antipodal direction at the clean optimum is radial and the
        normalization Jacobian annihilates it, so a small amount of angular
        noise keeps the comparison meaningful.  The flipped-vs-clean position
        change stays within five times the clean residual level under Huber,
        while the plain least-squares solve drifts far beyond that.
        """
        measurements, cams, _ = build_network(
            seed=seed, n_cameras=20, n_landmarks=0, hops=(1, 2, 3),
            noise_deg=0.5)
        clean = solve_translations(measurements, n_cameras=20)
        clean_res = []
        for m in measurements:
            diff = clean.positions[m.b] - clean.positions[m.a]
            clean_res.append(np.linalg.norm(
                m.direction - diff / np.linalg.norm(diff)))
        clean_level = float(np.sqrt(np.mean(np.square(clean_res))))

        flipped = list(measurements)
        victim = flipped[7]
        flipped[7] = DirectionMeasurement(victim.kind, victim.a, victim.b,
                                          -victim.direction)
        huber_sol = solve_translations(flipped, n_cameras=20)
        l2_sol = solve_translations(flipped, n_cameras=20,
                                    huber_delta=None)

        err_huber = float(np.max(np.linalg.norm(
            huber_sol.positions - clean.positions, axis=1)))
        err_l2 = float(np.max(np.linalg.norm(
            l2_sol.positions - clean.positions, axis=1)))
        assert err_huber <= 5.0 * clean_level
        assert err_l2 > 5.0 * err_huber

    def test_seed_determinism(self):
        measurements, cams, _ = build_network(seed=5, n_cameras=10,
                                              n_landmarks=0)
        rng = np.random.default_rng(0)
        noisy = []
        for m in measurements:
            bumped = normalized(m.direction + rng.normal(scale=0.01, size=3))
            noisy.append(DirectionMeasurement(m.kind, m.a, m.b, bumped))
        sol_a = solve_translations(noisy, n_cameras=10)
        sol_b = solve_translations(noisy, n_cameras=10)
        assert np.array_equal(sol_a.positions, sol_b.positions)

    @pytest.mark.parametrize("network",
                             ["open-chain", "straight-path", "noisy-path"])
    def test_open_chain_raises_underconstrained(self, network):
        """A chain with a bend, and a 6-camera straight path with chords.

        The noise-free path makes the linear surrogate singular; with 1e-3
        direction noise the surrogate solves and the rank test at the
        solution catches the freedom left.
        """
        if network == "open-chain":
            measurements = [
                DirectionMeasurement(KIND_CAMERA, 0, 1, np.array([1.0, 0, 0])),
                DirectionMeasurement(KIND_CAMERA, 1, 2, np.array([0.0, 1, 0])),
            ]
        else:
            rng = np.random.default_rng(4)
            noise = 1e-3 if network == "noisy-path" else 0.0
            cams = np.outer(np.arange(6.0), [1.0, 0.0, 0.0])
            measurements = []
            for i, hop in itertools.product(range(6), (1, 2)):
                if i + hop < 6:
                    u = normalized(cams[i + hop] - cams[i])
                    measurements.append(DirectionMeasurement(
                        KIND_CAMERA, i, i + hop,
                        normalized(u + rng.normal(scale=noise, size=3))))
        with pytest.raises(Underconstrained):
            solve_translations(measurements, n_cameras=1 + max(
                m.b for m in measurements))

    def test_disconnected_raises(self):
        measurements = [
            DirectionMeasurement(KIND_CAMERA, 0, 1, np.array([1.0, 0, 0])),
            DirectionMeasurement(KIND_CAMERA, 2, 3, np.array([0.0, 1, 0])),
        ]
        with pytest.raises(Disconnected):
            solve_translations(measurements, n_cameras=4)

    def test_no_measurements_raises(self):
        with pytest.raises(Disconnected):
            solve_translations([], n_cameras=2)

    def test_solution_fields(self):
        measurements, cams, _ = build_network(seed=3, n_cameras=6,
                                              n_landmarks=2)
        sol = solve_translations(measurements, n_cameras=6)
        assert isinstance(sol, TranslationSolution)
        assert sol.positions.shape == (6, 3)
        assert np.all(np.isfinite(sol.positions))
        assert sol.cost >= 0.0
        assert len(sol.measurements) == len(measurements)

    def test_rank_test_jacobian_matches_central_differences(self,
                                                             monkeypatch):
        """The Jacobian assembled for the rank test from the core's blocks,
        on a network of camera-camera and camera-landmark rows."""
        measurements, cams, _ = build_network(seed=12, n_cameras=6,
                                              n_landmarks=4, noise_deg=2.0)
        assert {m.kind for m in measurements} == {KIND_CAMERA, KIND_LANDMARK}
        captured = {}
        core = translation_averaging.levenberg_marquardt

        def spy(state, evaluate, retract, structure, huber_px):
            captured.update(evaluate=evaluate, structure=structure)
            return core(state, evaluate, retract, structure, huber_px)

        monkeypatch.setattr(translation_averaging, "levenberg_marquardt", spy)
        solve_translations(measurements, n_cameras=len(cams))
        evaluate, structure = captured["evaluate"], captured["structure"]

        rng = np.random.default_rng(13)
        n_nodes = len(cams) + structure.n_points
        positions = rng.normal(scale=3.0, size=(n_nodes, 3))
        jac = block_jacobian(evaluate(positions)[1](), structure).toarray()
        assert jac.shape == (3 * len(measurements), 3 * (n_nodes - 1))

        step = 1e-6
        numeric = np.zeros_like(jac)
        for col in range(jac.shape[1]):
            node, axis = divmod(col, 3)
            bumped = [positions.copy(), positions.copy()]
            bumped[0][node + 1, axis] += step
            bumped[1][node + 1, axis] -= step
            plus, minus = (evaluate(b)[0].res.ravel() for b in bumped)
            numeric[:, col] = (plus - minus) / (2.0 * step)
        np.testing.assert_allclose(jac, numeric, atol=1e-7)


    def test_each_state_evaluated_once(self, monkeypatch):
        """The position solve evaluates each state once and differentiates
        the start and every accepted step from its own evaluation."""
        measurements, cams, _ = build_network(seed=4, n_cameras=8,
                                              n_landmarks=4, noise_deg=10.0)
        log = []
        monkeypatch.setattr(translation_averaging, "levenberg_marquardt",
                            recording_core(
                                translation_averaging.levenberg_marquardt, log))
        solution = solve_translations(measurements, n_cameras=len(cams))
        accepted, rejected, final_cost = replay_one_problem(log, 0.1)
        assert accepted >= 3 and rejected >= 1
        assert final_cost == solution.cost


def kkt_surrogate_init(ends_a, ends_b, dirs, n_nodes):
    """Reference: the surrogate's positions from its full KKT system.

    Unknowns are the free positions, one scale per measurement and the
    multiplier of the mean-scale constraint, solved as one dense symmetric
    system.
    """
    n_free = n_nodes - 1
    n_meas = len(dirs)
    dim = 3 * n_free + n_meas
    kkt = np.zeros((dim + 1, dim + 1))
    rhs = np.zeros(dim + 1)
    lap = np.zeros((n_nodes, n_nodes))
    np.add.at(lap, (ends_a, ends_a), 1.0)
    np.add.at(lap, (ends_b, ends_b), 1.0)
    np.add.at(lap, (ends_a, ends_b), -1.0)
    np.add.at(lap, (ends_b, ends_a), -1.0)
    kkt[:3 * n_free, :3 * n_free] = np.kron(lap[1:, 1:], np.eye(3))
    for k in range(n_meas):
        col = 3 * n_free + k
        kkt[col, col] = 1.0
        for node, sign in ((ends_b[k], 1.0), (ends_a[k], -1.0)):
            if node == 0:
                continue
            slot = 3 * (node - 1)
            kkt[slot:slot + 3, col] -= sign * dirs[k]
            kkt[col, slot:slot + 3] -= sign * dirs[k]
    kkt[3 * n_free + np.arange(n_meas), dim] = 1.0
    kkt[dim, 3 * n_free + np.arange(n_meas)] = 1.0
    rhs[dim] = float(n_meas)
    full = np.zeros((n_nodes, 3))
    full[1:] = np.linalg.solve(kkt, rhs)[:3 * n_free].reshape(n_free, 3)
    return full


class TestLinearSurrogateInit:

    @pytest.mark.parametrize("n_landmarks", [0, 8])
    @pytest.mark.parametrize("noise_deg", [0.0, 2.0])
    def test_matches_kkt_solve(self, n_landmarks, noise_deg):
        measurements, cams, _ = build_network(
            seed=31, n_cameras=15, n_landmarks=n_landmarks,
            noise_deg=noise_deg)
        keys = sorted({m.b for m in measurements if m.kind == KIND_LANDMARK})
        slot = {("c", i): i for i in range(len(cams))}
        slot.update({("l", key): len(cams) + k for k, key in enumerate(keys)})
        ends_a = np.array([slot[m.node_a()] for m in measurements])
        ends_b = np.array([slot[m.node_b()] for m in measurements])
        dirs = np.array([m.direction for m in measurements])
        n_nodes = len(cams) + len(keys)

        got = translation_averaging._linear_surrogate_init(
            ends_a, ends_b, dirs, n_nodes)
        expected = kkt_surrogate_init(ends_a, ends_b, dirs, n_nodes)
        assert got.shape == (n_nodes, 3)
        assert np.all(got[0] == 0.0)
        scale = float(np.max(np.abs(expected)))
        assert float(np.max(np.abs(got - expected))) <= 1e-10 * scale
