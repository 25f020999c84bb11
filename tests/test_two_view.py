"""Tests for two-view verification: NMS merge, RANSAC, refinement, acceptance."""

import dataclasses
import re
from types import SimpleNamespace

import numpy as np
import pytest

from _helpers import make_pair_scene, recording_core, sampson_px
from globalsfm import bundle_adjustment, two_view
from globalsfm.bundle_adjustment import _problem_costs
from globalsfm.errors import IndeterminateSystem, NoModelFound, TooFewMatches
from globalsfm.essential import (
    essential_from_rt,
    five_point_essential,
    project_to_essential,
)
from globalsfm.geometry import (
    direction_angular_error,
    pixel_to_normalized,
    rotation_angular_error,
    so3_exp,
    so3_exp_batch,
    so3_hat_batch,
)
from globalsfm.seeding import stable_seed
from globalsfm.synthetic import MODE_RANDOM, generate_orbit_scene, inject_outlier_edges
from globalsfm.two_view import (
    REASON_OK,
    MatchSet,
    TwoViewMeasurement,
    VerificationConfig,
    _clears_floors,
    estimate_essential_ransac,
    keypoint_rays,
    merge_keypoints_nms,
    screen_matches,
    two_view_ba,
    verify_pairs,
)

CFG = VerificationConfig()


def ransac_one(matches, rays_i, rays_j, intr_i, intr_j, cfg, seed):
    """One pair's RANSAC, as a chunk of one: (E, mask) or NoModelFound."""
    (estimate,) = estimate_essential_ransac(
        [(matches, rays_i, rays_j, intr_i, intr_j, seed)], cfg)
    return estimate


class TestMergeKeypointsNms:
    def test_close_pair_merges(self):
        kps = {0: np.array([[10.0, 10.0], [10.5, 10.8]]), 1: np.array([[5.0, 5.0]])}
        matches = [MatchSet((0, 1), np.array([[0, 0], [1, 0]]))]
        merged, remapped = merge_keypoints_nms(kps, matches, radius_px=3.0)
        assert len(merged[0]) == 1
        np.testing.assert_allclose(merged[0][0], [10.25, 10.4])
        assert len(remapped[0]) == 1  # both correspondences became identical
        np.testing.assert_array_equal(remapped[0].indices, [[0, 0]])

    def test_distant_points_untouched(self):
        kps = {0: np.array([[0.0, 0.0], [10.0, 0.0]]), 1: np.array([[1.0, 1.0]])}
        matches = [MatchSet((0, 1), np.array([[0, 0], [1, 0]]))]
        merged, remapped = merge_keypoints_nms(kps, matches, radius_px=3.0)
        assert len(merged[0]) == 2
        assert len(remapped[0]) == 2

    def test_transitive_chain_merges(self):
        # 0-1 and 1-2 within radius, 0-2 not: one cluster of three
        kps = {0: np.array([[0.0, 0.0], [2.5, 0.0], [5.0, 0.0]])}
        merged, _ = merge_keypoints_nms(kps, [], radius_px=3.0)
        assert len(merged[0]) == 1

    def test_random_clusters_match_bruteforce_oracle(self):
        rng = np.random.default_rng(307)
        for _ in range(20):
            centers = rng.uniform(0, 200, size=(8, 2))
            kps = np.vstack([c + rng.uniform(-0.8, 0.8, size=(3, 2)) for c in centers])
            radius = 3.0

            # brute-force connected components over the distance graph
            n = len(kps)
            adj = np.linalg.norm(kps[:, None] - kps[None, :], axis=-1) <= radius
            seen = set()
            n_clusters = 0
            for start in range(n):
                if start in seen:
                    continue
                n_clusters += 1
                stack = [start]
                while stack:
                    a = stack.pop()
                    if a in seen:
                        continue
                    seen.add(a)
                    stack.extend(np.nonzero(adj[a])[0].tolist())

            merged, _ = merge_keypoints_nms({0: kps}, [], radius_px=radius)
            assert len(merged[0]) == n_clusters

    def test_duplicate_correspondences_collapse(self):
        rng = np.random.default_rng(311)
        cluster = np.array([50.0, 60.0]) + rng.uniform(-1.0, 1.0, size=(5, 2))
        kps = {0: cluster, 1: np.array([[7.0, 8.0]])}
        matches = [MatchSet((0, 1), np.column_stack([np.arange(5), np.zeros(5, int)]))]
        _, remapped = merge_keypoints_nms(kps, matches, radius_px=3.0)
        assert len(remapped[0]) == 1



def nms_by_distance_matrix(keypoints, matches, radius_px):
    """Keypoint merging from a full distance matrix and a nested union-find,
    the way ``merge_keypoints_nms`` first did it (bitwise reference)."""
    merged, remap = {}, {}
    for image_id, kps in keypoints.items():
        kps = np.atleast_2d(np.asarray(kps, dtype=float))
        n = len(kps)
        parent = list(range(n))

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        if n > 1:
            diff = kps[:, None, :] - kps[None, :, :]
            close = np.sum(diff * diff, axis=-1) <= radius_px * radius_px
            close &= np.arange(n)[:, None] < np.arange(n)
            for a, b in zip(*np.nonzero(close)):
                ra, rb = find(a), find(b)
                if ra != rb:
                    parent[rb] = ra
        clusters = {}
        for idx in range(n):
            clusters.setdefault(find(idx), []).append(idx)
        index_map = np.empty(n, dtype=int)
        positions = []
        for new_idx, members in enumerate(sorted(clusters.values(), key=min)):
            positions.append(kps[members].mean(axis=0))
            index_map[members] = new_idx
        merged[image_id] = np.array(positions) if positions else kps
        remap[image_id] = index_map
    out = []
    for ms in matches:
        i, j = ms.pair
        idx = np.atleast_2d(np.asarray(ms.indices, dtype=int))
        if len(idx) == 0:
            out.append(ms)
            continue
        out.append(MatchSet(ms.pair, np.unique(np.column_stack(
            [remap[i][idx[:, 0]], remap[j][idx[:, 1]]]), axis=0)))
    return merged, out


class TestMergeKeypointsNmsMatchesDistanceMatrix:
    """Bitwise positions and remapped indices against the K x K reference."""

    @staticmethod
    def assert_same(keypoints, matches, radius_px):
        merged, remapped = merge_keypoints_nms(keypoints, matches, radius_px)
        ref_merged, ref_remapped = nms_by_distance_matrix(keypoints, matches,
                                                          radius_px)
        assert merged.keys() == ref_merged.keys()
        for image_id in merged:
            assert merged[image_id].tobytes() == ref_merged[image_id].tobytes()
            assert merged[image_id].shape == ref_merged[image_id].shape
        assert [m.pair for m in remapped] == [m.pair for m in ref_remapped]
        for got, ref in zip(remapped, ref_remapped):
            np.testing.assert_array_equal(got.indices, ref.indices)

    def test_long_chain_clusters(self):
        rng = np.random.default_rng(557)
        for trial in range(10):
            keypoints = {}
            for image_id in range(3):
                # random walks with steps under the radius chain dozens of
                # keypoints into one cluster, shuffled among scattered ones
                chains = [start + np.cumsum(rng.uniform(-2.0, 2.0, size=(40, 2)),
                                            axis=0)
                          for start in rng.uniform(0.0, 600.0, size=(4, 2))]
                points = np.vstack(chains + [rng.uniform(0.0, 600.0,
                                                         size=(100, 2))])
                keypoints[image_id] = points[rng.permutation(len(points))]
            matches = [MatchSet((i, j), rng.integers(0, 260, size=(80, 2)))
                       for i in range(3) for j in range(i + 1, 3)]
            self.assert_same(keypoints, matches, radius_px=3.0)

    def test_half_pixel_grids_with_pairs_at_the_radius(self):
        rng = np.random.default_rng(563)
        for trial in range(20):
            grid = 0.5 * rng.integers(0, 40, size=(150, 2)).astype(float)
            radius = float(rng.choice([0.5, 1.0, 1.5, 2.5]))
            self.assert_same({0: grid}, [], radius_px=radius)

    def test_empty_single_and_duplicate_keypoints(self):
        keypoints = {0: np.empty((0, 2)), 1: np.array([[4.0, 5.0]]),
                     2: np.array([[1.0, 1.0], [1.0, 1.0], [9.0, 9.0]])}
        matches = [MatchSet((1, 2), np.array([[0, 0], [0, 1], [0, 2]]))]
        self.assert_same(keypoints, matches, radius_px=3.0)

class TestEstimateEssentialRansac:
    def test_noise_free_recovers_ground_truth(self):
        rng = np.random.default_rng(313)
        scene = make_pair_scene(rng, n_points=50)
        e, mask = ransac_one(scene["matches"], scene["rays_i"],
                                            scene["rays_j"], scene["intr_i"],
                                            scene["intr_j"], CFG, seed=1)
        assert mask.all()
        e_gt = essential_from_rt(scene["rotation"], scene["direction"])
        gap = min(np.linalg.norm(e - e_gt), np.linalg.norm(e + e_gt))
        assert gap < 1e-6

    def test_minimal_exact_case(self):
        rng = np.random.default_rng(317)
        scene = make_pair_scene(rng, n_points=5)
        _, mask = ransac_one(scene["matches"], scene["rays_i"],
                                            scene["rays_j"], scene["intr_i"],
                                            scene["intr_j"], CFG, seed=2)
        assert mask.sum() == 5

    def test_inliers_satisfy_epipolar_constraint(self):
        rng = np.random.default_rng(331)
        scene = make_pair_scene(rng, n_points=40)
        e, mask = ransac_one(scene["matches"], scene["rays_i"],
                                            scene["rays_j"], scene["intr_i"],
                                            scene["intr_j"], CFG, seed=3)
        x_i = pixel_to_normalized(scene["kp_i"][mask], scene["intr_i"])
        x_j = pixel_to_normalized(scene["kp_j"][mask], scene["intr_j"])
        xi_h = np.column_stack([x_i, np.ones(len(x_i))])
        xj_h = np.column_stack([x_j, np.ones(len(x_j))])
        residuals = np.einsum("ni,ij,nj->n", xj_h, e, xi_h)
        assert np.max(np.abs(residuals)) < 1e-9

    def test_outlier_mixture_recall_and_precision(self):
        rng = np.random.default_rng(337)
        scene = make_pair_scene(rng, n_points=50, n_outliers=50)
        _, mask = ransac_one(scene["matches"], scene["rays_i"],
                                            scene["rays_j"], scene["intr_i"],
                                            scene["intr_j"], CFG, seed=4)
        flags = scene["inlier_flags"]
        recall = mask[flags].mean()
        assert recall >= 0.95
        # random outliers land within the threshold only by geometric chance
        assert mask[~flags].mean() <= 0.15

    def test_seed_determinism(self):
        rng = np.random.default_rng(347)
        scene = make_pair_scene(rng, n_points=40, noise_px=0.5, n_outliers=20)
        args = (scene["matches"], scene["rays_i"], scene["rays_j"],
                scene["intr_i"], scene["intr_j"], CFG)
        e1, m1 = ransac_one(*args, seed=99)
        e2, m2 = ransac_one(*args, seed=99)
        np.testing.assert_array_equal(e1, e2)
        np.testing.assert_array_equal(m1, m2)

    def test_too_few_matches(self):
        rng = np.random.default_rng(349)
        scene = make_pair_scene(rng, n_points=5)
        short = MatchSet((0, 1), scene["matches"].indices[:4])
        with pytest.raises(TooFewMatches):
            ransac_one(short, scene["rays_i"], scene["rays_j"],
                                      scene["intr_i"], scene["intr_j"], CFG, seed=5)

    def test_degenerate_matches_no_model(self):
        # every correspondence is the same pixel: the solver never produces a model
        kp = np.tile(np.array([[380.0, 285.0]]), (10, 1))
        matches = MatchSet((0, 1), np.column_stack([np.arange(10), np.arange(10)]))
        intr = make_pair_scene(np.random.default_rng(0), n_points=5)["intr_i"]
        cfg = VerificationConfig(max_ransac_iters=50)
        rays = keypoint_rays({0: kp}, [intr])[0]
        outcome = ransac_one(matches, rays, rays, intr, intr, cfg, seed=6)
        assert isinstance(outcome, NoModelFound)
        assert str(outcome) == "pair (0, 1): best support 0 < 5"


def sequential_ransac(matches, rays_i, rays_j, intr_i, intr_j, cfg, seed):
    """Reference: one sample drawn, solved and scored per iteration."""
    idx = matches.indices
    n = len(idx)
    x_i = rays_i[idx[:, 0]]
    x_j = rays_j[idx[:, 1]]
    focal_scale = 0.5 * (intr_i.f + intr_j.f)
    rng = np.random.default_rng(seed)
    best_model, best_mask, best_count = None, None, 0
    needed = cfg.max_ransac_iters
    iteration = 0
    while iteration < needed:
        iteration += 1
        sample = rng.choice(n, size=5, replace=False)
        for e in five_point_essential(x_i[sample], x_j[sample]):
            mask = sampson_px(e, x_i, x_j, focal_scale) <= cfg.ransac_threshold_px
            count = int(mask.sum())
            if count <= best_count:
                continue
            best_model, best_mask, best_count = e, mask, count
            if count >= 5:
                refined = two_view._lsq_essential(x_i[mask], x_j[mask])
                r_mask = (sampson_px(refined, x_i, x_j, focal_scale)
                          <= cfg.ransac_threshold_px)
                if r_mask.sum() >= count:
                    best_model, best_mask, best_count = refined, r_mask, int(r_mask.sum())
            needed = two_view._adaptive_iterations(
                best_count / n, cfg.ransac_confidence, cfg.max_ransac_iters)
    return best_model / np.linalg.norm(best_model), best_mask, iteration


class TestChunkedRansac:
    @pytest.mark.parametrize("kind", ["clean", "half_outliers", "random_matches"])
    def test_matches_sequential_loop(self, kind, monkeypatch):
        rng = np.random.default_rng(353)
        if kind == "clean":
            scene = make_pair_scene(rng, n_points=60, noise_px=0.5)
        else:
            scene = make_pair_scene(rng, n_points=40, noise_px=0.5, n_outliers=40)
        matches = scene["matches"]
        if kind == "random_matches":
            shuffled = matches.indices.copy()
            shuffled[:, 1] = rng.permutation(shuffled[:, 1])
            matches = MatchSet(matches.pair, shuffled)
        cfg = VerificationConfig(max_ransac_iters=300)
        args = (matches, scene["rays_i"], scene["rays_j"], scene["intr_i"],
                scene["intr_j"], cfg)
        ref_model, ref_mask, ref_iterations = sequential_ransac(*args, seed=17)

        sizes = []
        solver = two_view.five_point_essential

        def counting_solver(x_i, x_j):
            sizes.append(len(x_i))
            return solver(x_i, x_j)

        monkeypatch.setattr(two_view, "five_point_essential", counting_solver)
        model, mask = ransac_one(*args, seed=17)
        np.testing.assert_array_equal(mask, ref_mask)
        np.testing.assert_allclose(model, ref_model, atol=1e-9)
        # a chunk is at most the samples drawn so far (one at the start) and
        # the cap; the chunks cover every iteration used and no more
        drawn = 0
        for size in sizes:
            assert 1 <= size <= min(max(1, drawn), two_view.RANSAC_CHUNK)
            drawn += size
        assert drawn >= ref_iterations
        assert sum(sizes[:-1]) < ref_iterations
        if kind == "random_matches":
            assert ref_iterations == cfg.max_ransac_iters


def per_pair_ransac(matches, rays_i, rays_j, intr_i, intr_j, cfg, seed):
    """Reference: RANSAC of one pair alone, its samples solved and scored
    in its own chunks (1, 1, 2, 4, ... up to RANSAC_CHUNK).  Returns
    ((E, mask) or NoModelFound, iterations, samples without a solution)."""
    idx = np.atleast_2d(np.asarray(matches.indices, dtype=int))
    n = len(idx)
    x_i = rays_i[idx[:, 0]]
    x_j = rays_j[idx[:, 1]]
    focal_scale = 0.5 * (intr_i.f + intr_j.f)
    threshold = cfg.ransac_threshold_px
    rng = np.random.default_rng(seed)
    best_mask, best_model, best_count = None, None, 0
    needed = cfg.max_ransac_iters
    iteration = empty = 0
    while iteration < needed:
        chunk = min(needed - iteration, max(1, iteration), two_view.RANSAC_CHUNK)
        samples = np.array([rng.choice(n, size=5, replace=False)
                            for _ in range(chunk)])
        solutions = five_point_essential(x_i[samples], x_j[samples])
        candidates = np.array([e for sample in solutions
                               for e in sample]).reshape(-1, 3, 3)
        masks = sampson_px(candidates, x_i, x_j, focal_scale) <= threshold
        ends = np.cumsum([len(sample) for sample in solutions])
        for sample, sample_masks in zip(solutions, np.split(masks, ends[:-1])):
            if iteration >= needed:
                break
            iteration += 1
            empty += not sample
            for e, mask in zip(sample, sample_masks):
                count = int(mask.sum())
                if count <= best_count:
                    continue
                best_model, best_mask, best_count = e, mask, count
                if count >= 5:
                    refined = two_view._lsq_essential(x_i[mask], x_j[mask])
                    r_mask = sampson_px(refined, x_i, x_j,
                                        focal_scale) <= threshold
                    r_count = int(r_mask.sum())
                    if r_count >= count:
                        best_model, best_mask, best_count = refined, r_mask, r_count
                needed = min(cfg.max_ransac_iters,
                             two_view._adaptive_iterations(
                                 best_count / n, cfg.ransac_confidence,
                                 cfg.max_ransac_iters))
    if best_count < 5 or best_model is None:
        result = NoModelFound(f"pair {matches.pair}: best support {best_count} < 5")
    else:
        result = best_model / np.linalg.norm(best_model), best_mask
    return result, iteration, empty


def mixed_ransac_chunk(rng):
    """RANSAC tasks of one chunk: a clean pair (60 matches), a half-outlier
    pair (80), a random-match pair (70), a pair with repeated
    correspondences (50, degenerate samples) and a pair whose 10 matches
    are all one pixel (no model)."""
    tasks = []

    def add(scene, indices, seed):
        tasks.append((MatchSet((len(tasks), len(tasks) + 1), indices),
                      scene["rays_i"], scene["rays_j"], scene["intr_i"],
                      scene["intr_j"], seed))

    clean = make_pair_scene(rng, n_points=60, noise_px=0.5)
    add(clean, clean["matches"].indices, 31)
    mixed = make_pair_scene(rng, n_points=40, noise_px=0.5, n_outliers=40)
    add(mixed, mixed["matches"].indices, 32)
    shuffled = mixed["matches"].indices.copy()
    shuffled[:, 1] = rng.permutation(shuffled[:, 1])
    add(mixed, shuffled[:70], 33)
    repeated = make_pair_scene(rng, n_points=30, noise_px=0.3)
    rows = repeated["matches"].indices
    add(repeated, np.vstack([rows, np.repeat(rows[:2], 10, axis=0)]), 34)
    add(clean, np.column_stack([np.zeros(10, dtype=int),
                                np.zeros(10, dtype=int)]), 35)
    return tasks


def per_pair_chunks(iterations):
    """The chunk sizes of one pair's RANSAC that ran ``iterations``."""
    sizes, drawn = [], 0
    while drawn < iterations:
        sizes.append(min(iterations - drawn, max(1, drawn),
                         two_view.RANSAC_CHUNK))
        drawn += sizes[-1]
    return sizes


class TestLockstepRansac:
    CFG = VerificationConfig(max_ransac_iters=300)

    def test_each_pair_gets_its_own_loops_result(self, monkeypatch):
        tasks = mixed_ransac_chunk(np.random.default_rng(709))
        sizes = []
        solver = two_view.five_point_essential

        def counting_solver(x_i, x_j):
            sizes.append(len(x_i))
            return solver(x_i, x_j)

        monkeypatch.setattr(two_view, "five_point_essential", counting_solver)
        estimates = estimate_essential_ransac(tasks, self.CFG)
        references = [per_pair_ransac(*task[:5], self.CFG, task[5])
                      for task in tasks]
        for estimate, (expected, _, _) in zip(estimates, references):
            if isinstance(expected, NoModelFound):
                assert isinstance(estimate, NoModelFound)
                assert str(estimate) == str(expected)
                continue
            assert estimate[0].tobytes() == expected[0].tobytes()
            np.testing.assert_array_equal(estimate[1], expected[1])
        # the chunk holds what it is meant to: a pair at the iteration cap,
        # degenerate samples, and a pair with no model
        iterations = [iters for _, iters, _ in references]
        assert iterations[2] == iterations[4] == self.CFG.max_ransac_iters
        assert references[3][2] > 0
        assert str(references[4][0]) == "pair (4, 5): best support 0 < 5"
        assert len({len(task[0]) for task in tasks}) == 5
        # one five-point call per round, for every pair still running
        assert len(sizes) < sum(
            len(per_pair_chunks(iters)) for iters in iterations)
        assert max(sizes) <= len(tasks) * two_view.RANSAC_CHUNK
        assert sum(sizes) >= sum(iterations)

    @pytest.mark.parametrize("budget", [50, 400])
    def test_sampson_calls_stay_within_the_row_budget(self, monkeypatch,
                                                      budget):
        tasks = mixed_ransac_chunk(np.random.default_rng(719))
        expected = estimate_essential_ransac(tasks, self.CFG)
        calls = []
        kernel = two_view.sampson_blocks_px

        def counting_kernel(blocks):
            calls.append([(len(e), len(xi)) for e, xi, _, _ in blocks])
            return kernel(blocks)

        monkeypatch.setattr(two_view, "SAMPSON_ROWS", budget)
        monkeypatch.setattr(two_view, "sampson_blocks_px", counting_kernel)
        got = estimate_essential_ransac(tasks, self.CFG)
        for a, b in zip(got, expected):
            if isinstance(b, NoModelFound):
                assert str(a) == str(b)
            else:
                assert a[0].tobytes() == b[0].tobytes()
                np.testing.assert_array_equal(a[1], b[1])
        # a call over the budget holds one candidate of a pair with more
        # matches than the budget, and nothing else
        for call in calls:
            assert (sum(c * n for c, n in call) <= budget
                    or call == [(1, call[0][1])] and call[0][1] > budget)
        if budget == 400:
            assert any(len(call) > 1 for call in calls)
        else:
            assert any(n > budget for call in calls for _, n in call)

    def test_empty_chunk_and_too_few_matches(self):
        assert estimate_essential_ransac([], CFG) == []
        tasks = mixed_ransac_chunk(np.random.default_rng(727))
        short = (MatchSet((7, 8), tasks[0][0].indices[:4]),) + tasks[0][1:]
        with pytest.raises(TooFewMatches, match=re.escape(
                "pair (7, 8): 4 matches < 5")):
            estimate_essential_ransac(tasks[:2] + [short], CFG)


def random_relative_poses(rng, n_pairs):
    """(rotations, unit translations, tangent bases) of random poses."""
    rotations = np.array([so3_exp(rng.normal(scale=0.4, size=3))
                          for _ in range(n_pairs)])
    translations = rng.normal(size=(n_pairs, 3))
    translations /= np.linalg.norm(translations, axis=1, keepdims=True)
    return rotations, translations, two_view._tangent_basis(translations)


class TestSampsonRefinement:
    def test_jacobian_matches_central_differences(self):
        """The analytic derivatives by the right rotation increment and the
        two tangent steps of the translation, over a batch of pairs."""
        rng = np.random.default_rng(733)
        n_pairs = 6
        poses = random_relative_poses(rng, n_pairs)
        counts = rng.integers(1, 30, size=n_pairs)
        n_rows = int(counts.sum())
        x_i = np.column_stack([rng.uniform(-0.6, 0.6, size=(n_rows, 2)),
                               np.ones(n_rows)])
        x_j = np.column_stack([rng.uniform(-0.6, 0.6, size=(n_rows, 2)),
                               np.ones(n_rows)])
        focal = rng.uniform(300.0, 900.0, size=n_pairs)

        def distances(rotations, translations, _basis):
            return two_view._sampson_residuals(
                so3_hat_batch(translations) @ rotations, counts, x_i, x_j,
                focal)

        res, terms = distances(*poses)
        jac = two_view._sampson_jacobian(
            so3_hat_batch(poses[1]) @ poses[0], poses[0], poses[2], counts,
            x_i, x_j, focal, terms)
        assert jac.shape == (n_rows, 5)
        step = 1e-6
        numeric = np.empty_like(jac)
        for k in range(5):
            delta = np.zeros((n_pairs, 5))
            delta[:, k] = step
            ahead = distances(*two_view._step_poses(*poses, delta))[0]
            behind = distances(*two_view._step_poses(*poses, -delta))[0]
            numeric[:, k] = (ahead - behind) / (2.0 * step)
        np.testing.assert_allclose(jac, numeric, rtol=1e-6,
                                   atol=1e-6 * np.max(np.abs(jac)))

    def test_prune_correction_is_the_reprojection_error_at_first_order(self):
        """On a pair with 0.5 px noise, each correspondence's larger
        per-image Sampson correction is its reprojection error in the worse
        image after optimal triangulation, to first order: the two differ
        by far less than the prune threshold."""
        rng = np.random.default_rng(743)
        scene = make_pair_scene(rng, n_points=200, noise_px=0.5)
        rotation, direction = scene["rotation"], scene["direction"]
        f = scene["intr_i"].f
        x_i = np.column_stack([scene["rays_i"], np.ones(200)])
        x_j = np.column_stack([scene["rays_j"], np.ones(200)])
        _, (num, line_j, line_i, den2) = two_view._sampson_residuals(
            essential_from_rt(rotation, direction)[None], [200], x_i, x_j,
            np.array([f]))
        per_view = f * np.abs(num)[:, None] * np.column_stack([
            np.hypot(line_i[:, 0], line_i[:, 1]),
            np.hypot(line_j[:, 0], line_j[:, 1])]) / den2[:, None]

        # The optimal correction: the nearest pair of rays (in normalized
        # coordinates of both images) that meets the epipolar constraint,
        # by Gauss-Newton on the constraint's Lagrangian, then each image's
        # distance to its measured ray, in pixels.
        e = essential_from_rt(rotation, direction)
        reprojection = np.empty((200, 2))
        for n in range(200):
            a, b = x_i[n].copy(), x_j[n].copy()
            for _ in range(10):
                grad = np.concatenate([(e.T @ b)[:2], (e @ a)[:2]])
                offset = np.concatenate([a[:2] - x_i[n, :2],
                                         b[:2] - x_j[n, :2]])
                step = (b @ e @ a - grad @ offset) / (grad @ grad)
                corrected = np.concatenate([x_i[n, :2], x_j[n, :2]]) \
                    - step * grad
                a[:2], b[:2] = corrected[:2], corrected[2:]
            reprojection[n] = f * np.array([
                np.linalg.norm(a[:2] - x_i[n, :2]),
                np.linalg.norm(b[:2] - x_j[n, :2])])
        assert np.max(reprojection) > 0.5  # some exceed the prune threshold
        np.testing.assert_allclose(per_view, reprojection, rtol=1e-3,
                                   atol=1e-4)
        prune = two_view.VerificationConfig().two_view_ba_reproj_prune_px
        near = np.abs(reprojection.max(axis=1) - prune) < 1e-3
        np.testing.assert_array_equal(per_view.max(axis=1)[~near] <= prune,
                                      reprojection.max(axis=1)[~near] <= prune)


class TestTangentBasis:
    def test_matches_cross_product_form(self):
        def cross_basis(t):
            axes = np.eye(3)[np.argmin(np.abs(t), axis=-1)]
            b1 = np.cross(t, axes)
            b1 /= np.linalg.norm(b1, axis=-1, keepdims=True)
            return np.stack([b1, np.cross(t, b1)], axis=-1)

        rng = np.random.default_rng(59)
        vectors = rng.normal(size=(2000, 3))
        vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
        vectors = np.vstack([vectors, np.eye(3), -np.eye(3)])
        bases = two_view._tangent_basis(vectors)
        assert np.array_equal(bases, cross_basis(vectors))
        for t, basis in zip(vectors, bases):
            assert np.array_equal(two_view._tangent_basis(t), basis)
            np.testing.assert_allclose(basis.T @ basis, np.eye(2), atol=1e-15)
            np.testing.assert_allclose(t @ basis, 0.0, atol=1e-15)


class TestTwoViewBa:
    @staticmethod
    def _measurement_at(scene, rotation, direction):
        n = len(scene["matches"].indices)
        return TwoViewMeasurement((0, 1), rotation, direction,
                                  scene["matches"].indices, 1.0, n)

    @staticmethod
    def _refine(m, scene):
        """``two_view_ba`` on a chunk of one pair."""
        (result,) = two_view_ba([(m, scene["rays_i"], scene["rays_j"],
                                  scene["intr_i"], scene["intr_j"])], CFG)
        return result

    def test_ground_truth_is_fixed_point(self):
        rng = np.random.default_rng(353)
        scene = make_pair_scene(rng, n_points=60)
        m = self._measurement_at(scene, scene["rotation"], scene["direction"])
        result = self._refine(m, scene)
        assert result.reason == REASON_OK
        refined = result.measurement
        assert np.max(np.abs(refined.rotation - scene["rotation"])) < 1e-9
        assert np.max(np.abs(refined.direction - scene["direction"])) < 1e-9
        assert refined.n_inliers == 60

    def test_recovers_from_one_degree_perturbation(self):
        rng = np.random.default_rng(359)
        for trial in range(5):
            scene = make_pair_scene(rng, n_points=60)
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            r_perturbed = scene["rotation"] @ so3_exp(axis * np.radians(1.0))
            m = self._measurement_at(scene, r_perturbed, scene["direction"])
            refined = self._refine(m, scene).measurement
            assert rotation_angular_error(refined.rotation, scene["rotation"]) < 1e-4
            assert direction_angular_error(refined.direction, scene["direction"]) < 1e-4

    def test_single_repeated_point_is_indeterminate(self):
        scene = repeated_point_scene()
        m = TwoViewMeasurement((0, 1), scene["rotation"], scene["direction"],
                               scene["matches"].indices, 1.0, 8)
        result = self._refine(m, scene)
        assert result.measurement is None
        assert result.reason.startswith(f"{IndeterminateSystem.__name__}: ")

    def test_cost_never_increases_on_survivors(self):
        rng = np.random.default_rng(373)
        scene = make_pair_scene(rng, n_points=80, noise_px=0.15)
        m = self._measurement_at(scene, scene["rotation"], scene["direction"])
        result = self._refine(m, scene)
        assert result.reason == REASON_OK
        refined = result.measurement

        from globalsfm.essential import two_view_depths
        from globalsfm.geometry import project_camera_points

        def reproj_cost(rotation, direction, idx):
            x_i = pixel_to_normalized(scene["kp_i"][idx[:, 0]], scene["intr_i"])
            x_j = pixel_to_normalized(scene["kp_j"][idx[:, 1]], scene["intr_j"])
            d_i, _ = two_view_depths(rotation[None], direction[None], x_i,
                                     x_j, np.zeros(len(x_i), dtype=int))
            pts = np.column_stack([x_i, np.ones(len(x_i))]) * d_i[:, None]
            q = pts @ rotation.T + direction
            r1 = project_camera_points(pts, scene["intr_i"]) - scene["kp_i"][idx[:, 0]]
            r2 = project_camera_points(q, scene["intr_j"]) - scene["kp_j"][idx[:, 1]]
            return float(np.sum(r1 ** 2) + np.sum(r2 ** 2))

        before = reproj_cost(scene["rotation"], scene["direction"], refined.inliers)
        after = reproj_cost(refined.rotation, refined.direction, refined.inliers)
        assert after <= before + 1e-9

    def test_only_inliers_in_front_of_both_views_are_refined(self):
        """The refinement takes the inliers whose ray depths are positive in
        both views at the estimated pose; the reversed baseline puts every
        point behind a view."""
        rng = np.random.default_rng(383)
        scene = make_pair_scene(rng, n_points=30, noise_px=0.3)
        m = self._measurement_at(scene, scene["rotation"], -scene["direction"])
        result = self._refine(m, scene)
        assert result.reason == ("TooFewMatches: pair (0, 1): 0 points in "
                                 "front of both views")

    def test_too_few_inliers(self):
        rng = np.random.default_rng(379)
        scene = make_pair_scene(rng, n_points=4)
        m = TwoViewMeasurement((0, 1), scene["rotation"], scene["direction"],
                               scene["matches"].indices, 1.0, 4)
        result = self._refine(m, scene)
        assert result.measurement is None
        assert result.reason.startswith(f"{TooFewMatches.__name__}: ")


def repeated_point_scene():
    """A pair whose eight correspondences are one point seen eight times:
    its refinement system is singular."""
    rng = np.random.default_rng(367)
    scene = make_pair_scene(rng, n_points=1)
    kp_i = np.tile(scene["kp_i"][0], (8, 1))
    kp_j = np.tile(scene["kp_j"][0], (8, 1))
    rays = keypoint_rays({0: kp_i, 1: kp_j}, [scene["intr_i"], scene["intr_j"]])
    return dict(scene, kp_i=kp_i, kp_j=kp_j, rays_i=rays[0], rays_j=rays[1],
                matches=MatchSet((0, 1), np.column_stack([np.arange(8),
                                                          np.arange(8)])))


class TestAcceptPair:
    @staticmethod
    def _measurement(ratio, count):
        return TwoViewMeasurement((0, 1), np.eye(3), np.array([1.0, 0.0, 0.0]),
                                  np.zeros((count, 2), dtype=int), ratio, count)

    def test_good_pair_accepted(self):
        m = self._measurement(0.5, 100)
        assert _clears_floors(m.inlier_ratio, m.n_inliers, CFG)

    def test_low_ratio_rejected(self):
        m = self._measurement(0.09, 200)
        assert not _clears_floors(m.inlier_ratio, m.n_inliers, CFG)

    def test_low_count_rejected(self):
        m = self._measurement(0.9, 14)
        assert not _clears_floors(m.inlier_ratio, m.n_inliers, CFG)

    def test_boundary_accepted(self):
        m = self._measurement(0.10, 15)
        assert _clears_floors(m.inlier_ratio, m.n_inliers, CFG)


class TestVerifyPair:
    def test_clean_pair_verified(self):
        rng = np.random.default_rng(383)
        scene = make_pair_scene(rng, n_points=60)
        result = verify_pairs([(scene["matches"], scene["rays_i"], scene["rays_j"],
                                scene["intr_i"], scene["intr_j"], 7)],
                              CFG)[0]
        assert result.reason == REASON_OK
        assert rotation_angular_error(result.measurement.rotation,
                                      scene["rotation"]) < 1e-6
        assert direction_angular_error(result.measurement.direction,
                                       scene["direction"]) < 1e-6

    def test_contaminated_pair_verified_with_outliers_dropped(self):
        rng = np.random.default_rng(389)
        scene = make_pair_scene(rng, n_points=60, noise_px=0.2, n_outliers=30)
        result = verify_pairs([(scene["matches"], scene["rays_i"], scene["rays_j"],
                                scene["intr_i"], scene["intr_j"], 8)],
                              CFG)[0]
        assert result.reason == REASON_OK
        assert rotation_angular_error(result.measurement.rotation,
                                      scene["rotation"]) < 0.5
        assert result.measurement.inlier_ratio < 1.0

    def test_too_few_matches_reported_not_raised(self):
        rng = np.random.default_rng(397)
        scene = make_pair_scene(rng, n_points=4)
        result = verify_pairs([(scene["matches"], scene["rays_i"], scene["rays_j"],
                                scene["intr_i"], scene["intr_j"], 9)],
                              CFG)[0]
        assert result.measurement is None
        assert "TooFewMatches" in result.reason

    def test_pair_below_inlier_floor_is_never_refined(self, monkeypatch):
        refined = []

        def spy(measurement, *args):
            refined.append(measurement.pair)
            return measurement

        monkeypatch.setattr(two_view, "two_view_ba", spy)
        rng = np.random.default_rng(401)
        scene = make_pair_scene(rng, n_points=10)  # below min_inliers = 15
        result = verify_pairs([(scene["matches"], scene["rays_i"], scene["rays_j"],
                                scene["intr_i"], scene["intr_j"], 10)],
                              CFG)[0]
        assert result.reason.startswith("rejected: ")
        assert refined == []

    def test_inlier_floor_rejection_reported(self):
        rng = np.random.default_rng(401)
        scene = make_pair_scene(rng, n_points=10)
        result = verify_pairs([(scene["matches"], scene["rays_i"], scene["rays_j"],
                                scene["intr_i"], scene["intr_j"], 10)],
                              CFG)[0]
        assert result.measurement is None
        assert "rejected" in result.reason

    @pytest.mark.parametrize("noise_seed", [2, 6, 7])
    def test_clean_pair_kept_when_prune_drops_singular_point(self, noise_seed):
        # The benchmark's rejected_pairs scene.  At these seeds a
        # refinement over triangulated points drove a point of clean pair
        # 1-7 toward a camera and lost the pair as singular.
        scene, keypoints, matches, _ = generate_orbit_scene(
            12, 80, noise_px=0.0, seed=5, dropout=0.3)
        rng = np.random.default_rng([5, noise_seed])
        keypoints = {i: uv + rng.normal(scale=1.0, size=uv.shape)
                     for i, uv in keypoints.items()}
        keypoints, matches, _ = inject_outlier_edges(
            scene, keypoints, matches, 0.025, mode=MODE_RANDOM, seed=5)
        match = next(m for m in matches if m.pair == (1, 7))
        rays = keypoint_rays(keypoints, scene.intrinsics)
        result = verify_pairs([(match, rays[1], rays[7], scene.intrinsics[1],
                                scene.intrinsics[7],
                                stable_seed(0, "two-view", 1, 7))],
                              VerificationConfig(max_ransac_iters=400))[0]
        assert result.reason == REASON_OK


@pytest.mark.parametrize("noise_seed", [2, 11])
def test_random_match_pair_is_rejected(noise_seed):
    """Pair 6-11 of the benchmark's rejected_pairs scene has random matches.
    RANSAC finds 15 inliers, but most are behind a view at the estimated
    pose, and a pose fit to the Sampson distances of all of them would keep
    9 within the prune threshold at noise seed 11, 5 of them behind a view."""
    scene, matches, rays = random_pair_scene(noise_seed)
    match = next(m for m in matches if m.pair == (6, 11))
    result = verify_pairs([(match, rays[6], rays[11], scene.intrinsics[6],
                            scene.intrinsics[11],
                            stable_seed(0, "two-view", 6, 11))],
                          VerificationConfig(max_ransac_iters=400))[0]
    assert result.measurement is None
    assert re.fullmatch(r"TooFewMatches: pair \(6, 11\): [0-4] points survive "
                        r"pruning", result.reason)


class TestInlierFloorScreen:
    @staticmethod
    def _verify(scene, cfg=CFG, seed=10):
        return verify_pairs([(scene["matches"], scene["rays_i"], scene["rays_j"],
                              scene["intr_i"], scene["intr_j"], seed)], cfg)[0]

    @staticmethod
    def _spy(monkeypatch, name):
        """Record the calls of ``two_view.<name>`` and pass them on."""
        calls = []
        real = getattr(two_view, name)

        def spy(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(two_view, name, spy)
        return calls

    def test_pair_below_min_inliers_never_reaches_ransac(self, monkeypatch):
        calls = self._spy(monkeypatch, "estimate_essential_ransac")
        scene = make_pair_scene(np.random.default_rng(401), n_points=10)
        result = self._verify(scene)
        assert result.measurement is None
        assert result.reason == "rejected: n_matches=10 < min_inliers=15"
        assert calls == []

    def test_four_matches_keep_ransacs_reason(self, monkeypatch):
        scene = make_pair_scene(np.random.default_rng(397), n_points=4)
        with pytest.raises(TooFewMatches) as raised:
            ransac_one(scene["matches"], scene["rays_i"], scene["rays_j"],
                       scene["intr_i"], scene["intr_j"], CFG, 9)
        calls = self._spy(monkeypatch, "estimate_essential_ransac")
        result = self._verify(scene, seed=9)
        assert result.reason == f"TooFewMatches: {raised.value}"
        assert result.reason == "TooFewMatches: pair (0, 1): 4 matches < 5"
        assert calls == []

    @pytest.mark.parametrize("n,reason", [
        (4, "TooFewMatches: pair (2, 3): 4 matches < 5"),
        (5, "rejected: n_matches=5 < min_inliers=15"),
        (14, "rejected: n_matches=14 < min_inliers=15"),
        (15, None)], ids=["4", "5", "14", "15"])
    def test_screen_boundaries(self, n, reason):
        assert screen_matches(MatchSet((2, 3), np.zeros((n, 2), dtype=int)),
                              CFG) == reason

    def test_support_below_floors_never_reaches_decomposition(
            self, monkeypatch):
        calls = self._spy(monkeypatch, "decompose_essential")
        scene = make_pair_scene(np.random.default_rng(389), n_points=30,
                                noise_px=0.2, n_outliers=40)
        assert self._verify(scene).reason == REASON_OK
        assert len(calls) == 1
        calls.clear()
        result = self._verify(scene, VerificationConfig(min_inlier_ratio=0.5))
        assert result.measurement is None
        assert re.fullmatch(r"rejected: inlier_ratio=0\.\d{3} n_inliers=\d+",
                            result.reason)
        assert calls == []

    def test_zero_ratio_floor_keeps_the_count_floor(self):
        cfg = VerificationConfig(min_inlier_ratio=0.0)
        measurement = TwoViewMeasurement(
            (0, 1), np.eye(3), np.array([1.0, 0.0, 0.0]),
            np.zeros((20, 2), dtype=int), 0.0, 20)
        assert _clears_floors(measurement.inlier_ratio,
                              measurement.n_inliers, cfg)
        fewer = dataclasses.replace(measurement, n_inliers=14)
        assert not _clears_floors(fewer.inlier_ratio, fewer.n_inliers, cfg)

    @pytest.mark.parametrize("ratio", [-0.1, 1.1])
    def test_ratio_floor_outside_unit_interval_raises(self, ratio):
        with pytest.raises(ValueError, match="min_inlier_ratio"):
            VerificationConfig(min_inlier_ratio=ratio)


def per_call_verify(matches, kp_i, kp_j, intr_i, intr_j, cfg, seed):
    """One pair's verification as it ran when RANSAC, the decomposition and
    the refinement each undistorted the keypoints they use, in their own call."""
    from globalsfm.essential import decompose_essential

    def rays_of(kp, rows, intr):
        table = np.full((len(kp), 2), np.nan)
        table[rows] = pixel_to_normalized(kp[rows], intr)
        return table

    idx = matches.indices
    essential, mask = ransac_one(
        matches, rays_of(kp_i, idx[:, 0], intr_i),
        rays_of(kp_j, idx[:, 1], intr_j), intr_i, intr_j, cfg, seed)
    inliers = idx[mask]
    ((rotation, direction),) = decompose_essential(
        essential[None], [pixel_to_normalized(kp_i[inliers[:, 0]], intr_i)],
        [pixel_to_normalized(kp_j[inliers[:, 1]], intr_j)])
    measurement = TwoViewMeasurement(matches.pair, rotation, direction,
                                     inliers, len(inliers) / len(idx),
                                     len(inliers))
    (result,) = two_view_ba([(measurement,
                              rays_of(kp_i, inliers[:, 0], intr_i),
                              rays_of(kp_j, inliers[:, 1], intr_j), intr_i,
                              intr_j)], cfg)
    return result.measurement


class TestRayTable:
    def test_keypoint_rays_match_per_keypoint_undistortion(self):
        rng = np.random.default_rng(409)
        scene = make_pair_scene(rng, n_points=30, k1=-0.08, k2=0.01)
        rays = keypoint_rays({0: scene["kp_i"], 5: np.zeros((0, 2))},
                             {0: scene["intr_i"], 5: scene["intr_i"]})
        assert rays[5].shape == (0, 2)
        for uv, ray in zip(scene["kp_i"], rays[0]):
            np.testing.assert_allclose(
                ray, pixel_to_normalized(uv, scene["intr_i"]), atol=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_verify_pair_matches_per_call_undistortion(self, seed):
        rng = np.random.default_rng(419 + seed)
        scene = make_pair_scene(rng, n_points=60, noise_px=0.5, n_outliers=25,
                                k1=-0.08, k2=0.01)
        # match only some keypoints, so the table covers unmatched ones too
        rows = np.sort(rng.choice(85, size=70, replace=False))
        matches = MatchSet((0, 1), scene["matches"].indices[rows])
        rays = keypoint_rays({0: scene["kp_i"], 1: scene["kp_j"]},
                             [scene["intr_i"], scene["intr_j"]])
        result = verify_pairs([(matches, rays[0], rays[1], scene["intr_i"],
                                scene["intr_j"], seed)], CFG)[0]
        expected = per_call_verify(matches, scene["kp_i"], scene["kp_j"],
                                   scene["intr_i"], scene["intr_j"], CFG, seed)
        assert result.reason == REASON_OK
        np.testing.assert_array_equal(result.measurement.inliers,
                                      expected.inliers)
        assert 0 < len(expected.inliers) < len(matches)
        np.testing.assert_allclose(result.measurement.rotation,
                                   expected.rotation, atol=1e-9)
        np.testing.assert_allclose(result.measurement.direction,
                                   expected.direction, atol=1e-9)


def random_pair_scene(noise_seed):
    """The benchmark's rejected_pairs scene: matches and rays of a 12-camera
    orbit with 1 px noise drawn from ``noise_seed`` and a few random-match
    pairs."""
    scene, keypoints, matches, _ = generate_orbit_scene(
        12, 80, noise_px=0.0, seed=5, dropout=0.3)
    rng = np.random.default_rng([5, noise_seed])
    keypoints = {i: uv + rng.normal(scale=1.0, size=uv.shape)
                 for i, uv in keypoints.items()}
    keypoints, matches, _ = inject_outlier_edges(
        scene, keypoints, matches, 0.025, mode=MODE_RANDOM, seed=5)
    return scene, matches, keypoint_rays(keypoints, scene.intrinsics)


def lockstep_chunk():
    """``two_view_ba`` tasks of every pair of the noise-seed-2 scene that
    clears the inlier floors, then the repeated-point pair.

    Among them: pair 1-7, which the refinement on triangulated points
    lost as singular at some noise seeds; pair 6-11, which keeps fewer than
    5 correspondences after the prune, so it is refined once; and pair
    (20, 21), whose one repeated point leaves its normal matrix singular.
    """
    scene, matches, rays = random_pair_scene(2)
    cfg = VerificationConfig(max_ransac_iters=400, enable_two_view_ba=False)
    tasks = []
    for match in matches:
        i, j = match.pair
        views = (rays[i], rays[j], scene.intrinsics[i], scene.intrinsics[j])
        result = verify_pairs(
            [(match,) + views + (stable_seed(0, "two-view", i, j),)], cfg)[0]
        if result.measurement is not None:
            tasks.append((result.measurement,) + views)
    single = repeated_point_scene()
    tasks.append((TwoViewMeasurement((20, 21), single["rotation"],
                                     single["direction"],
                                     single["matches"].indices, 1.0, 8),
                  single["rays_i"], single["rays_j"], single["intr_i"],
                  single["intr_j"]))
    return tasks


class TestLockstepRefinement:
    @pytest.fixture(scope="class")
    def chunk(self):
        return lockstep_chunk()

    def test_chunk_gives_every_pair_its_lone_result(self, chunk, monkeypatch):
        rounds = []
        core = two_view.levenberg_marquardt

        def spy(*args):
            out = core(*args)
            rounds.extend(out[2])
            return out

        monkeypatch.setattr(two_view, "levenberg_marquardt", spy)
        together = two_view_ba(chunk, CFG)
        # every pair stops on its own rule, in both refinements
        assert all(r.converged for r in rounds)
        reasons = {r.pair: r.reason for r in together}
        assert reasons[(1, 7)] == REASON_OK
        assert reasons[(6, 11)] == ("TooFewMatches: pair (6, 11): 2 points "
                                    "survive pruning")
        assert reasons[(20, 21)].startswith("IndeterminateSystem: ")
        for task, result in zip(chunk, together):
            (alone,) = two_view_ba([task], CFG)
            assert result.pair == alone.pair == task[0].pair
            assert result.reason == alone.reason
            if alone.measurement is None:
                assert result.measurement is None
                continue
            np.testing.assert_allclose(result.measurement.rotation,
                                       alone.measurement.rotation, atol=1e-9)
            np.testing.assert_allclose(result.measurement.direction,
                                       alone.measurement.direction, atol=1e-9)
            np.testing.assert_array_equal(result.measurement.inliers,
                                          task[0].inliers)

    def test_core_evaluates_a_state_again_only_when_pairs_split(
            self, chunk, monkeypatch):
        """The several-problem core on the chunk's first refinement, every
        third pair started 20 degrees off so that pairs accept at different
        damping attempts.  An iteration in which every pair tried accepts at
        one attempt takes that trial's linearization and evaluates nothing
        more; one in which they do not evaluates the accepted pairs' merged
        state once.  The linearization returned is the final state's, to
        the bit."""
        captured = []
        core = two_view.levenberg_marquardt

        def spy(*args):
            captured.append(args)
            return core(*args)

        monkeypatch.setattr(two_view, "levenberg_marquardt", spy)
        two_view_ba(chunk, CFG)
        state, evaluate, retract, structure, huber_px = captured[0]
        pairs, rotation, translation, basis = state
        turn = np.random.default_rng(3).normal(size=(len(pairs), 3))
        turn *= np.deg2rad(20.0) / np.linalg.norm(turn, axis=1, keepdims=True)
        turn[pairs % 3 != 0] = 0.0
        start = (pairs, rotation @ so3_exp_batch(turn), translation, basis)

        log = []
        normal_equations = bundle_adjustment.normal_equations

        def marked(*args):
            log.append(("iteration",))
            return normal_equations(*args)

        monkeypatch.setattr(bundle_adjustment, "normal_equations", marked)
        final_state, lin, _ = recording_core(
            bundle_adjustment.levenberg_marquardt, log)(
                start, evaluate, retract, structure, huber_px)
        fresh = evaluate(final_state)[1]()
        for field in ("res", "valid", "j_cam"):
            np.testing.assert_array_equal(getattr(lin, field),
                                          getattr(fresh, field))

        # replay: a trial is accepted for a pair iff it lowers its cost
        counts = np.bincount(structure.row_problem)

        def pair_costs(entry):
            ids = entry[4][0]
            rows = SimpleNamespace(
                n_problems=len(ids),
                row_problem=np.repeat(np.arange(len(ids)), counts[ids]))
            return dict(zip(ids.tolist(),
                            _problem_costs(entry[3], huber_px, rows)))

        assert [entry[:2] for entry in log[:3]] == [
            ("evaluate", 0), ("differentiate", 0), ("iteration",)]
        current = pair_costs(log[0])
        starts = [k for k, entry in enumerate(log) if entry[0] == "iteration"]
        kinds = []
        for first, end in zip(starts, starts[1:] + [len(log)]):
            segment = log[first:end]
            trials = [entry for before, entry in zip(segment, segment[1:])
                      if before[0] == "retract"]
            extra = [entry for before, entry in zip(segment, segment[1:])
                     if entry[0] == "evaluate" and before[0] != "retract"]
            differentiated = [entry[1] for entry in segment
                              if entry[0] == "differentiate"]
            accepted_at = {}
            for t, entry in enumerate(trials):
                for pair, cost in pair_costs(entry).items():
                    if cost < current[pair]:
                        accepted_at[pair], current[pair] = t, cost
            if not accepted_at:  # every pair stops
                assert not extra and not differentiated
                continue
            attempts = set(accepted_at.values())
            if (len(attempts) == 1
                    and set(accepted_at) == set(trials[0][4][0].tolist())):
                kinds.append("one attempt")
                assert not extra
                assert differentiated == [trials[attempts.pop()][1]]
            else:
                kinds.append("split" if len(attempts) > 1 else "some stop")
                (merged,) = extra
                assert merged[4][0].tolist() == sorted(accepted_at)
                assert differentiated == [merged[1]]
        assert {"one attempt", "split"} <= set(kinds)

    @pytest.mark.parametrize("seed", range(3))
    def test_result_does_not_depend_on_chunk_order(self, chunk, seed):
        reference = two_view_ba(chunk, CFG)
        order = np.random.default_rng(seed).permutation(len(chunk))
        shuffled = two_view_ba([chunk[k] for k in order], CFG)
        for k, result in zip(order, shuffled):
            assert result.pair == reference[k].pair
            assert result.reason == reference[k].reason
            if result.measurement is not None:
                np.testing.assert_array_equal(result.measurement.rotation,
                                              reference[k].measurement.rotation)
                np.testing.assert_array_equal(result.measurement.direction,
                                              reference[k].measurement.direction)

    def test_verify_pairs_matches_verify_pair(self):
        # noise seed 7: pair 1-7, once lost as singular, is kept
        scene, matches, rays = random_pair_scene(7)
        cfg = VerificationConfig(max_ransac_iters=400)
        tasks = []
        for match in matches:
            i, j = match.pair
            tasks.append((match, rays[i], rays[j], scene.intrinsics[i],
                          scene.intrinsics[j],
                          stable_seed(0, "two-view", i, j)))
        together = two_view.verify_pairs(tasks, cfg)
        assert {r.reason.split(":")[0] for r in together} >= {REASON_OK,
                                                               "rejected"}
        assert {r.pair: r.reason for r in together}[(1, 7)] == REASON_OK
        for task, result in zip(tasks, together):
            alone = verify_pairs([task], cfg)[0]
            assert result.reason == alone.reason
            if alone.measurement is not None:
                np.testing.assert_allclose(result.measurement.rotation,
                                           alone.measurement.rotation,
                                           atol=1e-9)


class TestLeastSquaresEssential:
    @pytest.mark.parametrize("n", [5, 8, 9, 1500])
    def test_matches_full_svd_refit(self, n):
        rng = np.random.default_rng(431 + n)
        x_i = rng.uniform(-0.5, 0.5, size=(n, 2))
        x_j = rng.uniform(-0.5, 0.5, size=(n, 2))
        xi = np.column_stack([x_i, np.ones(n)])
        xj = np.column_stack([x_j, np.ones(n)])
        rows = np.einsum("ni,nj->nij", xj, xi).reshape(n, 9)
        expected = project_to_essential(
            np.linalg.svd(rows, full_matrices=True)[2][-1].reshape(3, 3))
        refit = two_view._lsq_essential(x_i, x_j)
        sign = np.sign(np.sum(refit * expected))
        np.testing.assert_allclose(sign * refit, expected, atol=1e-9)
