"""Tests for the five-point solver, epipolar scoring, and pose decomposition."""

import numpy as np
import pytest

from _helpers import sampson_px
from globalsfm import essential
from globalsfm.errors import CheiralityAmbiguous, DegenerateError, TooFewMatches
from globalsfm.essential import (
    decompose_essential,
    essential_from_rt,
    five_point_essential,
    project_to_essential,
    two_view_depths,
)
from globalsfm.geometry import (
    direction_angular_error,
    random_rotation,
    rotation_angular_error,
    so3_exp,
)


def synthetic_pair(rng, n_points, max_angle=0.8, min_depth_j=0.2):
    """Exact normalized correspondences from a random relative pose."""
    while True:
        rot = random_rotation(rng, max_angle_rad=max_angle)
        trans = rng.normal(size=3)
        trans /= np.linalg.norm(trans)
        pts = np.column_stack([rng.uniform(-1.0, 1.0, n_points),
                               rng.uniform(-1.0, 1.0, n_points),
                               rng.uniform(3.0, 8.0, n_points)])
        pts_j = pts @ rot.T + trans
        if np.all(pts_j[:, 2] > min_depth_j):
            x_i = pts[:, :2] / pts[:, 2:3]
            x_j = pts_j[:, :2] / pts_j[:, 2:3]
            return rot, trans, pts, x_i, x_j


def essential_gap(a, b):
    """Frobenius distance between unit-norm matrices, modulo sign."""
    a = a / np.linalg.norm(a)
    b = b / np.linalg.norm(b)
    return min(np.linalg.norm(a - b), np.linalg.norm(a + b))


class TestFivePoint:
    def test_recovers_ground_truth_from_minimal_set(self):
        rng = np.random.default_rng(211)
        for _ in range(50):
            rot, trans, _, x_i, x_j = synthetic_pair(rng, 5)
            e_gt = essential_from_rt(rot, trans)
            solutions = five_point_essential(x_i, x_j)
            assert solutions, "solver returned no candidates"
            assert min(essential_gap(s, e_gt) for s in solutions) < 1e-6

    def test_candidates_satisfy_input_constraints(self):
        rng = np.random.default_rng(223)
        for _ in range(20):
            _, _, _, x_i, x_j = synthetic_pair(rng, 5)
            xi_h = np.column_stack([x_i, np.ones(5)])
            xj_h = np.column_stack([x_j, np.ones(5)])
            for e in five_point_essential(x_i, x_j):
                residuals = np.einsum("ni,ij,nj->n", xj_h, e, xi_h)
                assert np.max(np.abs(residuals)) < 1e-8

    def test_candidates_satisfy_essential_polynomials(self):
        rng = np.random.default_rng(227)
        _, _, _, x_i, x_j = synthetic_pair(rng, 5)
        for e in five_point_essential(x_i, x_j):
            assert abs(np.linalg.det(e)) < 1e-8
            trace_term = 2.0 * e @ e.T @ e - np.trace(e @ e.T) * e
            assert np.max(np.abs(trace_term)) < 1e-8

    def test_overdetermined_exact_input(self):
        rng = np.random.default_rng(229)
        rot, trans, _, x_i, x_j = synthetic_pair(rng, 12)
        e_gt = essential_from_rt(rot, trans)
        solutions = five_point_essential(x_i, x_j)
        assert min(essential_gap(s, e_gt) for s in solutions) < 1e-6

    def test_too_few_matches(self):
        with pytest.raises(TooFewMatches):
            five_point_essential(np.zeros((4, 2)), np.zeros((4, 2)))


class TestConstraintMatrix:
    def test_rows_evaluate_determinant_and_trace_constraint(self):
        rng = np.random.default_rng(269)
        basis = rng.normal(size=(30, 4, 3, 3))
        rows = essential._constraint_matrix(basis)
        assert rows.shape == (30, 10, 20)
        for k in range(30):
            x, y, z = rng.normal(size=3)
            monomials = np.array([x ** a * y ** b * z ** c
                                  for a, b, c in essential._MONOMIALS])
            e = x * basis[k, 0] + y * basis[k, 1] + z * basis[k, 2] + basis[k, 3]
            expected = np.concatenate([
                [np.linalg.det(e)],
                (2.0 * e @ e.T @ e - np.trace(e @ e.T) * e).ravel()])
            np.testing.assert_allclose(rows[k] @ monomials, expected,
                                       rtol=1e-10, atol=1e-10 * np.abs(expected).max())


class TestStackedFivePoint:
    def test_degenerate_samples_fail_alone(self):
        rng = np.random.default_rng(271)
        samples = [synthetic_pair(rng, 5)[3:] for _ in range(4)]
        x_i = np.array([s[0] for s in samples])
        x_j = np.array([s[1] for s in samples])
        # sample 1 repeats a correspondence, sample 2 is one point five times
        x_i[1, 4], x_j[1, 4] = x_i[1, 0], x_j[1, 0]
        x_i[2], x_j[2] = x_i[2, 0], x_j[2, 0]
        stacked = five_point_essential(x_i, x_j)
        assert len(stacked) == 4
        assert stacked[1] == [] and stacked[2] == []
        for k in (0, 3):
            alone = five_point_essential(x_i[k], x_j[k])
            assert len(alone) == len(stacked[k]) > 0
            np.testing.assert_allclose(stacked[k], alone, atol=1e-12)

    def test_singular_elimination_block_fails_alone(self, monkeypatch):
        rng = np.random.default_rng(277)
        x_i, x_j = (np.array(v) for v in zip(
            *[synthetic_pair(rng, 5)[3:] for _ in range(3)]))
        alone = [five_point_essential(x_i[k], x_j[k]) for k in range(3)]
        build = essential._constraint_matrix

        def singular_middle(basis):
            rows = build(basis)
            rows[1, :, 0] = 0.0  # the cubic x^3 drops out of every constraint
            return rows

        monkeypatch.setattr(essential, "_constraint_matrix", singular_middle)
        stacked = five_point_essential(x_i, x_j)
        assert stacked[1] == []
        for k in (0, 2):
            np.testing.assert_allclose(stacked[k], alone[k], atol=1e-12)


class TestProjectToEssential:
    def test_singular_values_equal_pair_and_zero(self):
        rng = np.random.default_rng(233)
        for _ in range(20):
            e = project_to_essential(rng.normal(size=(3, 3)))
            s = np.linalg.svd(e, compute_uv=False)
            assert abs(s[0] - s[1]) < 1e-6
            assert s[2] < 1e-6

    def test_valid_essential_unchanged(self):
        rng = np.random.default_rng(239)
        rot = random_rotation(rng)
        t = rng.normal(size=3)
        e = essential_from_rt(rot, t)
        np.testing.assert_allclose(project_to_essential(e), e, atol=1e-12)


class TestEssentialFromRt:
    def test_epipolar_constraint_holds(self):
        rng = np.random.default_rng(241)
        rot, trans, _, x_i, x_j = synthetic_pair(rng, 30)
        e = essential_from_rt(rot, trans)
        xi_h = np.column_stack([x_i, np.ones(30)])
        xj_h = np.column_stack([x_j, np.ones(30)])
        residuals = np.einsum("ni,ij,nj->n", xj_h, e, xi_h)
        assert np.max(np.abs(residuals)) < 1e-9

    def test_zero_translation_rejected(self):
        with pytest.raises(DegenerateError):
            essential_from_rt(np.eye(3), np.zeros(3))


def matmul_sampson(e, x_i, x_j, focal_scale):
    """Reference: the signed Sampson distances of one candidate stack and
    their terms (x_j^T E x_i, E x_i, E^T x_j, den^2), its lines and products
    over the whole (C, N, 3) stack at once, flattened to C x N rows."""
    xi = np.column_stack([x_i, np.ones(len(x_i))])
    xj = np.column_stack([x_j, np.ones(len(x_j))])
    exi = (xi @ np.swapaxes(e, -1, -2)).reshape(-1, 3)
    etxj = (xj @ e).reshape(-1, 3)
    num = np.einsum("na,na->n", np.tile(xj, (len(exi) // len(xj), 1)), exi)
    den2 = np.maximum(exi[:, 0] ** 2 + exi[:, 1] ** 2
                      + etxj[:, 0] ** 2 + etxj[:, 1] ** 2, 1e-30)
    return focal_scale * num / np.sqrt(den2), (num, exi, etxj, den2)


def assert_same_bits(got, expected):
    """Distances and terms of the kernel equal to the bit."""
    assert got[0].tobytes() == expected[0].tobytes()
    assert len(got[1]) == len(expected[1]) == 4
    for a, b in zip(got[1], expected[1]):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


class TestSampson:
    def test_blocks_laid_out_one_after_another_to_the_bit(self):
        rng = np.random.default_rng(739)
        blocks, expected = [], []
        for n_cand, n_pts, focal in [(3, 40, 600.0), (0, 7, 500.0),
                                     (1, 5, 612.5), (17, 120, 450.0)]:
            e = rng.normal(size=(n_cand, 3, 3))
            x_i, x_j = rng.normal(size=(2, n_pts, 2))
            blocks.append((e, np.column_stack([x_i, np.ones(n_pts)]),
                           np.column_stack([x_j, np.ones(n_pts)]), focal))
            expected.append(matmul_sampson(e, x_i, x_j, focal))
        assert_same_bits(essential.sampson_blocks_px(blocks), (
            np.concatenate([d for d, _ in expected]),
            tuple(np.concatenate(parts)
                  for parts in zip(*(terms for _, terms in expected)))))
        # one block of one candidate, as the pose refinement calls it
        single = rng.normal(size=(1, 3, 3))
        x_i, x_j = rng.normal(size=(2, 30, 2))
        assert_same_bits(essential.sampson_blocks_px([(
            single, np.column_stack([x_i, np.ones(30)]),
            np.column_stack([x_j, np.ones(30)]), 600.0)]),
            matmul_sampson(single, x_i, x_j, 600.0))
        distances, terms = essential.sampson_blocks_px([])
        assert distances.shape == (0,)
        assert [t.shape for t in terms] == [(0,), (0, 3), (0, 3), (0,)]

    def test_sign_is_that_of_the_epipolar_residual(self):
        # both signs occur, each the sign of x_j^T E x_i, and negating E
        # negates every distance to the bit
        rng = np.random.default_rng(211)
        e = rng.normal(size=(1, 3, 3))
        x_i, x_j = rng.normal(size=(2, 50, 2))
        block = (e, np.column_stack([x_i, np.ones(50)]),
                 np.column_stack([x_j, np.ones(50)]), 500.0)
        distances, (num, _, _, _) = essential.sampson_blocks_px([block])
        assert (distances < 0).any() and (distances > 0).any()
        np.testing.assert_array_equal(np.sign(distances), np.sign(num))
        flipped, _ = essential.sampson_blocks_px([(-e,) + block[1:]])
        assert flipped.tobytes() == (-distances).tobytes()

    def test_stacked_matrices_match_one_at_a_time(self):
        rng = np.random.default_rng(283)
        _, _, _, x_i, x_j = synthetic_pair(rng, 30)
        stack = rng.normal(size=(7, 3, 3))
        d = sampson_px(stack, x_i, x_j, 600.0)
        assert d.shape == (7, 30)
        for k in range(7):
            np.testing.assert_allclose(d[k], sampson_px(stack[k], x_i, x_j, 600.0),
                                       rtol=1e-12)

    def test_zero_on_exact_correspondences(self):
        rng = np.random.default_rng(251)
        rot, trans, _, x_i, x_j = synthetic_pair(rng, 40)
        e = essential_from_rt(rot, trans)
        d = sampson_px(e, x_i, x_j, 600.0)
        assert np.max(d) < 1e-10

    def test_scales_linearly_with_small_offsets(self):
        rng = np.random.default_rng(257)
        rot, trans, _, x_i, x_j = synthetic_pair(rng, 1)
        e = essential_from_rt(rot, trans)
        focal = 600.0
        direction = np.array([0.3, -0.95])
        direction /= np.linalg.norm(direction)
        base = None
        for eps_px in [1e-3, 1e-2, 1e-1]:
            x_j_noisy = x_j + direction * (eps_px / focal)
            d = float(sampson_px(e, x_i, x_j_noisy, focal)[0])
            ratio = d / eps_px
            if base is None:
                base = ratio
            assert ratio == pytest.approx(base, rel=1e-2)
        assert 0.0 < base <= 1.0 + 1e-9

    def test_bounded_by_single_view_line_distance(self):
        # the first-order distance spreads the offset over both views, so it
        # can never exceed the point-to-epipolar-line distance in one view
        rng = np.random.default_rng(263)
        rot, trans, _, x_i, x_j = synthetic_pair(rng, 25)
        e = essential_from_rt(rot, trans)
        focal = 500.0
        x_j_noisy = x_j + rng.normal(scale=2.0 / focal, size=x_j.shape)
        d = sampson_px(e, x_i, x_j_noisy, focal)
        xi_h = np.column_stack([x_i, np.ones(len(x_i))])
        xj_h = np.column_stack([x_j_noisy, np.ones(len(x_i))])
        lines_j = xi_h @ e.T
        num = np.abs(np.einsum("ni,ni->n", xj_h, lines_j))
        line_dist = focal * num / np.linalg.norm(lines_j[:, :2], axis=1)
        assert np.all(d <= line_dist + 1e-9)


class TestTwoViewDepths:
    def test_known_depths_recovered(self):
        rng = np.random.default_rng(269)
        rot, trans, pts, x_i, x_j = synthetic_pair(rng, 30)
        d_i, d_j = two_view_depths(rot[None], trans[None], x_i, x_j,
                                   np.zeros(30, dtype=int))
        pts_j = pts @ rot.T + trans
        np.testing.assert_allclose(d_i, pts[:, 2], atol=1e-9)
        np.testing.assert_allclose(d_j, pts_j[:, 2], atol=1e-9)

    def test_stack_gives_each_pose_its_lone_depths(self):
        """A pose's depths are bit-equal alone and inside a permuted stack
        of poses with different row counts, rays given as (N, 2) or
        homogeneous (N, 3)."""
        rng = np.random.default_rng(270)
        sizes = [1, 2, 5, 40, 300, 7]
        poses = [synthetic_pair(rng, n) for n in sizes]
        alone = [two_view_depths(rot[None], trans[None], x_i, x_j,
                                 np.zeros(len(x_i), dtype=int))
                 for rot, trans, _, x_i, x_j in poses]
        for _ in range(3):
            order = rng.permutation(len(poses))
            stack = [poses[k] for k in order]
            owner = np.repeat(np.arange(len(stack)),
                              [len(x_i) for _, _, _, x_i, _ in stack])
            x_i = np.concatenate([x_i for _, _, _, x_i, _ in stack])
            x_j = np.concatenate([x_j for _, _, _, _, x_j in stack])
            x_i = np.column_stack([x_i, np.ones(len(x_i))])
            d_i, d_j = two_view_depths(
                np.array([rot for rot, *_ in stack]),
                np.array([trans for _, trans, *_ in stack]), x_i, x_j, owner)
            for p, k in enumerate(order):
                assert d_i[owner == p].tobytes() == alone[k][0].tobytes()
                assert d_j[owner == p].tobytes() == alone[k][1].tobytes()

    def test_parallel_rays_give_nan(self):
        x = np.array([[0.1, -0.2], [0.3, 0.4]])
        d_i, d_j = two_view_depths(np.eye(3)[None], np.zeros((1, 3)), x, x,
                                   np.zeros(2, dtype=int))
        assert np.isnan(d_i).all() and np.isnan(d_j).all()


def decompose_one(e, x_i, x_j):
    """One pair's decomposition, as a stack of one."""
    (pose,) = decompose_essential(np.asarray(e)[None], [x_i], [x_j])
    return pose


def per_pair_decompose(e, x_i, x_j):
    """Reference: the cheirality test one pair at a time, four depth calls,
    each on a stack of one pose."""
    u, _, vt = np.linalg.svd(e)
    if np.linalg.det(u) < 0:
        u = -u
    if np.linalg.det(vt) < 0:
        vt = -vt
    w = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    r_a = u @ w @ vt
    r_b = u @ w.T @ vt
    t = u[:, 2]
    candidates = [(r_a, t), (r_a, -t), (r_b, t), (r_b, -t)]
    counts = []
    for rot, trans in candidates:
        d1, d2 = two_view_depths(rot[None], trans[None], x_i, x_j,
                                 np.zeros(len(x_i), dtype=int))
        counts.append(int(np.sum((d1 > 0) & (d2 > 0) & np.isfinite(d1)
                                 & np.isfinite(d2))))
    order = np.argsort(counts)[::-1]
    best, second = counts[order[0]], counts[order[1]]
    if best == 0 or best == second:
        return CheiralityAmbiguous(
            f"front-of-camera support {counts} has no strict majority")
    rot, trans = candidates[order[0]]
    return rot, trans / np.linalg.norm(trans)


def points_in_front(rng, rot, trans, n):
    """Normalized correspondences of n points in front of both views of
    the pose (rot, trans)."""
    rows = []
    while len(rows) < n:
        point = np.array([*rng.uniform(-1.0, 1.0, 2), rng.uniform(2.0, 8.0)])
        in_j = rot @ point + trans
        if in_j[2] > 0.2:
            rows.append(np.concatenate([point[:2] / point[2],
                                        in_j[:2] / in_j[2]]))
    rows = np.array(rows)
    return rows[:, :2], rows[:, 2:]


class TestStackedDecompose:
    def test_matches_per_pair_decomposition(self):
        """A stack of pairs with different point counts, signs and ties gets
        each pair's own result: the same rotation and translation bits, or
        the same ambiguity message."""
        rng = np.random.default_rng(701)
        essentials, xs_i, xs_j = [], [], []
        for n in [1, 2, 7, 40, 300]:
            rot, trans, _, x_i, x_j = synthetic_pair(rng, n)
            essentials.append(essential_from_rt(rot, trans) * rng.choice([-1, 1]))
            xs_i.append(x_i)
            xs_j.append(x_j)
        for split in [(3, 3), (5, 2)]:
            # points split between two of the four candidate poses of one
            # essential matrix
            rot = random_rotation(rng, max_angle_rad=0.5)
            trans = rng.normal(size=3)
            trans /= np.linalg.norm(trans)
            a = points_in_front(rng, rot, trans, split[0])
            b = points_in_front(rng, rot, -trans, split[1])
            x_i, x_j = (np.vstack(pair) for pair in zip(a, b))
            essentials.append(essential_from_rt(rot, trans))
            xs_i.append(x_i)
            xs_j.append(x_j)
        # a random correspondence that no candidate puts in front of both
        # views
        e = essential_from_rt(random_rotation(rng, 0.5), np.array([1.0, 0, 0]))
        while True:
            x_i, x_j = rng.uniform(-1.0, 1.0, size=(2, 1, 2))
            if str(per_pair_decompose(e, x_i, x_j)).startswith(
                    "front-of-camera support [0, 0, 0, 0]"):
                break
        essentials.append(e)
        xs_i.append(x_i)
        xs_j.append(x_j)
        order = rng.permutation(len(essentials))
        essentials = [essentials[k] for k in order]
        xs_i = [xs_i[k] for k in order]
        xs_j = [xs_j[k] for k in order]
        stacked = decompose_essential(np.array(essentials), xs_i, xs_j)
        messages = []
        for got, e, x_i, x_j in zip(stacked, essentials, xs_i, xs_j):
            expected = per_pair_decompose(e, x_i, x_j)
            if isinstance(expected, CheiralityAmbiguous):
                assert isinstance(got, CheiralityAmbiguous)
                assert str(got) == str(expected)
                messages.append(str(got))
                continue
            assert got[0].tobytes() == expected[0].tobytes()
            assert got[1].tobytes() == expected[1].tobytes()
        assert len(messages) == 2

    def test_pair_without_points_raises(self):
        e = essential_from_rt(np.eye(3), np.array([1.0, 0.0, 0.0]))
        with pytest.raises(TooFewMatches):
            decompose_essential(np.array([e, e]), [np.zeros((3, 2)),
                                                   np.zeros((0, 2))],
                                [np.zeros((3, 2)), np.zeros((0, 2))])


class TestDecompose:
    def test_exact_recovery(self):
        rng = np.random.default_rng(271)
        for _ in range(50):
            rot, trans, _, x_i, x_j = synthetic_pair(rng, 20)
            e = essential_from_rt(rot, trans)
            rot_est, t_est = decompose_one(e, x_i, x_j)
            assert rotation_angular_error(rot_est, rot) < 1e-6
            assert direction_angular_error(t_est, trans) < 1e-6

    def test_pure_forward_translation(self):
        pts = np.array([[0.5, 0.2, 4.0], [-0.3, 0.4, 5.0], [0.1, -0.6, 6.0],
                        [-0.2, -0.1, 3.0], [0.4, 0.5, 7.0]])
        trans = np.array([0.0, 0.0, 1.0])
        x_i = pts[:, :2] / pts[:, 2:3]
        pts_j = pts + trans
        x_j = pts_j[:, :2] / pts_j[:, 2:3]
        e = essential_from_rt(np.eye(3), trans)
        rot_est, t_est = decompose_one(e, x_i, x_j)
        assert rotation_angular_error(rot_est, np.eye(3)) < 1e-6
        np.testing.assert_allclose(t_est, trans, atol=1e-9)

    def test_sign_flip_invariance(self):
        rng = np.random.default_rng(277)
        rot, trans, _, x_i, x_j = synthetic_pair(rng, 15)
        e = essential_from_rt(rot, trans)
        r1, t1 = decompose_one(e, x_i, x_j)
        r2, t2 = decompose_one(-e, x_i, x_j)
        np.testing.assert_allclose(r1, r2, atol=1e-9)
        np.testing.assert_allclose(t1, t2, atol=1e-9)

    def test_output_consistent_with_input_essential(self):
        rng = np.random.default_rng(281)
        for _ in range(20):
            rot, trans, _, x_i, x_j = synthetic_pair(rng, 10)
            e = essential_from_rt(rot, trans)
            rot_est, t_est = decompose_one(e, x_i, x_j)
            assert essential_gap(essential_from_rt(rot_est, t_est), e) < 1e-6

    def test_ambiguous_support_raises(self):
        # one point generated under (R, t), one under (R, -t): both satisfy
        # the same essential matrix but split the cheirality vote 1-1
        rot = so3_exp(np.array([0.0, 0.1, 0.0]))
        trans = np.array([1.0, 0.0, 0.0])
        p_a = np.array([0.2, 0.1, 5.0])
        p_b = np.array([-0.3, 0.2, 6.0])
        x_i = np.array([p_a[:2] / p_a[2], p_b[:2] / p_b[2]])
        pa_j = rot @ p_a + trans
        pb_j = rot @ p_b - trans
        x_j = np.array([pa_j[:2] / pa_j[2], pb_j[:2] / pb_j[2]])
        e = essential_from_rt(rot, trans)
        outcome = decompose_one(e, x_i, x_j)
        assert isinstance(outcome, CheiralityAmbiguous)
        assert str(outcome).endswith("has no strict majority")

