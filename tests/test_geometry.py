"""Tests for rotation algebra, poses, similarity alignment and the camera model."""

import math

import numpy as np
import pytest

from globalsfm.errors import DegenerateError, ZeroVector
from globalsfm.geometry import (
    CameraIntrinsics,
    Pose3,
    Sim3,
    direction_angular_error,
    distort,
    is_rotation,
    karcher_mean_rotation,
    normalized,
    pixel_to_normalized,
    project_camera_points,
    project_points,
    project_to_so3,
    random_rotation,
    rotation_angular_error,
    sim3_align,
    so3_exp,
    so3_hat,
    so3_hat_batch,
    so3_log,
    solve_each,
    stack_intrinsics,
    undistort,
)


def matrix_exp_series(m: np.ndarray, terms: int = 20) -> np.ndarray:
    """Truncated power series for expm, used as an independent oracle."""
    out = np.eye(3)
    acc = np.eye(3)
    for k in range(1, terms):
        acc = acc @ m / k
        out = out + acc
    return out


class TestSo3ExpLog:
    def test_exp_matches_power_series(self):
        omega = np.array([0.1, -0.2, 0.2])  # norm 0.3
        expected = matrix_exp_series(so3_hat(omega))
        np.testing.assert_allclose(so3_exp(omega), expected, atol=1e-12)

    def test_batched_hat_matches_single_hat_and_cross(self):
        vectors = np.random.default_rng(5).normal(size=(7, 3))
        others = np.random.default_rng(6).normal(size=(7, 3))
        hats = so3_hat_batch(vectors)
        assert hats.shape == (7, 3, 3)
        for v, o, hat in zip(vectors, others, hats):
            np.testing.assert_array_equal(hat, so3_hat(v))
            np.testing.assert_allclose(hat @ o, np.cross(v, o), atol=1e-15)

    def test_exp_zero_is_identity(self):
        np.testing.assert_allclose(so3_exp(np.zeros(3)), np.eye(3), atol=1e-15)

    def test_exp_small_angle_matches_series(self):
        omega = np.array([1e-9, -2e-9, 1.5e-9])
        expected = matrix_exp_series(so3_hat(omega))
        np.testing.assert_allclose(so3_exp(omega), expected, atol=1e-15)

    def test_exp_quarter_turn_about_z(self):
        r = so3_exp(np.array([0.0, 0.0, math.pi / 2]))
        np.testing.assert_allclose(r @ np.array([1.0, 0.0, 0.0]),
                                   np.array([0.0, 1.0, 0.0]), atol=1e-15)

    def test_log_exp_roundtrip_random(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            axis = normalized(rng.normal(size=3))
            angle = rng.uniform(1e-8, math.pi - 1e-6)
            omega = axis * angle
            np.testing.assert_allclose(so3_log(so3_exp(omega)), omega, atol=1e-9)

    def test_log_near_pi(self):
        axis = normalized(np.array([1.0, 2.0, -0.5]))
        for angle in [math.pi - 1e-7, math.pi - 1e-9]:
            omega = axis * angle
            recovered = so3_log(so3_exp(omega))
            assert np.linalg.norm(recovered - omega) < 1e-6

    def test_log_at_exactly_pi_has_correct_angle(self):
        axis = normalized(np.array([0.3, -1.0, 0.2]))
        r = so3_exp(axis * math.pi)
        recovered = so3_log(r)
        assert abs(np.linalg.norm(recovered) - math.pi) < 1e-7
        # axis sign is ambiguous at pi; rotation must still match
        np.testing.assert_allclose(so3_exp(recovered), r, atol=1e-7)

    def test_exp_is_rotation(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            assert is_rotation(so3_exp(rng.normal(size=3)))


class TestRotationMetrics:
    def test_error_identity_is_zero(self):
        r = so3_exp(np.array([0.2, 0.1, -0.3]))
        assert rotation_angular_error(r, r) == pytest.approx(0.0, abs=1e-8)

    def test_error_matches_trace_formula(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            a = random_rotation(rng)
            b = random_rotation(rng)
            rel = a.T @ b
            expected = math.degrees(
                math.acos(min(1.0, max(-1.0, (np.trace(rel) - 1.0) / 2.0))))
            assert rotation_angular_error(a, b) == pytest.approx(expected, abs=1e-6)

    def test_error_bi_invariance(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            a, b, g = (random_rotation(rng) for _ in range(3))
            e = rotation_angular_error(a, b)
            assert rotation_angular_error(g @ a, g @ b) == pytest.approx(e, abs=1e-8)
            assert rotation_angular_error(a @ g, b @ g) == pytest.approx(e, abs=1e-8)

    def test_error_known_angle(self):
        r = so3_exp(np.array([0.0, 0.0, math.radians(30.0)]))
        assert rotation_angular_error(np.eye(3), r) == pytest.approx(30.0, abs=1e-10)

    def test_direction_error_orthogonal(self):
        assert direction_angular_error([1, 0, 0], [0, 2, 0]) == pytest.approx(90.0)

    def test_direction_error_opposite(self):
        assert direction_angular_error([1, 0, 0], [-3, 0, 0]) == pytest.approx(180.0)

    def test_direction_error_scale_invariant(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            a = rng.normal(size=3)
            b = rng.normal(size=3)
            e = direction_angular_error(a, b)
            assert direction_angular_error(5.0 * a, 0.01 * b) == pytest.approx(e, abs=1e-9)

    def test_direction_error_zero_vector_raises(self):
        with pytest.raises(ZeroVector):
            direction_angular_error([0, 0, 0], [1, 0, 0])
        with pytest.raises(ZeroVector):
            direction_angular_error([1, 0, 0], [1e-13, 0, 0])


class TestProjectToSo3:
    def test_already_rotation_unchanged(self):
        r = so3_exp(np.array([0.4, -0.2, 0.9]))
        np.testing.assert_allclose(project_to_so3(r), r, atol=1e-12)

    def test_fixes_negative_determinant(self):
        m = np.diag([1.0, 1.0, -1.0])
        r = project_to_so3(m)
        assert is_rotation(r)

    def test_noisy_rotation_recovered(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            r = random_rotation(rng)
            noisy = r + 1e-6 * rng.normal(size=(3, 3))
            assert rotation_angular_error(project_to_so3(noisy), r) < 1e-3


class TestPose3:
    def test_identity_transform(self):
        p = np.array([1.0, 2.0, 3.0])
        np.testing.assert_allclose(Pose3.identity().transform(p), p)

    def test_compose_matches_sequential_transform(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            a = Pose3(random_rotation(rng), rng.normal(size=3))
            b = Pose3(random_rotation(rng), rng.normal(size=3))
            p = rng.normal(size=3)
            np.testing.assert_allclose(a.compose(b).transform(p),
                                       a.transform(b.transform(p)), atol=1e-12)

    def test_inverse_roundtrip(self):
        rng = np.random.default_rng(19)
        for _ in range(30):
            t = Pose3(random_rotation(rng), rng.normal(size=3))
            p = rng.normal(size=3)
            np.testing.assert_allclose(t.inverse().transform(t.transform(p)), p, atol=1e-12)

    def test_transform_batched(self):
        rng = np.random.default_rng(23)
        t = Pose3(random_rotation(rng), rng.normal(size=3))
        pts = rng.normal(size=(40, 3))
        batched = t.transform(pts)
        for i in range(40):
            np.testing.assert_allclose(batched[i], t.transform(pts[i]), atol=1e-13)


class TestSim3:
    def test_transform_known_values(self):
        t = Sim3(np.eye(3), np.array([1.0, 0.0, 0.0]), 2.0)
        np.testing.assert_allclose(t.transform(np.array([1.0, 1.0, 1.0])),
                                   np.array([3.0, 2.0, 2.0]))

    def test_inverse_roundtrip(self):
        rng = np.random.default_rng(29)
        for _ in range(30):
            t = Sim3(random_rotation(rng), rng.normal(size=3), rng.uniform(0.1, 10.0))
            p = rng.normal(size=3)
            np.testing.assert_allclose(t.inverse().transform(t.transform(p)), p, atol=1e-10)

    def test_compose_matches_sequential(self):
        rng = np.random.default_rng(31)
        a = Sim3(random_rotation(rng), rng.normal(size=3), 1.7)
        b = Sim3(random_rotation(rng), rng.normal(size=3), 0.4)
        p = rng.normal(size=3)
        np.testing.assert_allclose(a.compose(b).transform(p),
                                   a.transform(b.transform(p)), atol=1e-12)

    def test_nonpositive_scale_rejected(self):
        with pytest.raises(DegenerateError):
            Sim3(np.eye(3), np.zeros(3), 0.0)
        with pytest.raises(DegenerateError):
            Sim3(np.eye(3), np.zeros(3), -1.0)


class TestCameraModel:
    def test_project_hand_computed_distortion(self):
        # normalized point (0.5, 0): r^2 = 0.25, factor = 1 + 0.1*0.25 = 1.025
        # u = 100 * 1.025 * 0.5 = 51.25
        intr = CameraIntrinsics(f=100.0, k1=0.1)
        uv, _ = project_points(np.array([0.5, 0.0, 1.0]), Pose3.identity(),
                               intr)
        np.testing.assert_allclose(uv[0], np.array([51.25, 0.0]), atol=1e-12)

    def test_project_principal_point_offset(self):
        intr = CameraIntrinsics(f=50.0, u0=320.0, v0=240.0)
        uv, _ = project_points(np.array([0.0, 0.0, 5.0]), Pose3.identity(),
                               intr)
        np.testing.assert_allclose(uv[0], np.array([320.0, 240.0]))

    def test_project_second_order_distortion(self):
        # r^2 = 0.25, factor = 1 + 0.1*0.25 + 0.05*0.0625 = 1.028125
        intr = CameraIntrinsics(f=100.0, k1=0.1, k2=0.05)
        uv, _ = project_points(np.array([0.0, 0.5, 1.0]), Pose3.identity(),
                               intr)
        np.testing.assert_allclose(uv[0], np.array([0.0, 51.40625]),
                                   atol=1e-12)

    def test_project_respects_pose(self):
        rng = np.random.default_rng(37)
        intr = CameraIntrinsics(f=400.0, k1=-0.05, k2=0.01, u0=10.0, v0=-5.0)
        for _ in range(50):
            pose = Pose3(random_rotation(rng), rng.normal(size=3))
            p_cam = np.array([rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5),
                              rng.uniform(0.5, 5.0)])
            p_world = pose.transform(p_cam)
            uv, _ = project_points(p_world, pose, intr)
            uv_direct, _ = project_points(p_cam, Pose3.identity(), intr)
            np.testing.assert_allclose(uv, uv_direct, atol=1e-9)

    def test_project_points_matches_scalar_project(self):
        # every row equals the projection of that point alone, taken into
        # the camera frame through the pose's world-to-camera transform
        rng = np.random.default_rng(41)
        intr = CameraIntrinsics(f=300.0, k1=0.02, k2=-0.003, u0=100.0, v0=80.0)
        pose = Pose3(random_rotation(rng), rng.normal(size=3))
        pts_cam = np.column_stack([rng.uniform(-0.4, 0.4, 60),
                                   rng.uniform(-0.4, 0.4, 60),
                                   rng.uniform(0.3, 6.0, 60)])
        pts_world = pose.transform(pts_cam)
        uv, depths = project_points(pts_world, pose, intr)
        assert np.all(depths > 0)
        to_camera = pose.world_to_camera()
        for i in range(60):
            single = project_camera_points(to_camera.transform(pts_world[i]),
                                           intr)
            np.testing.assert_allclose(uv[i], single[0], atol=1e-9)
            assert depths[i] == pytest.approx(pts_cam[i, 2], abs=1e-9)

    def test_project_points_flags_behind(self):
        intr = CameraIntrinsics(f=100.0)
        pts = np.array([[0.0, 0.0, 2.0], [0.0, 0.0, -2.0]])
        _, depths = project_points(pts, Pose3.identity(), intr)
        assert depths[0] > 0 and depths[1] < 0

    def test_stacked_intrinsics_match_per_camera_loop(self):
        # V cameras with their own focal length, distortion and principal
        # point project H points in one call, and pixels map back to rays
        rng = np.random.default_rng(53)
        cameras = [CameraIntrinsics(f=rng.uniform(300.0, 900.0),
                                    k1=rng.uniform(-0.1, 0.1),
                                    k2=rng.uniform(-0.01, 0.01),
                                    u0=rng.uniform(200.0, 400.0),
                                    v0=rng.uniform(150.0, 300.0))
                   for _ in range(5)]
        cameras.append(CameraIntrinsics(f=450.0, u0=300.0, v0=200.0))
        poses = [Pose3(random_rotation(rng), rng.normal(size=3))
                 for _ in cameras]
        stacked = stack_intrinsics(cameras)
        points = rng.normal(size=(7, 3))
        p_cam = np.stack([(points - pose.translation) @ pose.rotation
                          for pose in poses], axis=1)
        uv = project_camera_points(p_cam, stacked)
        assert uv.shape == (7, len(cameras), 2)
        xy = pixel_to_normalized(uv[0], stacked)
        for v, (pose, intr) in enumerate(zip(poses, cameras)):
            expected, _ = project_points(points, pose, intr)
            np.testing.assert_allclose(uv[:, v], expected, rtol=1e-13,
                                       atol=1e-9)
            np.testing.assert_allclose(
                xy[v], pixel_to_normalized(expected[0], intr), atol=1e-10)

    def test_undistort_inverts_distort(self):
        rng = np.random.default_rng(43)
        intr = CameraIntrinsics(f=1.0, k1=0.08, k2=-0.01)
        xy = rng.uniform(-0.6, 0.6, size=(100, 2))
        xy_d = distort(intr, xy)
        np.testing.assert_allclose(undistort(intr, xy_d), xy, atol=1e-10)

    def test_stack_undistorts_each_row_as_alone_to_the_bit(self):
        # rows far from and near the centre converge at different
        # iterations; one camera and per-row cameras alike
        rng = np.random.default_rng(53)
        intr = CameraIntrinsics(f=600.0, k1=-0.05, k2=0.002, u0=380.0,
                                v0=285.0)
        uv = rng.uniform([0.0, 0.0], [760.0, 570.0], size=(300, 2))
        stacked = pixel_to_normalized(uv, intr)
        cameras = [CameraIntrinsics(f=f, k1=k1, k2=0.001, u0=380.0, v0=285.0)
                   for f, k1 in zip(rng.uniform(500.0, 700.0, size=300),
                                    rng.uniform(-0.1, 0.1, size=300))]
        per_row = pixel_to_normalized(uv, stack_intrinsics(cameras))
        for k, row in enumerate(uv):
            assert (stacked[k].tobytes()
                    == pixel_to_normalized(row, intr).tobytes())
            assert (per_row[k].tobytes()
                    == pixel_to_normalized(row, cameras[k]).tobytes())

    def test_pixel_to_normalized_roundtrip(self):
        rng = np.random.default_rng(47)
        intr = CameraIntrinsics(f=600.0, k1=0.05, k2=0.002, u0=380.0, v0=285.0)
        for _ in range(50):
            p_cam = np.array([rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4),
                              rng.uniform(0.5, 4.0)])
            uv = project_camera_points(p_cam, intr)[0]
            xy = pixel_to_normalized(uv, intr)
            np.testing.assert_allclose(xy, p_cam[:2] / p_cam[2], atol=1e-9)

    def test_invalid_focal_rejected(self):
        with pytest.raises(DegenerateError):
            CameraIntrinsics(f=0.0)


class TestSolveEach:
    def test_a_singular_system_is_flagged_and_the_rest_solved(self):
        rng = np.random.default_rng(59)
        a = rng.normal(size=(4, 5, 5))
        b = rng.normal(size=(4, 5, 2))
        solutions, singular = solve_each(a, b)
        assert not singular.any()
        assert solutions.tobytes() == np.linalg.solve(a, b).tobytes()
        a[2, :, 3] = 0.0
        solutions, singular = solve_each(a, b)
        assert singular.tolist() == [False, False, True, False]
        assert not solutions[2].any()
        for k in (0, 1, 3):
            assert (solutions[k].tobytes()
                    == np.linalg.solve(a[k], b[k]).tobytes())


class TestKarcherMean:
    def test_mean_of_identical_rotations(self):
        r = so3_exp(np.array([0.3, -0.1, 0.2]))
        np.testing.assert_allclose(karcher_mean_rotation([r, r, r]), r, atol=1e-10)

    def test_mean_of_symmetric_pair_is_midpoint(self):
        axis = np.array([0.0, 0.0, 1.0])
        a = so3_exp(axis * 0.2)
        b = so3_exp(axis * 0.6)
        mid = so3_exp(axis * 0.4)
        np.testing.assert_allclose(karcher_mean_rotation([a, b]), mid, atol=1e-9)

    def test_mean_is_invariant_to_order(self):
        rng = np.random.default_rng(53)
        rots = [random_rotation(rng, max_angle_rad=0.5) for _ in range(6)]
        m1 = karcher_mean_rotation(rots)
        m2 = karcher_mean_rotation(rots[::-1])
        assert rotation_angular_error(m1, m2) < 1e-6

    def test_empty_input_raises(self):
        with pytest.raises(DegenerateError):
            karcher_mean_rotation([])


class TestSim3Align:
    @staticmethod
    def _random_poses(rng, n):
        return [Pose3(random_rotation(rng), rng.uniform(-5, 5, 3)) for _ in range(n)]

    def test_exact_recovery(self):
        rng = np.random.default_rng(59)
        for _ in range(30):
            ref = self._random_poses(rng, 8)
            truth = Sim3(random_rotation(rng), rng.uniform(-3, 3, 3), rng.uniform(0.2, 5.0))
            est = [Pose3(truth.rotation.T @ p.rotation,
                         truth.inverse().transform(p.translation)) for p in ref]
            t = sim3_align(est, ref)
            assert rotation_angular_error(t.rotation, truth.rotation) < 1e-7
            assert t.scale == pytest.approx(truth.scale, rel=1e-9)
            np.testing.assert_allclose(t.translation, truth.translation, atol=1e-8)
            for e, r in zip(est, ref):
                aligned = t.transform_pose(e)
                assert rotation_angular_error(aligned.rotation, r.rotation) < 1e-7
                np.testing.assert_allclose(aligned.translation, r.translation, atol=1e-7)

    def test_scale_matches_grid_search_oracle(self):
        # with rotation fixed, the closed-form scale must beat a fine 1-D scan
        rng = np.random.default_rng(61)
        ref = self._random_poses(rng, 10)
        est = [Pose3(p.rotation, 0.37 * p.translation + rng.normal(scale=0.01, size=3))
               for p in ref]
        t = sim3_align(est, ref)

        est_c = np.array([p.translation for p in est])
        ref_c = np.array([p.translation for p in ref])
        est_c = est_c - est_c.mean(axis=0)
        ref_c = ref_c - ref_c.mean(axis=0)

        def cost(s):
            return float(np.sum((ref_c - s * (est_c @ t.rotation.T)) ** 2))

        grid = np.linspace(0.5 / 0.37, 3.0 / 0.37, 20001)
        best_grid = grid[int(np.argmin([cost(s) for s in grid]))]
        assert t.scale == pytest.approx(best_grid, abs=2e-4)
        assert cost(t.scale) <= cost(best_grid) + 1e-12

    def test_too_few_pairs_raises(self):
        rng = np.random.default_rng(67)
        poses = self._random_poses(rng, 1)
        with pytest.raises(DegenerateError):
            sim3_align(poses, poses)

    def test_mismatched_lengths_raise(self):
        rng = np.random.default_rng(71)
        with pytest.raises(DegenerateError):
            sim3_align(self._random_poses(rng, 3), self._random_poses(rng, 4))

    def test_coincident_centers_raise(self):
        rng = np.random.default_rng(73)
        est = [Pose3(random_rotation(rng), np.ones(3)) for _ in range(4)]
        ref = self._random_poses(rng, 4)
        with pytest.raises(DegenerateError):
            sim3_align(est, ref)
