"""Tests for global bundle adjustment, its Jacobian, and track filtering."""

from dataclasses import replace

import numpy as np
import pytest

from _helpers import (make_landmarks, observations_of, recording_core,
                      replay_one_problem)
from globalsfm import bundle_adjustment
from globalsfm.bundle_adjustment import (
    BaConfig,
    BaProblem,
    BlockStructure,
    Linearization,
    ba_parameter_layout,
    ba_residuals_and_jacobian,
    block_jacobian,
    damped_step,
    filter_tracks,
    landmark_reprojection_errors,
    normal_equations,
    run_bundle_adjustment,
    three_round_ba,
)
from globalsfm.errors import AllTracksFiltered
from globalsfm.geometry import (
    CameraIntrinsics,
    Pose3,
    normalized,
    project_points,
    rotation_angular_error,
    sim3_align,
    so3_exp,
)


def per_landmark(problem, errors):
    """Flat per-inlier-row values split into one array per landmark."""
    counts = [int(lm.inlier_mask.sum()) for lm in problem.landmarks]
    return np.split(errors, np.cumsum(counts)[:-1])


def looking_at_origin(center):
    z_axis = normalized(-np.asarray(center, dtype=float))
    up = np.array([0.0, 0.0, 1.0])
    if abs(np.dot(up, z_axis)) > 0.99:
        up = np.array([0.0, 1.0, 0.0])
    x_axis = normalized(np.cross(up, z_axis))
    y_axis = np.cross(z_axis, x_axis)
    return Pose3(np.column_stack([x_axis, y_axis, z_axis]),
                 np.asarray(center, dtype=float))


def make_problem(seed, n_cameras=6, n_points=20, noise_px=0.0,
                 point_init=None, pose_init=None, distorted=True):
    """Orbit scene turned into a BaProblem with exact (or noisy) observations.

    Observations are always projected from ground truth; ``point_init`` /
    ``pose_init`` optionally replace the parameter initialization.
    """
    rng = np.random.default_rng(seed)
    if distorted:
        intr = CameraIntrinsics(f=600.0, k1=-0.05, k2=0.002, u0=380.0,
                                v0=285.0)
    else:
        intr = CameraIntrinsics(f=600.0, k1=0.0, k2=0.0, u0=380.0, v0=285.0)
    gt_poses = []
    for k in range(n_cameras):
        theta = 2.0 * np.pi * k / n_cameras
        center = np.array([5.0 * np.cos(theta), 5.0 * np.sin(theta),
                           1.0 * np.sin(2.0 * theta)])
        gt_poses.append(looking_at_origin(center))
    gt_points = rng.uniform(-1.0, 1.0, size=(n_points, 3))

    tracks, points = [], []
    for j, point in enumerate(gt_points):
        obs = []
        for image, pose in enumerate(gt_poses):
            uv = project_points(point, pose, intr)[0][0]
            if noise_px:
                uv = uv + rng.normal(scale=noise_px, size=2)
            obs.append((image, (float(uv[0]), float(uv[1]))))
        tracks.append(tuple(obs))
        points.append(point if point_init is None else point_init[j])
    poses = tuple(gt_poses) if pose_init is None else tuple(pose_init)
    problem = BaProblem(poses, tuple([intr] * n_cameras),
                        make_landmarks(tracks, points))
    return problem, gt_poses, gt_points


def perturb_problem(problem, gt_poses, gt_points, seed, rot_deg=0.5,
                    center_frac=0.01, point_frac=0.01):
    """Perturb every non-gauge pose and all points away from ground truth."""
    rng = np.random.default_rng(seed)
    baseline = np.linalg.norm(gt_poses[1].center - gt_poses[0].center)
    poses = [gt_poses[0]]
    for pose in gt_poses[1:]:
        axis = normalized(rng.normal(size=3))
        rot = pose.rotation @ so3_exp(axis * np.deg2rad(rot_deg))
        center = pose.center + rng.normal(size=3) * center_frac * baseline
        poses.append(Pose3(rot, center))
    scene = float(np.max(np.abs(gt_points))) + 1.0
    points = gt_points + rng.normal(size=gt_points.shape) * point_frac * scene
    landmarks = replace(problem.landmarks, points=points,
                        mean_errors=np.zeros(len(points)))
    return BaProblem(tuple(poses), problem.intrinsics, landmarks)


def pose_errors_after_alignment(est_poses, gt_poses):
    sim = sim3_align(list(est_poses), list(gt_poses))
    rot_errs, center_errs = [], []
    for est, gt in zip(est_poses, gt_poses):
        aligned = sim.transform_pose(est)
        rot_errs.append(rotation_angular_error(aligned.rotation, gt.rotation))
        center_errs.append(np.linalg.norm(aligned.center - gt.center))
    return float(np.max(rot_errs)), float(np.max(center_errs))


def mean_center_error(est_poses, gt_poses):
    sim = sim3_align(list(est_poses), list(gt_poses))
    errs = [np.linalg.norm(sim.transform_pose(est).center - gt.center)
            for est, gt in zip(est_poses, gt_poses)]
    return float(np.mean(errs))


def perturbed_column(problem, config, col):
    """Return a function h -> problem with parameter column ``col`` shifted."""
    layout = ba_parameter_layout(problem, config)
    registered = problem.registered_cameras()

    def build(h):
        poses = list(problem.poses)
        intrinsics = list(problem.intrinsics)
        landmarks = problem.landmarks
        for cam in registered:
            c0 = layout.cam_cols[cam]
            if c0 <= col < c0 + 6:
                local = col - c0
                pose = poses[cam]
                if local < 3:
                    omega = np.zeros(3)
                    omega[local] = h
                    poses[cam] = Pose3(pose.rotation @ so3_exp(omega),
                                       pose.translation)
                else:
                    center = pose.translation.copy()
                    center[local - 3] += h
                    poses[cam] = Pose3(pose.rotation, center)
                return BaProblem(tuple(poses), tuple(intrinsics), landmarks)
        if config.optimize_intrinsics:
            seen = set()
            for cam in registered:
                c0 = layout.intr_cols[cam]
                if c0 in seen:
                    continue
                seen.add(c0)
                if c0 <= col < c0 + 5:
                    local = col - c0
                    field = ("f", "k1", "k2", "u0", "v0")[local]
                    targets = ([cam] if not config.share_intrinsics
                               else registered)
                    for t in targets:
                        intr = intrinsics[t]
                        intrinsics[t] = replace(
                            intr, **{field: getattr(intr, field) + h})
                    return BaProblem(tuple(poses), tuple(intrinsics),
                                     landmarks)
        for j, lm in enumerate(landmarks):
            c0 = layout.point_cols[j]
            if c0 <= col < c0 + 3:
                points = landmarks.points.copy()
                points[j, col - c0] += h
                return BaProblem(tuple(poses), tuple(intrinsics),
                                 replace(landmarks, points=points))
        raise AssertionError(f"column {col} not found")

    return build


class TestBaProblem:

    def test_inlier_on_unregistered_image_is_refused(self):
        problem, _, _ = make_problem(seed=3, n_cameras=4, n_points=3)
        poses = list(problem.poses)
        poses[2] = None
        with pytest.raises(ValueError, match="unregistered image 2"):
            BaProblem(tuple(poses), problem.intrinsics, problem.landmarks)
        with pytest.raises(ValueError, match="unregistered image 3"):
            BaProblem(problem.poses[:3], problem.intrinsics,
                      problem.landmarks)
        # an outlier row may see an unregistered image
        inliers = problem.landmarks.inliers & (
            problem.landmarks.tracks.images != 2)
        BaProblem(tuple(poses), problem.intrinsics,
                  replace(problem.landmarks, inliers=inliers))
        with pytest.raises(ValueError, match="registered camera"):
            BaProblem((None,) * 4, problem.intrinsics, problem.landmarks)

    @pytest.mark.parametrize("share", [True, False])
    def test_layout_columns_by_image_id(self, share):
        problem, _, _ = make_problem(seed=3, n_cameras=4, n_points=3)
        poses = list(problem.poses)
        poses[1] = None
        inliers = problem.landmarks.inliers & (
            problem.landmarks.tracks.images != 1)
        problem = BaProblem(tuple(poses), problem.intrinsics,
                            replace(problem.landmarks, inliers=inliers))
        layout = ba_parameter_layout(problem, BaConfig(
            optimize_intrinsics=True, share_intrinsics=share))
        assert layout.cam_cols.tolist() == [0, -1, 6, 12]
        assert layout.intr_cols.tolist() == (
            [18, -1, 18, 18] if share else [18, -1, 23, 28])
        first_point = 23 if share else 33
        assert layout.point_cols.tolist() == [first_point + 3 * j
                                              for j in range(3)]
        assert layout.n_cols == first_point + 9
        assert not len(ba_parameter_layout(problem).intr_cols)


class TestResidualsAndJacobian:

    def test_zero_noise_residuals_vanish(self):
        problem, _, _ = make_problem(seed=0, n_cameras=4, n_points=10)
        res, _ = ba_residuals_and_jacobian(problem)
        assert np.linalg.norm(res) < 1e-9

    @pytest.mark.parametrize("optimize_intr,share",
                             [(False, True), (True, True), (True, False)])
    def test_jacobian_matches_central_differences(self, optimize_intr, share):
        config = BaConfig(optimize_intrinsics=optimize_intr,
                          share_intrinsics=share)
        step = 1e-6
        for seed in range(4):
            problem, _, _ = make_problem(seed=seed, n_cameras=3, n_points=5)
            res, jac = ba_residuals_and_jacobian(problem, config)
            dense = jac.toarray()
            layout = ba_parameter_layout(problem, config)
            for col in range(layout.n_cols):
                build = perturbed_column(problem, config, col)
                r_plus, _ = ba_residuals_and_jacobian(build(step), config)
                r_minus, _ = ba_residuals_and_jacobian(build(-step), config)
                fd = (r_plus - r_minus) / (2.0 * step)
                scale = max(1.0, float(np.max(np.abs(fd))))
                err = float(np.max(np.abs(dense[:, col] - fd))) / scale
                assert err < 1e-5, f"seed {seed} column {col}: {err}"

    @pytest.mark.parametrize("optimize_intr,share",
                             [(False, True), (True, True), (True, False)])
    def test_jacobian_matches_per_observation_loop(self, optimize_intr, share):
        config = BaConfig(optimize_intrinsics=optimize_intr,
                          share_intrinsics=share)
        problem, _, _ = make_problem(seed=21, n_cameras=4, n_points=6,
                                     noise_px=0.5)
        _, jac = ba_residuals_and_jacobian(problem, config)
        rows = bundle_adjustment._inlier_rows(problem)
        cam_idx, _, lm_idx, _ = rows
        lin = bundle_adjustment._evaluate(
            bundle_adjustment._State.from_problem(problem), rows, config)[1]()
        layout = ba_parameter_layout(problem, config)
        expected = np.zeros((2 * len(cam_idx), layout.n_cols))
        for k, (cam, j) in enumerate(zip(cam_idx, lm_idx)):
            rows = slice(2 * k, 2 * k + 2)
            pose = layout.cam_cols[cam]
            expected[rows, pose:pose + 6] = lin.j_cam[k, :, :6]
            if optimize_intr:
                intr = layout.intr_cols[cam]
                expected[rows, intr:intr + 5] = lin.j_cam[k, :, 6:]
            point = layout.point_cols[j]
            expected[rows, point:point + 3] = lin.j_point[k]
        np.testing.assert_array_equal(jac.toarray(), expected)

    def test_on_axis_point_zero_residual_and_zero_focal_derivative(self):
        intr = CameraIntrinsics(f=600.0, k1=-0.05, k2=0.002, u0=380.0,
                                v0=285.0)
        poses = (Pose3(np.eye(3), np.array([0.0, 0.0, -5.0])),
                 Pose3(np.eye(3), np.array([0.0, 0.0, -3.0])))
        track = ((0, (intr.u0, intr.v0)), (1, (intr.u0, intr.v0)))
        problem = BaProblem(poses, (intr, intr),
                            make_landmarks([track], [np.zeros(3)]))
        config = BaConfig(optimize_intrinsics=True, share_intrinsics=True)
        res, jac = ba_residuals_and_jacobian(problem, config)
        np.testing.assert_allclose(res, 0.0, atol=1e-12)
        layout = ba_parameter_layout(problem, config)
        focal_col = layout.intr_cols[0]
        np.testing.assert_allclose(jac.toarray()[:, focal_col], 0.0,
                                   atol=1e-12)

    def test_behind_camera_constant_residual_zero_jacobian(self):
        intr = CameraIntrinsics(f=600.0, k1=0.0, k2=0.0, u0=380.0, v0=285.0)
        # the point sits behind camera 0 and in front of camera 1
        poses = (Pose3(np.eye(3), np.array([0.0, 0.0, -5.0])),
                 Pose3(np.eye(3), np.array([0.0, 0.0, -20.0])))
        point = np.array([0.1, 0.2, -10.0])
        track = ((0, (400.0, 300.0)), (1, (390.0, 290.0)))
        problem = BaProblem(poses, (intr, intr), make_landmarks([track], [point]))
        config = BaConfig()
        res, jac = ba_residuals_and_jacobian(problem, config)
        behind = res[:2]
        assert np.linalg.norm(behind) == pytest.approx(config.huber_px,
                                                       abs=1e-12)
        np.testing.assert_allclose(jac.toarray()[:2, :], 0.0, atol=1e-15)
        assert np.any(jac.toarray()[2:, :] != 0.0)


def per_camera_evaluate(problem, config):
    """Residuals and Jacobian blocks one camera at a time (reference)."""
    from globalsfm.geometry import (MIN_DEPTH, camera_point_pixel_jacobian,
                                    project_camera_points, so3_hat_batch)

    cam_idx, _, lm_idx, uv = bundle_adjustment._inlier_rows(problem)
    n = len(cam_idx)
    points = np.array([lm.point for lm in problem.landmarks])
    res = np.zeros((n, 2))
    valid = np.zeros(n, dtype=bool)
    j_cam = np.zeros((n, 2, 11 if config.optimize_intrinsics else 6))
    j_point = np.zeros((n, 2, 3))
    const = config.huber_px if config.huber_px is not None else 1.0
    for cam in sorted(set(cam_idx.tolist())):
        sel = np.nonzero(cam_idx == cam)[0]
        rot, center = problem.poses[cam].rotation, problem.poses[cam].center
        intr = problem.intrinsics[cam]
        p_cam = (points[lm_idx[sel]] - center) @ rot
        ok = p_cam[:, 2] > MIN_DEPTH
        valid[sel] = ok
        res[sel] = np.where(ok[:, None],
                            project_camera_points(p_cam, intr) - uv[sel],
                            const / np.sqrt(2.0))
        duv_dp = camera_point_pixel_jacobian(p_cam, intr)
        duv_dp[~ok] = 0.0
        j_cam[sel, :, :3] = duv_dp @ so3_hat_batch(p_cam)
        j_cam[sel, :, 3:6] = duv_dp @ (-rot.T)
        j_point[sel] = duv_dp @ rot.T
        if config.optimize_intrinsics:
            ji = bundle_adjustment._intrinsics_jacobian(p_cam, intr)
            ji[~ok] = 0.0
            j_cam[sel, :, 6:] = ji
    return res, valid, j_cam, j_point


class TestStackedEvaluate:
    @pytest.mark.parametrize("optimize_intr", [False, True])
    def test_matches_per_camera_loop(self, optimize_intr):
        problem, _, _ = make_problem(seed=27, n_cameras=5, n_points=12,
                                     noise_px=0.5)
        intrinsics = tuple(
            CameraIntrinsics(f=560.0 + 15.0 * k, k1=-0.06 + 0.02 * k,
                             k2=0.003 - 0.001 * k, u0=370.0 + 4.0 * k,
                             v0=280.0 - 3.0 * k) for k in range(5))
        # camera 2 unregistered; landmark 0 moved behind camera 0
        poses = list(problem.poses)
        poses[2] = None
        points, masks = [], []
        for j, lm in enumerate(problem.landmarks):
            mask = lm.inlier_mask.copy()
            mask[2] = False
            masks.append(mask)
            points.append(poses[0].center - 2.0 * poses[0].rotation[:, 2]
                          if j == 0 else lm.point)
        problem = BaProblem(tuple(poses), intrinsics, make_landmarks(
            observations_of(problem.landmarks.tracks), points, masks))
        config = BaConfig(optimize_intrinsics=optimize_intr)

        residual_only, differentiate = bundle_adjustment._evaluate(
            bundle_adjustment._State.from_problem(problem),
            bundle_adjustment._inlier_rows(problem), config)
        lin = differentiate()
        res, valid, j_cam, j_point = per_camera_evaluate(problem, config)
        assert not valid.all()
        np.testing.assert_array_equal(lin.valid, valid)
        np.testing.assert_allclose(lin.res, res, rtol=1e-12, atol=1e-9)
        np.testing.assert_allclose(lin.j_cam, j_cam, rtol=1e-12, atol=1e-9)
        np.testing.assert_allclose(lin.j_point, j_point, rtol=1e-12,
                                   atol=1e-9)
        assert not np.any(lin.j_cam[~valid]) and not np.any(lin.j_point[~valid])
        np.testing.assert_array_equal(residual_only.res, lin.res)
        np.testing.assert_array_equal(residual_only.valid, lin.valid)
        assert residual_only.j_cam is None and residual_only.j_point is None


class TestRunBundleAdjustment:

    def test_already_optimal_fixed_point(self):
        problem, gt_poses, gt_points = make_problem(seed=1, n_cameras=5,
                                                    n_points=15)
        refined, report = run_bundle_adjustment(problem)
        assert report.iterations <= 1
        assert report.converged
        for est, orig in zip(refined.poses, problem.poses):
            assert rotation_angular_error(est.rotation, orig.rotation) < 1e-9
            assert np.linalg.norm(est.center - orig.center) < 1e-9
        for lm, orig in zip(refined.landmarks, problem.landmarks):
            assert np.linalg.norm(lm.point - orig.point) < 1e-9

    def test_perturbed_initialization_recovers_ground_truth(self):
        problem, gt_poses, gt_points = make_problem(seed=2, n_cameras=8,
                                                    n_points=40)
        noisy = perturb_problem(problem, gt_poses, gt_points, seed=3)
        refined, report = run_bundle_adjustment(noisy)
        assert report.final_cost <= report.initial_cost
        rot_err, center_err = pose_errors_after_alignment(
            refined.poses, gt_poses)
        assert rot_err < 1e-5
        assert center_err < 1e-5

    def test_cost_non_increasing_and_report_fields(self):
        problem, gt_poses, gt_points = make_problem(seed=4, n_cameras=6,
                                                    n_points=25, noise_px=1.0)
        noisy = perturb_problem(problem, gt_poses, gt_points, seed=5)
        refined, report = run_bundle_adjustment(noisy)
        assert report.final_cost <= report.initial_cost
        assert report.iterations >= 1
        assert report.n_tracks_kept == len(refined.landmarks)

    def test_gauge_invariance_under_sim3(self):
        from globalsfm.geometry import Sim3, random_rotation

        problem, gt_poses, gt_points = make_problem(seed=6, n_cameras=6,
                                                    n_points=20)
        noisy = perturb_problem(problem, gt_poses, gt_points, seed=7)
        rng = np.random.default_rng(8)
        sim = Sim3(random_rotation(rng), rng.normal(size=3) * 4.0, 1.7)
        moved = BaProblem(
            tuple(sim.transform_pose(p) for p in noisy.poses),
            noisy.intrinsics,
            replace(noisy.landmarks, points=np.array(
                [sim.transform(lm.point) for lm in noisy.landmarks])))
        _, report_a = run_bundle_adjustment(noisy)
        _, report_b = run_bundle_adjustment(moved)
        assert abs(report_a.final_cost - report_b.final_cost) < 1e-9

    def test_huber_bounds_outlier_influence_l2_does_not(self):
        problem, gt_poses, gt_points = make_problem(
            seed=9, n_cameras=8, n_points=40, noise_px=0.3)
        base_solution, _ = run_bundle_adjustment(problem)
        base_center = mean_center_error(base_solution.poses, gt_poses)

        # corrupt exactly 1% of the observations by a 100 px offset
        rng = np.random.default_rng(10)
        tracks = observations_of(problem.landmarks.tracks)
        n_obs = sum(len(track) for track in tracks)
        n_bad = max(1, round(0.01 * n_obs))
        bad_slots = set()
        while len(bad_slots) < n_bad:
            lm_idx = int(rng.integers(len(problem.landmarks)))
            slot = int(rng.integers(len(tracks[lm_idx])))
            bad_slots.add((lm_idx, slot))
        corrupted_tracks = []
        for j, track in enumerate(tracks):
            obs = list(track)
            for k in range(len(obs)):
                if (j, k) in bad_slots:
                    angle = rng.uniform(0.0, 2.0 * np.pi)
                    image, (u, v) = obs[k]
                    obs[k] = (image, (u + 100.0 * np.cos(angle),
                                      v + 100.0 * np.sin(angle)))
            corrupted_tracks.append(tuple(obs))
        corrupted = BaProblem(problem.poses, problem.intrinsics, make_landmarks(
            corrupted_tracks, problem.landmarks.points))

        huber_solution, _ = run_bundle_adjustment(corrupted)
        l2_solution, _ = run_bundle_adjustment(
            corrupted, BaConfig(huber_px=None))
        huber_center = mean_center_error(huber_solution.poses, gt_poses)
        l2_center = mean_center_error(l2_solution.poses, gt_poses)
        assert huber_center <= 10.0 * base_center
        assert l2_center > 10.0 * base_center


class TestBlockStructure:

    def test_points_in_several_problems_are_refused(self):
        with pytest.raises(ValueError, match="one problem"):
            BlockStructure(np.zeros((2, 1), dtype=int), np.array([0, -1]),
                           n_cam_params=1, n_points=1, n_problems=2,
                           row_problem=np.array([0, 1]))

    def test_point_free_problems_build_no_point_indices(self):
        rng = np.random.default_rng(5)
        structure = BlockStructure(
            np.broadcast_to(np.arange(2), (6, 2)), np.full(6, -1),
            n_cam_params=2, n_points=0, n_problems=3,
            row_problem=np.repeat(np.arange(3), 2))
        lin = Linearization(rng.normal(size=(6, 1)), np.ones(6, dtype=bool),
                            rng.normal(size=(6, 1, 2)))
        normal = normal_equations(lin, structure, None)
        assert normal.u.shape == (3, 2, 2) and not len(normal.v)
        assert "point_scatter_index" not in vars(structure)


class TestSchurLmCore:

    @staticmethod
    def capture_core_arguments(problem, config, monkeypatch):
        """The evaluate callback and block structure BA hands to the core."""
        captured = {}

        def fake_core(state, evaluate, retract, structure, huber_px,
                      max_iterations):
            captured.update(state=state, evaluate=evaluate,
                            structure=structure)
            lin, _ = evaluate(state)
            return state, lin, (None,)

        monkeypatch.setattr(bundle_adjustment, "levenberg_marquardt",
                            fake_core)
        run_bundle_adjustment(problem, config)
        return captured

    @pytest.mark.parametrize("optimize_intr,share",
                             [(False, True), (True, True), (True, False)])
    def test_damped_schur_step_solves_full_damped_normal_equations(
            self, optimize_intr, share, monkeypatch):
        config = BaConfig(optimize_intrinsics=optimize_intr,
                          share_intrinsics=share)
        problem, gt_poses, gt_points = make_problem(seed=22, n_cameras=4,
                                                    n_points=8, noise_px=2.0)
        noisy = perturb_problem(problem, gt_poses, gt_points, seed=23)
        captured = self.capture_core_arguments(noisy, config, monkeypatch)
        lin = captured["evaluate"](captured["state"])[1]()
        lam = 1e-3
        delta_cam, delta_pt, singular = damped_step(
            normal_equations(lin, captured["structure"], config.huber_px),
            lam)
        assert delta_cam.shape[0] == 1 and not singular.any()

        # full system over every parameter but the gauge camera's pose,
        # which the layout places first
        res, jac = ba_residuals_and_jacobian(noisy, config)
        jac = jac.toarray()[:, 6:]
        weights = np.repeat(bundle_adjustment._robust_weights(
            res.reshape(-1, 2), lin.valid, config.huber_px), 2)
        assert np.any(weights < 1.0)  # the Huber loss is active
        hessian = jac.T @ (weights[:, None] * jac)
        damped = hessian + lam * np.eye(len(hessian))
        rhs = -jac.T @ (weights * res)
        # The damped system's condition number reaches 9e8, where a plain
        # dense solve is itself most of the tolerance away from the exact
        # solution; refine it with residuals in extended precision.
        expected = np.linalg.solve(damped, rhs)
        for _ in range(3):
            residual = (rhs.astype(np.longdouble)
                        - damped.astype(np.longdouble)
                        @ expected.astype(np.longdouble))
            expected = expected + np.linalg.solve(damped,
                                                  residual.astype(float))
        step = np.concatenate([delta_cam[0], delta_pt.ravel()])
        np.testing.assert_allclose(step, expected, rtol=1e-8,
                                   atol=1e-10 * np.max(np.abs(expected)))

    def test_point_free_rows_and_fixed_columns_match_dense_system(self):
        """Rows that see no point (point index -1) next to rows that do,
        with 3-wide residuals and some held-fixed camera entries, as the
        translation position solve builds them."""
        rng = np.random.default_rng(31)
        n_rows, n_cam, n_pts, huber = 40, 9, 4, 0.5
        cam_cols = rng.integers(-1, n_cam, size=(n_rows, 6))
        point_idx = np.where(np.arange(n_rows) % 3 == 0, -1,
                             np.arange(n_rows) % n_pts)
        res = rng.normal(scale=0.5, size=(n_rows, 3))
        valid = np.arange(n_rows) != 5
        # the point block of a point-free row must be ignored, so fill it
        lin = Linearization(res, valid, rng.normal(size=(n_rows, 3, 6)),
                            rng.normal(size=(n_rows, 3, 3)))
        structure = BlockStructure(cam_cols, point_idx, n_cam, n_pts)
        lam = 1e-2
        delta_cam, delta_pt, singular = damped_step(
            normal_equations(lin, structure, huber), lam)
        assert delta_cam.shape[0] == 1 and not singular.any()

        jac = np.zeros((3 * n_rows, n_cam + 3 * n_pts))
        for row in range(n_rows):
            rows = slice(3 * row, 3 * row + 3)
            for entry, col in enumerate(cam_cols[row]):
                if col >= 0:
                    jac[rows, col] += lin.j_cam[row, :, entry]
            if point_idx[row] >= 0:
                col = n_cam + 3 * point_idx[row]
                jac[rows, col:col + 3] += lin.j_point[row]
        np.testing.assert_array_equal(block_jacobian(lin, structure).toarray(),
                                      jac)
        weights = np.repeat(bundle_adjustment._robust_weights(res, valid,
                                                              huber), 3)
        assert np.any((weights > 0.0) & (weights < 1.0))
        hessian = jac.T @ (weights[:, None] * jac)
        expected = np.linalg.solve(hessian + lam * np.eye(len(hessian)),
                                   -jac.T @ (weights * res.ravel()))
        step = np.concatenate([delta_cam[0], delta_pt.ravel()])
        np.testing.assert_allclose(step, expected, rtol=1e-8,
                                   atol=1e-10 * np.max(np.abs(expected)))

    def test_jacobian_evaluated_once_per_accepted_step(self, monkeypatch):
        """No state is evaluated twice: one evaluation at the start and per
        trial step, one differentiation at the start and per accepted step,
        of the evaluation that accepted it."""
        problem, gt_poses, gt_points = make_problem(seed=24, n_cameras=6,
                                                    n_points=25, noise_px=1.0)
        # points displaced by a whole scene radius: some trials overshoot
        noisy = perturb_problem(problem, gt_poses, gt_points, seed=25,
                                rot_deg=5.0, center_frac=0.05, point_frac=1.0)
        log = []
        monkeypatch.setattr(bundle_adjustment, "levenberg_marquardt",
                            recording_core(
                                bundle_adjustment.levenberg_marquardt, log))
        _, report = run_bundle_adjustment(noisy)

        accepted, rejected, final_cost = replay_one_problem(
            log, BaConfig().huber_px)
        assert rejected >= 1 and accepted >= 3
        assert final_cost == report.final_cost


def lone_core(state, evaluate, retract, structure, huber_px,
              max_iterations=100):
    """Reference: the Levenberg-Marquardt loop of one problem written out
    plainly, with LAPACK's 3x3 inverses, one dense Schur product and a step
    that is None when a solve fails."""
    def cost_of(lin):
        norms = np.linalg.norm(lin.res, axis=1)
        if huber_px is None:
            return float(np.sum(norms * norms))
        return float(np.sum(np.where(norms <= huber_px, norms * norms,
                                     huber_px * (2.0 * norms - huber_px))))

    def step(normal, lam):
        n_cam = normal.u.shape[-1]
        try:
            v_inv = np.linalg.inv(normal.v + lam * np.eye(3))
            wv = np.einsum("lpk,lkj->lpj", normal.w, v_inv)
            s_mat = (normal.u[0] + lam * np.eye(n_cam)
                     - wv.transpose(1, 0, 2).reshape(n_cam, -1)
                     @ normal.w.transpose(1, 0, 2).reshape(n_cam, -1).T)
            rhs = -(normal.g_cam[0] - np.einsum("lpj,lj->p", wv, normal.g_pt))
            delta_cam = np.linalg.solve(s_mat, rhs)
        except np.linalg.LinAlgError:
            return None
        back = np.einsum("lpj,p->lj", normal.w, delta_cam)
        return delta_cam, np.einsum("lij,lj->li", v_inv,
                                    -(normal.g_pt + back))

    lin = evaluate(state)[1]()
    cost = initial_cost = cost_of(lin)
    lam = bundle_adjustment.INITIAL_DAMPING
    converged = False
    for iterations in range(1, max_iterations + 1):
        if cost <= bundle_adjustment.COST_FLOOR_PER_ROW * len(lin.res):
            converged = True
            break
        normal = normal_equations(lin, structure, huber_px)
        gradient = np.concatenate([normal.g_cam.ravel(), normal.g_pt.ravel()])
        if np.max(np.abs(gradient), initial=0.0) < bundle_adjustment.GRADIENT_TOL:
            converged = True
            break
        for _attempt in range(bundle_adjustment.DAMPING_ATTEMPTS):
            delta = step(normal, lam)
            candidate = None if delta is None else retract(state, *delta)
            trial, differentiate = ((None, None) if candidate is None
                                    else evaluate(candidate))
            trial_cost = np.inf if trial is None else cost_of(trial)
            if trial_cost < cost:
                break
            lam *= 10.0
        else:
            converged = True
            break
        state, prev_cost, cost = candidate, cost, trial_cost
        lam = max(lam * 0.1, bundle_adjustment.MIN_DAMPING)
        lin = differentiate()
        if prev_cost - cost < bundle_adjustment.COST_DECREASE_TOL * (prev_cost + 1e-30):
            converged = True
            break
    return state, lin, (bundle_adjustment.BaRound(
        initial_cost, cost, iterations, converged, structure.n_points, None),)


class TestOneProblemCore:

    @pytest.mark.parametrize("huber_px", [1.345, None])
    def test_gives_the_lone_loops_iterates(self, huber_px, monkeypatch):
        """Global BA through the core takes exactly the steps of the plain
        one-problem loop: the same evaluations in the same order and the
        same result."""
        problem, gt_poses, gt_points = make_problem(seed=24, n_cameras=6,
                                                    n_points=25, noise_px=1.0)
        # points displaced by a whole scene radius: some trials overshoot
        noisy = perturb_problem(problem, gt_poses, gt_points, seed=25,
                                rot_deg=5.0, center_frac=0.05, point_frac=1.0)
        config = BaConfig(huber_px=huber_px)
        evaluate = bundle_adjustment._evaluate
        runs = {}
        for name, core in (("core", bundle_adjustment.levenberg_marquardt),
                           ("lone", lone_core)):
            calls = []

            def recording(state, obs, config):
                lin, differentiate = evaluate(state, obs, config)
                calls.append(("evaluate", lin.res.copy()))

                def recorded_differentiate():
                    full = differentiate()
                    calls.append(("differentiate", full.res.copy()))
                    return full
                return lin, recorded_differentiate

            monkeypatch.setattr(bundle_adjustment, "_evaluate", recording)
            monkeypatch.setattr(bundle_adjustment, "levenberg_marquardt", core)
            runs[name] = (run_bundle_adjustment(noisy, config), calls)
        (core_problem, core_round), core_calls = runs["core"]
        (lone_problem, lone_round), lone_calls = runs["lone"]
        assert lone_round.iterations > 3
        assert core_round == lone_round
        assert len(core_calls) == len(lone_calls)
        for (kind_core, res_core), (kind_lone, res_lone) in zip(core_calls,
                                                                lone_calls):
            assert kind_core == kind_lone
            np.testing.assert_array_equal(res_core, res_lone)
        for a, b in zip(core_problem.poses, lone_problem.poses):
            np.testing.assert_array_equal(a.rotation, b.rotation)
            np.testing.assert_array_equal(a.translation, b.translation)


class TestFilterTracks:

    def make_noisy_filtered_problem(self):
        problem, gt_poses, gt_points = make_problem(
            seed=11, n_cameras=5, n_points=20, noise_px=1.5)
        return problem

    def test_identity_when_all_below_threshold(self):
        problem, _, _ = make_problem(seed=12, n_cameras=4, n_points=10)
        filtered = filter_tracks(problem, 10.0)
        assert len(filtered.landmarks) == len(problem.landmarks)

    def test_removes_landmark_above_threshold(self):
        problem, _, _ = make_problem(seed=13, n_cameras=4, n_points=10)
        tracks = observations_of(problem.landmarks.tracks)
        obs = list(tracks[3])
        image, (u, v) = obs[0]
        obs[0] = (image, (u + 12.0, v))  # 12 px error in one view
        tracks[3] = tuple(obs)
        problem = BaProblem(problem.poses, problem.intrinsics,
                            make_landmarks(tracks, problem.landmarks.points))
        filtered = filter_tracks(problem, 10.0)
        assert len(filtered.landmarks) == 9
        errors = per_landmark(filtered, landmark_reprojection_errors(filtered))
        assert all(float(np.max(e)) <= 10.0 for e in errors)

    def test_behind_camera_observation_is_infinite_and_dropped(self):
        problem, _, _ = make_problem(seed=20, n_cameras=4, n_points=10)
        points = problem.landmarks.points.copy()
        # one unit behind camera 0, on its optical axis
        pose = problem.poses[0]
        points[3] = pose.center - pose.rotation[:, 2]
        problem = BaProblem(problem.poses, problem.intrinsics,
                            replace(problem.landmarks, points=points))
        landmarks = list(problem.landmarks)
        errors = per_landmark(problem, landmark_reprojection_errors(problem))
        assert errors[3][0] == np.inf
        for j, lm in enumerate(landmarks):
            for slot, (image, pixel) in enumerate(
                    zip(lm.images.tolist(), lm.pixels)):
                if j == 3 and image == 0:
                    continue
                uv, _ = project_points(lm.point, problem.poses[image],
                                       problem.intrinsics[image])
                assert errors[j][slot] == pytest.approx(
                    np.linalg.norm(uv[0] - np.array(pixel)), abs=1e-9)
        filtered = filter_tracks(problem, 10.0)
        tracks = observations_of(problem.landmarks.tracks)
        assert observations_of(filtered.landmarks.tracks) == \
            [track for j, track in enumerate(tracks) if j != 3]

    def test_cascade_counts_non_increasing(self):
        problem = self.make_noisy_filtered_problem()
        counts = [len(problem.landmarks)]
        current = problem
        for threshold in (10.0, 5.0, 3.0):
            current = filter_tracks(current, threshold)
            counts.append(len(current.landmarks))
        assert all(a >= b for a, b in zip(counts, counts[1:]))

    def test_idempotent_at_fixed_threshold(self):
        problem = self.make_noisy_filtered_problem()
        once = filter_tracks(problem, 5.0)
        twice = filter_tracks(once, 5.0)
        assert len(once.landmarks) == len(twice.landmarks)

    def test_all_filtered_raises(self):
        problem, _, _ = make_problem(seed=14, n_cameras=4, n_points=5,
                                     noise_px=2.0)
        with pytest.raises(AllTracksFiltered):
            filter_tracks(problem, 0.001)


class TestThreeRoundBa:

    def test_noise_free_all_tracks_survive(self):
        problem, gt_poses, gt_points = make_problem(seed=15, n_cameras=5,
                                                    n_points=15)
        final, report = three_round_ba(problem)
        assert len(final.landmarks) == 15
        assert len(report.rounds) == 3
        errors = landmark_reprojection_errors(final)
        assert float(np.mean(errors)) < 1e-9
        thresholds = [r.filter_threshold_px for r in report.rounds]
        assert thresholds == [10.0, 5.0, 3.0]

    def test_noisy_final_mean_error_bounded_by_last_threshold(self):
        problem, gt_poses, gt_points = make_problem(
            seed=16, n_cameras=10, n_points=30, noise_px=1.0)
        noisy = perturb_problem(problem, gt_poses, gt_points, seed=17,
                                rot_deg=0.2, center_frac=0.005,
                                point_frac=0.005)
        final, report = three_round_ba(noisy)
        errors = landmark_reprojection_errors(final)
        assert float(np.mean(errors)) <= 3.0
        for r in report.rounds:
            assert r.final_cost <= r.initial_cost
        counts = [r.n_tracks_kept for r in report.rounds]
        assert all(a >= b for a, b in zip(counts, counts[1:]))

    def test_stored_mean_error_describes_final_landmarks(self):
        problem, _, _ = make_problem(seed=16, n_cameras=10, n_points=30,
                                     noise_px=1.0)
        final, _ = three_round_ba(problem)
        errors = per_landmark(final, landmark_reprojection_errors(final))
        assert len(errors) == len(final.landmarks)
        for lm, errs in zip(final.landmarks, errors):
            assert lm.mean_error == float(np.mean(errs))

    def test_outlier_dominated_tracks_removed(self):
        problem, gt_poses, gt_points = make_problem(
            seed=18, n_cameras=6, n_points=20, noise_px=0.5)
        rng = np.random.default_rng(19)
        tracks = observations_of(problem.landmarks.tracks)
        poisoned = sorted(rng.choice(len(tracks), size=3, replace=False))
        for j in poisoned:
            obs = []
            for image, (u, v) in tracks[j]:
                obs.append((image, (u + float(rng.normal(scale=80.0)),
                                    v + float(rng.normal(scale=80.0)))))
            tracks[j] = tuple(obs)
        corrupted = BaProblem(problem.poses, problem.intrinsics,
                              make_landmarks(tracks, problem.landmarks.points))
        final, _ = three_round_ba(corrupted)
        surviving_tracks = set(observations_of(final.landmarks.tracks))
        for j in poisoned:
            assert tracks[j] not in surviving_tracks
