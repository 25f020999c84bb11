"""Tests for relative/global pose error metrics and the pose AUC score."""

import json

import numpy as np
import pytest

from globalsfm.errors import DegenerateError, MissingPose
from globalsfm.geometry import (
    Pose3,
    Sim3,
    normalized,
    random_rotation,
    so3_exp,
)
from globalsfm.metrics import (
    compute_metrics,
    error_distribution,
    global_pose_errors,
    pose_auc,
    relative_pose_errors,
    track_statistics,
)
from _helpers import make_landmarks


def orbit_poses(n_cameras, radius=5.0):
    poses = []
    for k in range(n_cameras):
        theta = 2.0 * np.pi * k / n_cameras
        center = np.array([radius * np.cos(theta), radius * np.sin(theta),
                           0.5 * np.sin(2.0 * theta)])
        z_axis = normalized(-center)
        up = np.array([0.0, 0.0, 1.0])
        x_axis = normalized(np.cross(up, z_axis))
        y_axis = np.cross(z_axis, x_axis)
        poses.append(Pose3(np.column_stack([x_axis, y_axis, z_axis]), center))
    return poses


def ring_pairs(n):
    return [(i, (i + 1) % n) for i in range(n)] + [(i, (i + 2) % n)
                                                   for i in range(n)]


def recall_integral_oracle(errors, n_unregistered, threshold,
                           n_samples=1_000_000):
    """Midpoint numeric integration of the cumulative recall step function."""
    n_total = len(errors) + n_unregistered
    if n_total == 0:
        return 0.0
    sorted_errs = np.sort(np.asarray(errors, dtype=float))
    step = threshold / n_samples
    midpoints = (np.arange(n_samples) + 0.5) * step
    counts = np.searchsorted(sorted_errs, midpoints, side="right")
    recall = counts / n_total
    return float(100.0 * np.mean(recall))


class TestRelativePoseErrors:

    def test_exact_estimate_gives_zero_errors(self):
        poses = orbit_poses(8)
        errors, skipped = relative_pose_errors(poses, poses, ring_pairs(8))
        assert skipped == ()
        assert len(errors) == 16
        for rot, trans, pose in errors.values():
            assert rot < 1e-9
            assert trans < 1e-9
            assert pose < 1e-9

    def test_five_degree_rotation_offset(self):
        gt = orbit_poses(4)
        axis = normalized(np.array([0.3, -0.5, 0.8]))
        est = list(gt)
        est[0] = Pose3(gt[0].rotation @ so3_exp(np.deg2rad(5.0) * axis),
                       gt[0].translation)
        errors, _ = relative_pose_errors(est, gt, [(0, 1)])
        rot, trans, pose = errors[(0, 1)]
        assert rot == pytest.approx(5.0, abs=1e-9)
        assert pose >= 5.0 - 1e-12
        assert pose == pytest.approx(max(rot, trans), abs=0.0)

    def test_zero_baseline_pair_skipped(self):
        pose_a = Pose3(np.eye(3), np.array([1.0, 2.0, 3.0]))
        pose_b = Pose3(so3_exp(np.array([0.1, 0.0, 0.0])),
                       np.array([1.0, 2.0, 3.0]))
        pose_c = Pose3(np.eye(3), np.array([4.0, 2.0, 3.0]))
        errors, skipped = relative_pose_errors(
            [pose_a, pose_b, pose_c], [pose_a, pose_b, pose_c],
            [(0, 1), (0, 2)])
        assert skipped == ((0, 1),)
        assert (0, 2) in errors

    def test_missing_pose_raises(self):
        poses = orbit_poses(3)
        with pytest.raises(MissingPose):
            relative_pose_errors([poses[0], None, poses[2]], poses, [(0, 1)])
        with pytest.raises(MissingPose):
            relative_pose_errors(poses, poses, [(0, 5)])


class TestGlobalPoseErrors:

    def test_gauge_transformed_estimate_scores_zero(self):
        gt = orbit_poses(10)
        rng = np.random.default_rng(3)
        sim = Sim3(random_rotation(rng), rng.normal(size=3) * 2.0, 0.6)
        est = [sim.transform_pose(p) for p in gt]
        errors = global_pose_errors(est, gt)
        assert set(errors) == set(range(10))
        for rot, trans in errors.values():
            assert rot < 1e-6
            assert trans < 1e-6

    def test_symmetric_two_degree_perturbation_reports_two_degrees(self):
        # equal and opposite rotations keep the alignment at identity, so
        # the perturbed cameras report exactly their own offsets
        centers = [np.array([1.0, 2.0, 3.0]), np.array([4.0, 1.0, 2.0]),
                   np.array([2.0, 5.0, 1.0]), np.array([3.0, 3.0, 4.0])]
        gt = [Pose3(np.eye(3), c) for c in centers]
        axis = normalized(np.array([1.0, 1.0, -1.0]))
        est = [
            Pose3(so3_exp(np.deg2rad(2.0) * axis), centers[0]),
            Pose3(so3_exp(-np.deg2rad(2.0) * axis), centers[1]),
            gt[2], gt[3],
        ]
        errors = global_pose_errors(est, gt)
        assert errors[0][0] == pytest.approx(2.0, abs=1e-9)
        assert errors[1][0] == pytest.approx(2.0, abs=1e-9)
        assert errors[2][0] == pytest.approx(0.0, abs=1e-9)
        assert errors[3][0] == pytest.approx(0.0, abs=1e-9)
        for _, trans in errors.values():
            assert trans < 1e-9

    def test_unregistered_cameras_excluded(self):
        gt = orbit_poses(6)
        est = list(gt)
        est[2] = None
        est[5] = None
        errors = global_pose_errors(est, gt)
        assert set(errors) == {0, 1, 3, 4}

    def test_fewer_than_two_registered_raises(self):
        gt = orbit_poses(4)
        with pytest.raises(DegenerateError):
            global_pose_errors([gt[0], None, None, None], gt)

    def test_invariant_to_estimate_gauge(self):
        gt = orbit_poses(8)
        rng = np.random.default_rng(11)
        est = []
        for pose in gt:
            rot = pose.rotation @ so3_exp(rng.normal(size=3) * 0.01)
            est.append(Pose3(rot, pose.center + rng.normal(size=3) * 0.02))
        base = global_pose_errors(est, gt)
        sim = Sim3(random_rotation(rng), rng.normal(size=3) * 3.0, 2.5)
        moved = [sim.transform_pose(p) for p in est]
        other = global_pose_errors(moved, gt)
        for idx in base:
            assert base[idx][0] == pytest.approx(other[idx][0], abs=1e-6)
            assert base[idx][1] == pytest.approx(other[idx][1], abs=1e-6)


class TestPoseAuc:

    def test_all_zero_errors_scores_hundred(self):
        auc = pose_auc([0.0] * 7, 0)
        assert set(auc) == {1.0, 2.5, 5.0, 10.0, 20.0}
        for value in auc.values():
            assert value == pytest.approx(100.0, abs=0.0)

    def test_all_errors_beyond_last_threshold_score_zero(self):
        auc = pose_auc([25.0, 30.0, 90.0], 0)
        for value in auc.values():
            assert value == pytest.approx(0.0, abs=0.0)

    def test_single_half_degree_error_scores_fifty_at_one_degree(self):
        auc = pose_auc([0.5], 0, thresholds=(1.0,))
        assert auc[1.0] == pytest.approx(50.0, abs=1e-12)

    def test_unregistered_cameras_cap_the_score(self):
        auc = pose_auc([0.0, 0.0], 2)
        for value in auc.values():
            assert value == pytest.approx(50.0, abs=1e-12)

    def test_infinite_errors_behave_like_unregistered(self):
        a = pose_auc([0.3, np.inf, 1.7], 1)
        b = pose_auc([0.3, 1.7], 2)
        for t in a:
            assert a[t] == pytest.approx(b[t], abs=0.0)

    def test_monotone_in_threshold_and_bounded(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            n = int(rng.integers(1, 40))
            errors = rng.uniform(0.0, 30.0, size=n)
            n_unreg = int(rng.integers(0, 5))
            auc = pose_auc(errors, n_unreg)
            values = [auc[t] for t in sorted(auc)]
            assert all(0.0 <= v <= 100.0 for v in values)
            assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))

    def test_matches_numeric_integration_oracle(self):
        rng = np.random.default_rng(33)
        for trial in range(50):
            n = int(rng.integers(1, 30))
            errors = rng.uniform(0.0, 25.0, size=n)
            n_unreg = int(rng.integers(0, 4))
            auc = pose_auc(errors, n_unreg)
            for t, value in auc.items():
                oracle = recall_integral_oracle(errors, n_unreg, t)
                assert value == pytest.approx(oracle, abs=0.01), \
                    f"trial {trial} threshold {t}"

    def test_input_validation(self):
        with pytest.raises(ValueError):
            pose_auc([-0.5], 0)
        with pytest.raises(ValueError):
            pose_auc([1.0], -1)
        with pytest.raises(ValueError):
            pose_auc([1.0], 0, thresholds=(5.0, 2.0))
        with pytest.raises(ValueError):
            pose_auc([1.0], 0, thresholds=())


class TestTrackStatistics:

    def make_landmarks(self, lengths, mean_errs, masks=None, start_image=0):
        tracks = [tuple((start_image + k, (float(10 * k), float(5 * k)))
                        for k in range(length)) for length in lengths]
        return make_landmarks(tracks, [[0.1, 0.2, 0.3]] * len(lengths), masks,
                              mean_errs)

    def test_empty_landmarks(self):
        n, dist, mean_err = track_statistics([])
        assert n == 0
        assert dist["values"] == []
        assert dist["mean"] is None
        assert mean_err is None

    def test_lengths_and_mean(self):
        landmarks = self.make_landmarks([3, 3, 4], [0.5, 1.0, 1.5])
        n, dist, mean_err = track_statistics(landmarks)
        assert n == 3
        assert dist["mean"] == pytest.approx(10.0 / 3.0, abs=1e-12)
        assert sorted(dist["values"]) == [3, 3, 4]
        assert mean_err == pytest.approx(1.0, abs=1e-12)

    def test_inlier_mask_controls_length(self):
        mask = np.array([True, False, True, True, False])
        lm = self.make_landmarks([5], [0.0], [mask])
        _, dist, _ = track_statistics(lm)
        assert dist["values"] == [3]


class TestComputeMetrics:

    def build_inputs(self):
        gt = orbit_poses(8)
        rng = np.random.default_rng(7)
        est = []
        for pose in gt:
            rot = pose.rotation @ so3_exp(rng.normal(size=3) * 0.002)
            est.append(Pose3(rot, pose.center + rng.normal(size=3) * 0.01))
        est[3] = None
        landmarks = make_landmarks(
            [((0, (1.0, 2.0)), (1, (3.0, 4.0)), (2, (5.0, 6.0)))],
            [[0.0, 0.1, 0.2]], [np.ones(3, dtype=bool)], [0.4])
        return est, gt, ring_pairs(8), landmarks

    def test_report_counts_and_bounds(self):
        est, gt, pairs, landmarks = self.build_inputs()
        report = compute_metrics(est, gt, pairs, landmarks)
        assert report.n_cameras_total == 8
        assert report.n_registered_cameras == 7
        touching = {p for p in pairs if 3 in p}
        assert report.n_pairs_skipped_unregistered == len(touching)
        assert report.n_pairs_evaluated == len(pairs) - len(touching)
        assert report.n_tracks_filtered == 1
        assert report.track_mean_reprojection_error_px == pytest.approx(0.4)
        for t, value in report.pose_auc.items():
            assert 0.0 <= value <= 100.0

    def test_perfect_estimate_scores_full_auc(self):
        gt = orbit_poses(6)
        report = compute_metrics(list(gt), gt, ring_pairs(6), [])
        for value in report.pose_auc.values():
            assert value == pytest.approx(100.0, abs=1e-6)
        assert report.relative_pose_error_deg["max"] < 1e-9
        assert report.global_pose_error_deg["max"] < 1e-6

    def test_json_round_trip_and_schema(self):
        est, gt, pairs, landmarks = self.build_inputs()
        report = compute_metrics(est, gt, pairs, landmarks)
        payload = json.loads(report.to_json())
        assert payload["n_registered_cameras"] == 7
        assert set(payload["pose_auc"]) == {"1.0", "2.5", "5.0", "10.0",
                                            "20.0"}
        for key in ("relative_rotation_error_deg",
                    "relative_translation_error_deg",
                    "relative_pose_error_deg", "global_rotation_error_deg",
                    "global_translation_error_deg", "global_pose_error_deg"):
            dist = payload[key]
            assert set(dist) == {"min", "max", "mean", "median", "values"}

    def test_error_distribution_consistency(self):
        dist = error_distribution([3.0, 1.0, 2.0])
        assert dist["min"] == 1.0
        assert dist["max"] == 3.0
        assert dist["mean"] == pytest.approx(2.0)
        assert dist["median"] == pytest.approx(2.0)
        assert dist["values"] == [3.0, 1.0, 2.0]
