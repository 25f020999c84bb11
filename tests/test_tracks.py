"""Tests for track building (connected components) and RANSAC-DLT triangulation."""

from dataclasses import dataclass

import numpy as np
import pytest

from globalsfm.errors import (
    BehindCamera,
    DegenerateError,
    MissingPose,
    TrackTooShort,
)
from globalsfm.geometry import (CameraIntrinsics, Pose3, normalized,
                                pixel_to_normalized, project_points)
from globalsfm.seeding import rng_for
from globalsfm.synthetic import generate_orbit_scene
from globalsfm.tracks import (
    LandmarkRow,
    Landmarks,
    TriangulationConfig,
    build_tracks,
    triangulate_tracks,
)

from _helpers import (make_landmarks, make_tracks, observations_of,
                      triangulation_outcomes)


def triangulate(tracks, poses, intrinsics, *args, **kwargs) -> list:
    """One outcome per track (as :func:`triangulation_outcomes` gives it)
    of tracks given as sequences of (image, (x, y))."""
    return triangulation_outcomes(triangulate_tracks(
        make_tracks(tracks), poses, intrinsics, *args, **kwargs))


@dataclass
class StubMeasurement:
    pair: tuple
    inliers: np.ndarray


def keypoint_grid(n_images, n_keypoints):
    """Distinct deterministic pixel positions per (image, keypoint)."""
    return [np.array([[100.0 * image + kp, 50.0 * image + 2.0 * kp]
                      for kp in range(n_keypoints)])
            for image in range(n_images)]


def looking_at_origin(center):
    z_axis = normalized(-np.asarray(center, dtype=float))
    up = np.array([0.0, 0.0, 1.0])
    if abs(np.dot(up, z_axis)) > 0.99:
        up = np.array([0.0, 1.0, 0.0])
    x_axis = normalized(np.cross(up, z_axis))
    y_axis = np.cross(z_axis, x_axis)
    rotation = np.column_stack([x_axis, y_axis, z_axis])
    return Pose3(rotation, np.asarray(center, dtype=float))


def make_scene(seed, n_cameras=6, n_points=12, noise_px=0.0):
    """Orbit of cameras around a point cloud; returns exact projected
    tracks, each a tuple of (image, (x, y))."""
    rng = np.random.default_rng(seed)
    intr = CameraIntrinsics(f=600.0, k1=-0.05, k2=0.002, u0=380.0, v0=285.0)
    poses = []
    for k in range(n_cameras):
        theta = 2.0 * np.pi * k / n_cameras
        center = np.array([5.0 * np.cos(theta), 5.0 * np.sin(theta),
                           1.0 * np.sin(2.0 * theta)])
        poses.append(looking_at_origin(center))
    intrinsics = [intr] * n_cameras
    points = rng.uniform(-1.0, 1.0, size=(n_points, 3))
    tracks = []
    for point in points:
        obs = []
        for image, pose in enumerate(poses):
            uv = project_points(point, pose, intr)[0][0]
            if noise_px:
                uv = uv + rng.normal(scale=noise_px, size=2)
            obs.append((image, (float(uv[0]), float(uv[1]))))
        tracks.append(tuple(obs))
    return poses, intrinsics, tracks, points


class TestTracks:

    def test_requires_two_observations(self):
        with pytest.raises(ValueError):
            make_tracks([((0, (1.0, 2.0)), (1, (1.0, 2.0))), ((0, (1.0, 2.0)),)])

    def test_requires_sorted_image_ids(self):
        with pytest.raises(ValueError):
            make_tracks([((2, (1.0, 2.0)), (0, (3.0, 4.0)))])

    def test_rejects_duplicate_image(self):
        with pytest.raises(ValueError):
            make_tracks([((1, (1.0, 2.0)), (1, (3.0, 4.0)))])

    def test_image_ids_may_fall_between_tracks(self):
        tracks = make_tracks([((3, (1.0, 2.0)), (5, (3.0, 4.0))),
                              ((0, (1.0, 2.0)), (5, (3.0, 4.0)))])
        assert [ids.tolist() for ids in tracks] == [[3, 5], [0, 5]]

    def test_accessors(self):
        tracks = make_tracks([((0, (1.0, 2.0)), (3, (5.0, 6.0))),
                              ((1, (7.0, 8.0)), (2, (9.0, 1.0)),
                               (4, (2.0, 3.0)))])
        assert len(tracks) == 2 and len(make_tracks([])) == 0
        assert [len(ids) for ids in tracks] == [2, 3]
        assert list(make_tracks([])) == []
        assert tracks.row_tracks().tolist() == [0, 0, 1, 1, 1]
        assert tracks.rows([1, 0]).tolist() == [2, 3, 4, 0, 1]
        taken = tracks.take([1, 0])
        assert observations_of(taken) == observations_of(tracks)[::-1]
        np.testing.assert_allclose(taken.pixels[3:],
                                   [[1.0, 2.0], [5.0, 6.0]])
        assert len(tracks.take([])) == 0


class TestLandmarks:

    def observations(self):
        return [((0, (1.0, 2.0)), (3, (5.0, 6.0))),
                ((1, (7.0, 8.0)), (2, (9.0, 1.0)), (4, (2.0, 3.0)))]

    def test_requires_finite_points(self):
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="finite"):
                make_landmarks(self.observations(),
                               [[0.0, 0.0, 1.0], [0.0, bad, 1.0]])

    def test_inlier_mask_matches_rows(self):
        tracks = make_tracks(self.observations())
        with pytest.raises(ValueError, match="inlier mask"):
            Landmarks(tracks, np.zeros((2, 3)), np.ones(4, dtype=bool),
                      np.zeros(2))

    def test_take_and_rows(self):
        masks = [np.array([True, False]), np.array([False, True, True])]
        landmarks = make_landmarks(self.observations(),
                                   [[0.0, 0.0, 1.0], [1.0, 2.0, 3.0]], masks,
                                   [0.5, 1.5])
        taken = landmarks.take([1])
        assert len(taken) == 1 and len(landmarks) == 2
        assert taken.inliers.tolist() == [False, True, True]
        rows = list(landmarks)
        assert all(isinstance(row, LandmarkRow) for row in rows)
        assert [row.inlier_mask.tolist() for row in rows] == \
            [mask.tolist() for mask in masks]
        assert rows[1].images.tolist() == [1, 2, 4]
        assert rows[1].point.tolist() == [1.0, 2.0, 3.0]
        assert [row.mean_error for row in rows] == [0.5, 1.5]


def bruteforce_tracks(measurements, keypoints):
    """Connected components by BFS, then validated (oracle for build_tracks)."""
    adjacency = {}
    for m in measurements:
        i, j = m.pair
        for a, b in np.atleast_2d(m.inliers):
            na, nb = (i, int(a)), (j, int(b))
            adjacency.setdefault(na, set()).add(nb)
            adjacency.setdefault(nb, set()).add(na)
    seen = set()
    result = set()
    for start in adjacency:
        if start in seen:
            continue
        component = set()
        queue = [start]
        while queue:
            node = queue.pop()
            if node in component:
                continue
            component.add(node)
            queue.extend(adjacency[node] - component)
        seen |= component
        images = [image for image, _ in component]
        if len(set(images)) != len(images):
            continue
        result.add(frozenset(
            (image, (float(keypoints[image][kp][0]),
                     float(keypoints[image][kp][1])))
            for image, kp in component))
    return result


def union_find_tracks(measurements, keypoints):
    """Tracks by a dict-based disjoint-set forest over (image, keypoint)
    nodes, the way ``build_tracks`` first built them (reference for order)."""
    parent = {}

    def find(node):
        root = node
        while parent.setdefault(root, root) != root:
            root = parent[root]
        while parent[node] != root:
            parent[node], node = root, parent[node]
        return root

    size = {}
    for m in measurements:
        i, j = m.pair
        for row in np.atleast_2d(np.asarray(m.inliers, dtype=int)):
            ra, rb = find((i, int(row[0]))), find((j, int(row[1])))
            if ra == rb:
                continue
            if size.setdefault(ra, 1) < size.setdefault(rb, 1):
                ra, rb = rb, ra
            parent[rb] = ra
            size[ra] = size[ra] + size[rb]
    groups = {}
    for node in parent:
        groups.setdefault(find(node), []).append(node)
    tracks = []
    for members in groups.values():
        image_ids = [image for image, _ in members]
        if len(set(image_ids)) != len(image_ids) or len(members) < 2:
            continue
        tracks.append(tuple(
            (image, (float(keypoints[image][kp][0]),
                     float(keypoints[image][kp][1])))
            for image, kp in sorted(members)))
    tracks.sort()
    return tracks


def random_measurements(rng, n_keypoints, n_rows):
    """Random index rows over every pair of images with keypoints."""
    images = [i for i, n in enumerate(n_keypoints) if n]
    return [StubMeasurement((i, j), np.column_stack([
                rng.integers(0, n_keypoints[i], size=n_rows),
                rng.integers(0, n_keypoints[j], size=n_rows)]))
            for i in images for j in images if i < j]


class TestBuildTracksMatchesUnionFind:
    """Exact list equality, order included, against the union-find reference."""

    def test_random_matches(self):
        for seed in range(30):
            rng = np.random.default_rng([541, seed])
            n_images = int(rng.integers(2, 7))
            n_keypoints = rng.integers(5, 25, size=n_images).tolist()
            keypoints = [rng.uniform(0.0, 640.0, size=(n, 2))
                         for n in n_keypoints]
            measurements = random_measurements(rng, n_keypoints,
                                               int(rng.integers(1, 8)))
            assert (observations_of(build_tracks(measurements, keypoints))
                    == union_find_tracks(measurements, keypoints)), seed

    def test_dict_keypoints_and_an_image_without_keypoints(self):
        rng = np.random.default_rng(547)
        n_keypoints = [30, 0, 25, 35, 0]
        keypoints = {i: rng.uniform(0.0, 640.0, size=(n, 2))
                     for i, n in enumerate(n_keypoints)}
        measurements = random_measurements(rng, n_keypoints, 5)
        tracks = build_tracks(measurements, keypoints)
        assert len(tracks)
        assert observations_of(tracks) == union_find_tracks(measurements,
                                                            keypoints)
        assert not {1, 4} & {i for ids in tracks for i in ids.tolist()}

    def test_orbit_ground_truth_matches(self):
        _, keypoints, matches, _ = generate_orbit_scene(
            12, 80, noise_px=1.0, seed=5, dropout=0.3)
        measurements = [StubMeasurement(m.pair, m.indices) for m in matches]
        tracks = build_tracks(measurements, keypoints)
        assert len(tracks) == 80
        assert observations_of(tracks) == union_find_tracks(measurements,
                                                            keypoints)

    def test_no_measurements(self):
        assert observations_of(build_tracks([], keypoint_grid(3, 4))) == []

    def test_order_is_the_tuple_sort_with_duplicate_coordinates(self):
        """Keypoints 0 and 1 of every image share their coordinates, and two
        chains of matches start at them in image 0, so two tracks agree on
        their first row and differ later.  Their order is still that of the
        (image, (x, y)) tuple sequences, which a sort by the first keypoint
        alone does not give."""
        tied_first_rows = 0
        for seed in range(20):
            rng = np.random.default_rng([557, seed])
            n_images, n_chains = 5, 6
            keypoints = [rng.uniform(0.0, 640.0, size=(2 + n_chains, 2))
                         for _ in range(n_images)]
            for kps in keypoints:
                kps[1] = kps[0]
            rows = {}
            for chain in range(n_chains):
                images = sorted(rng.choice(n_images, size=int(
                    rng.integers(2, n_images + 1)), replace=False).tolist())
                kps = [2 + chain] * len(images)
                if chain < 2:  # both start at image 0's shared coordinates
                    images = [0] + [i for i in images if i]
                    kps = [chain] + [2 + chain] * (len(images) - 1)
                for a, b, ka, kb in zip(images, images[1:], kps, kps[1:]):
                    rows.setdefault((a, b), []).append((ka, kb))
            pairs = sorted(rows)
            measurements = [StubMeasurement(pairs[k], np.array(rows[pairs[k]]))
                            for k in rng.permutation(len(pairs))]
            got = observations_of(build_tracks(measurements, keypoints))
            assert len(got) == n_chains
            assert got == union_find_tracks(measurements, keypoints), seed
            assert got == sorted(got), seed
            tied_first_rows += sum(a[0] == b[0] and a != b
                                   for a, b in zip(got, got[1:]))
        assert tied_first_rows == 20

    def test_out_of_range_keypoint_raises(self):
        measurements = [StubMeasurement((0, 1), np.array([[0, 4]]))]
        with pytest.raises(IndexError):
            build_tracks(measurements, keypoint_grid(2, 4))


class TestBuildTracks:

    def test_transitive_chain_single_track(self):
        keypoints = keypoint_grid(3, 5)
        measurements = [
            StubMeasurement((0, 1), np.array([[1, 2]])),
            StubMeasurement((1, 2), np.array([[2, 3]])),
        ]
        tracks = build_tracks(measurements, keypoints)
        assert len(tracks) == 1
        assert tracks.lengths().tolist() == [3]
        assert tracks.images.tolist() == [0, 1, 2]

    def test_disjoint_matches_stay_separate(self):
        keypoints = keypoint_grid(2, 5)
        measurements = [
            StubMeasurement((0, 1), np.array([[0, 0], [1, 1], [2, 2]])),
        ]
        tracks = build_tracks(measurements, keypoints)
        assert len(tracks) == 3
        assert all(len(t) == 2 for t in tracks)

    def test_conflicting_track_dropped_entirely(self):
        keypoints = keypoint_grid(2, 10)
        measurements = [
            StubMeasurement((0, 1), np.array([[1, 2], [9, 2]])),
        ]
        assert observations_of(build_tracks(measurements, keypoints)) == []

    def test_matches_bruteforce_oracle(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            n_images = int(rng.integers(3, 6))
            n_kp = int(rng.integers(4, 9))
            keypoints = keypoint_grid(n_images, n_kp)
            measurements = []
            for i in range(n_images):
                for j in range(i + 1, n_images):
                    n_rows = int(rng.integers(1, 6))
                    rows = rng.integers(0, n_kp, size=(n_rows, 2))
                    measurements.append(StubMeasurement((i, j), rows))
            got = {frozenset(t) for t in observations_of(
                build_tracks(measurements, keypoints))}
            expected = bruteforce_tracks(measurements, keypoints)
            assert got == expected, f"seed {seed}"

    def test_order_invariance(self):
        rng = np.random.default_rng(33)
        keypoints = keypoint_grid(5, 8)
        measurements = []
        for i in range(5):
            for j in range(i + 1, 5):
                rows = rng.integers(0, 8, size=(4, 2))
                measurements.append(StubMeasurement((i, j), rows))
        reference = set(observations_of(build_tracks(measurements, keypoints)))
        for _ in range(5):
            shuffled = list(measurements)
            rng.shuffle(shuffled)
            shuffled = [StubMeasurement(m.pair,
                                        m.inliers[rng.permutation(len(m.inliers))])
                        for m in shuffled]
            assert set(observations_of(build_tracks(shuffled,
                                                    keypoints))) == reference


class TestTriangulateRansacDlt:

    def test_noise_free_three_views_exact(self):
        poses, intrinsics, tracks, points = make_scene(seed=0, n_cameras=3)
        for track, gt in zip(tracks, points):
            landmark = triangulate([track], poses, intrinsics)[0]
            assert landmark is not None
            rel = np.linalg.norm(landmark.point - gt) / np.linalg.norm(gt)
            assert rel < 1e-8
            assert landmark.inlier_mask.all()
            assert landmark.mean_error < 1e-6

    def test_length_two_track_raises(self):
        poses, intrinsics, tracks, _ = make_scene(seed=1, n_cameras=2)
        assert isinstance(triangulate([tracks[0]], poses,
                                      intrinsics)[0], TrackTooShort)

    def test_corrupted_observation_excluded(self):
        poses, intrinsics, tracks, _ = make_scene(seed=2, n_cameras=5)
        clean = tracks[0]
        clean_landmark = triangulate([clean], poses, intrinsics)[0]
        obs = list(clean)
        image, (u, v) = obs[2]
        obs[2] = (image, (u + 50.0, v))
        corrupted = tuple(obs)
        landmark = triangulate([corrupted], poses, intrinsics)[0]
        assert landmark is not None
        assert not landmark.inlier_mask[2]
        assert landmark.inlier_mask.sum() == 4
        assert np.linalg.norm(landmark.point - clean_landmark.point) < 1e-6

    def test_distinct_intrinsics_per_view(self):
        # every view has its own focal length, distortion and principal point
        intrinsics = [CameraIntrinsics(f=500.0 + 60.0 * k, k1=-0.06 + 0.03 * k,
                                       k2=0.001 * k, u0=320.0 + 25.0 * k,
                                       v0=240.0 - 15.0 * k)
                      for k in range(5)]
        poses = [looking_at_origin(np.array([5.0 * np.cos(t), 5.0 * np.sin(t),
                                             np.sin(2.0 * t)]))
                 for t in np.linspace(0.0, 2.0 * np.pi, 5, endpoint=False)]
        point = np.array([0.3, -0.2, 0.4])
        obs = []
        for image, (pose, intr) in enumerate(zip(poses, intrinsics)):
            u, v = project_points(point, pose, intr)[0][0]
            obs.append((image, (float(u), float(v))))
        landmark = triangulate([tuple(obs)], poses, intrinsics)[0]
        assert landmark.inlier_mask.all()
        assert np.linalg.norm(landmark.point - point) < 1e-8
        assert landmark.mean_error < 1e-6

        image, (u, v) = obs[3]
        obs[3] = (image, (u + 20.0, v))
        landmark = triangulate([tuple(obs)], poses, intrinsics)[0]
        assert landmark.inlier_mask.tolist() == [True, True, True, False, True]
        assert np.linalg.norm(landmark.point - point) < 1e-8

    def test_hypothesis_errors_match_per_point_loop(self):
        from globalsfm.geometry import distort, stack_intrinsics
        from globalsfm.tracks import _reprojection_errors

        poses, intrinsics, tracks, _ = make_scene(seed=4, n_cameras=5)
        pixels = np.array([xy for _, xy in tracks[0]])
        rng = np.random.default_rng(9)
        points = rng.uniform(-1.0, 1.0, size=(7, 3))
        points[2] = poses[1].center - poses[1].rotation[:, 2]  # behind view 1
        errors, depths = _reprojection_errors(
            points, np.array([pose.rotation for pose in poses]),
            np.array([pose.center for pose in poses]),
            stack_intrinsics(intrinsics), pixels)
        assert errors.shape == depths.shape == (7, 5)
        for h, point in enumerate(points):
            for k, (pose, intr) in enumerate(zip(poses, intrinsics)):
                cam = pose.world_to_camera().transform(point)
                uv = intr.f * distort(intr, cam[:2] / cam[2]) + \
                    np.array([intr.u0, intr.v0])
                assert depths[h, k] == pytest.approx(cam[2], abs=1e-12)
                assert errors[h, k] == pytest.approx(
                    np.linalg.norm(uv - pixels[k]), abs=1e-9)
        assert depths[2, 1] < 0.0

    def test_ransac_matches_full_dlt_noise_free(self):
        from globalsfm.tracks import _camera_matrices, _dlt_points
        from globalsfm.geometry import pixel_to_normalized

        poses, intrinsics, tracks, _ = make_scene(seed=3, n_cameras=6)
        for track in tracks[:6]:
            landmark = triangulate([track], poses, intrinsics)[0]
            rays = np.array([
                pixel_to_normalized(np.array(uv), intrinsics[image])
                for image, uv in track])
            matrices = _camera_matrices([poses[image] for image, _ in track])
            full = _dlt_points(rays[None], matrices[None])[0]
            assert np.linalg.norm(landmark.point - full) < 1e-9

    def test_near_parallel_rays_degenerate(self):
        intr = CameraIntrinsics(f=600.0, k1=0.0, k2=0.0, u0=380.0, v0=285.0)
        centers = [np.zeros(3), np.array([1e-5, 0, 0]), np.array([0, 1e-5, 0])]
        poses = [Pose3(np.eye(3), c) for c in centers]
        point = np.array([0.0, 0.0, 100.0])
        obs = []
        for image, pose in enumerate(poses):
            uv = project_points(point, pose, intr)[0][0]
            obs.append((image, (float(uv[0]), float(uv[1]))))
        assert isinstance(triangulate([tuple(obs)], poses, [intr] * 3)[0],
                          DegenerateError)

    def test_point_behind_cameras_raises(self):
        intr = CameraIntrinsics(f=600.0, k1=0.0, k2=0.0, u0=380.0, v0=285.0)
        centers = [np.zeros(3), np.array([1.0, 0, 0]), np.array([0, 1.0, 0])]
        poses = [Pose3(np.eye(3), c) for c in centers]
        point = np.array([0.3, -0.2, -5.0])  # behind every camera
        obs = []
        for image, pose in enumerate(poses):
            cam = pose.world_to_camera().transform(point)
            uv = (intr.f * cam[0] / cam[2] + intr.u0,
                  intr.f * cam[1] / cam[2] + intr.v0)
            obs.append((image, (float(uv[0]), float(uv[1]))))
        assert isinstance(triangulate([tuple(obs)], poses, [intr] * 3)[0],
                          BehindCamera)

    def test_missing_poses_raise(self):
        poses, intrinsics, tracks, _ = make_scene(seed=4, n_cameras=4)
        gutted = [poses[0], None, None, None]
        assert isinstance(triangulate([tracks[0]], gutted, intrinsics)[0],
                          MissingPose)

    def test_too_few_inliers_rejected_as_none(self):
        poses, intrinsics, tracks, _ = make_scene(seed=5, n_cameras=3)
        obs = list(tracks[0])
        image, (u, v) = obs[1]
        obs[1] = (image, (u + 50.0, v))
        assert triangulate([tuple(obs)], poses, intrinsics)[0] is None

    def test_inlier_observations_reproject_within_threshold(self):
        config = TriangulationConfig()
        for seed in range(8):
            poses, intrinsics, tracks, _ = make_scene(
                seed=seed, n_cameras=6, n_points=8, noise_px=1.0)
            rng = np.random.default_rng(seed + 100)
            for track_id, track in enumerate(tracks):
                obs = list(track)
                if rng.uniform() < 0.5:  # corrupt one view
                    k = int(rng.integers(0, len(obs)))
                    image, (u, v) = obs[k]
                    obs[k] = (image, (u + 60.0, v - 40.0))
                landmark = triangulate(
                    [tuple(obs)], poses, intrinsics, config,
                    [track_id], seed)[0]
                if isinstance(landmark, (BehindCamera, DegenerateError)):
                    continue
                if landmark is None:
                    continue
                assert isinstance(landmark, LandmarkRow)
                assert landmark.inlier_mask.sum() >= config.min_track_length
                for slot, (image, uv) in enumerate(
                        zip(landmark.images.tolist(), landmark.pixels)):
                    if not landmark.inlier_mask[slot]:
                        continue
                    reproj = project_points(landmark.point, poses[image],
                                            intrinsics[image])[0][0]
                    err = np.linalg.norm(reproj - np.array(uv))
                    assert err <= config.inlier_threshold_px + 1e-9

    def test_sampling_determinism_with_many_views(self):
        poses, intrinsics, tracks, _ = make_scene(
            seed=6, n_cameras=16, n_points=3, noise_px=0.5)
        track = tracks[0]
        assert len(track) * (len(track) - 1) // 2 > 100
        first = triangulate([track], poses, intrinsics, track_ids=[7],
                            seed=42)[0]
        second = triangulate([track], poses, intrinsics, track_ids=[7],
                             seed=42)[0]
        assert np.array_equal(first.point, second.point)
        assert np.array_equal(first.inlier_mask, second.inlier_mask)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TriangulationConfig(min_track_length=1)
        with pytest.raises(ValueError):
            TriangulationConfig(inlier_threshold_px=0.0)


def loop_dlt_point(rays, poses):
    """One DLT system built row by row from per-pose inverses (reference)."""
    rows = []
    for (x, y), pose in zip(rays, poses):
        w2c = pose.world_to_camera()
        rot, trans = w2c.rotation, w2c.translation
        p1 = np.append(rot[0], trans[0])
        p2 = np.append(rot[1], trans[1])
        p3 = np.append(rot[2], trans[2])
        rows.append(x * p3 - p1)
        rows.append(y * p3 - p2)
    _, _, vt = np.linalg.svd(np.array(rows))
    hom = vt[-1]
    if abs(hom[3]) < 1e-12 * np.linalg.norm(hom[:3]):
        return np.full(3, np.nan)
    return hom[:3] / hom[3]


def loop_triangulate(track, poses, intrinsics, config=TriangulationConfig(),
                     track_id=0, seed=0):
    """Per-observation, per-hypothesis, per-view RANSAC-DLT (reference).

    Returns (point, full inlier mask) or None; the degeneracy and cheirality
    checks are left to the tests that raise them.
    """
    usable = [(slot, image, np.array(uv))
              for slot, (image, uv) in enumerate(track)
              if poses[image] is not None]
    obs_poses = [poses[image] for _, image, _ in usable]
    obs_intr = [intrinsics[image] for _, image, _ in usable]
    pixels = np.array([uv for _, _, uv in usable])
    rays = np.array([pixel_to_normalized(uv, intr)
                     for intr, (_, _, uv) in zip(obs_intr, usable)])

    def errors_of(point):
        return np.array([
            np.linalg.norm(project_points(point, pose, intr)[0][0] - uv)
            for pose, intr, uv in zip(obs_poses, obs_intr, pixels)])

    n_obs = len(usable)
    pairs = [(a, b) for a in range(n_obs) for b in range(a + 1, n_obs)]
    if len(pairs) > config.max_hypotheses:
        rng = rng_for(seed, "triangulate", track_id)
        chosen = rng.choice(len(pairs), size=config.max_hypotheses,
                            replace=False)
        pairs = [pairs[int(c)] for c in chosen]
    best_mask, best_count, best_errsum = None, -1, np.inf
    for a, b in pairs:
        point = loop_dlt_point(rays[[a, b]], [obs_poses[a], obs_poses[b]])
        if not np.all(np.isfinite(point)):
            continue
        errors = errors_of(point)
        mask = errors <= config.inlier_threshold_px
        count = int(mask.sum())
        errsum = float(np.sum(errors[mask])) if count else np.inf
        if count > best_count or (count == best_count and errsum < best_errsum):
            best_mask, best_count, best_errsum = mask, count, errsum
    if best_mask is None or best_count < config.min_track_length:
        return None
    idx = np.nonzero(best_mask)[0]
    point = loop_dlt_point(rays[idx], [obs_poses[k] for k in idx])
    mask = errors_of(point) <= config.inlier_threshold_px
    if int(mask.sum()) < config.min_track_length:
        return None
    full_mask = np.zeros(len(track), dtype=bool)
    for local, (slot, _, _) in enumerate(usable):
        full_mask[slot] = mask[local]
    return point, full_mask


def distinct_intrinsics(n):
    return [CameraIntrinsics(f=500.0 + 20.0 * k, k1=-0.08 + 0.015 * k,
                             k2=0.002 - 0.0005 * k, u0=320.0 + 7.0 * k,
                             v0=240.0 - 5.0 * k)
            for k in range(n)]


def noisy_track(point, poses, intrinsics, rng, noise_px, corrupt=()):
    obs = []
    for image, (pose, intr) in enumerate(zip(poses, intrinsics)):
        uv = project_points(point, pose, intr)[0][0]
        uv = uv + rng.normal(scale=noise_px, size=2)
        if image in corrupt:
            uv = uv + np.array([45.0, -30.0])
        obs.append((image, (float(uv[0]), float(uv[1]))))
    return tuple(obs)


class TestBatchedTriangulation:

    def test_batched_hypotheses_match_per_pair_loop(self):
        from globalsfm.tracks import _camera_matrices, _dlt_points

        poses, _, tracks, _ = make_scene(seed=8, n_cameras=6, noise_px=0.3)
        intrinsics = distinct_intrinsics(6)
        rays = np.array([pixel_to_normalized(np.array(uv), intrinsics[image])
                         for image, uv in tracks[0]])
        # two cameras looking down +z from different centers, both seeing
        # the principal ray: the pair's point lies at infinity
        poses = poses + [Pose3(np.eye(3), np.zeros(3)),
                         Pose3(np.eye(3), np.array([1.0, 0.0, 0.0]))]
        rays = np.vstack([rays, np.zeros((2, 2))])
        pairs = np.array([(a, b) for a in range(8) for b in range(a + 1, 8)])

        batched = _dlt_points(rays[pairs], _camera_matrices(poses)[pairs])
        assert batched.shape == (len(pairs), 3)
        for (a, b), point in zip(pairs, batched):
            expected = loop_dlt_point(rays[[a, b]], [poses[a], poses[b]])
            if (a, b) == (6, 7):
                assert np.all(np.isnan(expected))
                assert np.all(np.isnan(point))
            else:
                np.testing.assert_allclose(point, expected, rtol=1e-12,
                                           atol=1e-12)

    @pytest.mark.parametrize("case", ["distorted_distinct", "many_views",
                                      "unposed_view"])
    def test_matches_loop_reference(self, case):
        rng = np.random.default_rng(21)
        n_cameras = 16 if case == "many_views" else 7
        poses, intrinsics, _, _ = make_scene(seed=9, n_cameras=n_cameras)
        if case == "distorted_distinct":
            intrinsics = distinct_intrinsics(n_cameras)
        observed_from = list(poses)
        if case == "unposed_view":
            poses[4] = None
        config = TriangulationConfig()
        checked = 0
        for track_id in range(12):
            point = rng.uniform(-1.0, 1.0, size=3)
            corrupt = {int(rng.integers(0, n_cameras))} if track_id % 2 else ()
            track = noisy_track(point, observed_from, intrinsics, rng,
                                noise_px=1.0, corrupt=corrupt)
            if case == "many_views":
                assert len(track) * (len(track) - 1) // 2 > \
                    config.max_hypotheses
            expected = loop_triangulate(track, poses, intrinsics, config,
                                        track_id=track_id, seed=5)
            landmark = triangulate([track], poses, intrinsics, config,
                                   [track_id], 5)[0]
            assert (landmark is None) == (expected is None)
            if landmark is None:
                continue
            assert np.array_equal(landmark.inlier_mask, expected[1])
            assert np.linalg.norm(landmark.point - expected[0]) < 1e-9
            if case == "unposed_view":
                assert not landmark.inlier_mask[4]
            checked += 1
        assert checked >= 10


def reference_triangulate(track, poses, intrinsics, config, track_id, seed):
    """One track at a time: its own undistortion call, hypotheses, (H, V)
    scoring, refit and final reprojection."""
    from globalsfm.geometry import project_camera_points, stack_intrinsics
    from globalsfm.tracks import _camera_matrices, _dlt_points

    def reprojection_errors(points, obs_poses, obs_intr, pixels):
        points = np.atleast_2d(points)
        rotations = np.array([pose.rotation for pose in obs_poses])
        centers = np.array([pose.translation for pose in obs_poses])
        p_cam = ((points[:, None, None, :] - centers[:, None, :])
                 @ rotations)[:, :, 0]
        uv = project_camera_points(p_cam, stack_intrinsics(obs_intr))
        errors = np.linalg.norm(uv - pixels, axis=2)
        depths = p_cam[..., 2]
        errors[np.abs(depths) < 1e-9] = np.inf
        return errors, depths

    if len(track) < config.min_track_length:
        raise TrackTooShort(
            f"track length {len(track)} < {config.min_track_length}")
    slots = [k for k, (image, _) in enumerate(track)
             if poses[image] is not None]
    if len(slots) < 2:
        raise MissingPose(
            f"only {len(slots)} observed cameras have poses (need 2)")
    images = [track[k][0] for k in slots]
    obs_poses = [poses[image] for image in images]
    obs_intr = [intrinsics[image] for image in images]
    pixels = np.array([track[k][1] for k in slots])
    rays = pixel_to_normalized(pixels, stack_intrinsics(obs_intr))
    matrices = _camera_matrices(obs_poses)
    rays_h = np.column_stack([rays, np.ones(len(rays))])
    world_rays = (rays_h[:, None, :] @ matrices[:, :, :3])[:, 0]
    world_rays /= np.linalg.norm(world_rays, axis=1, keepdims=True)
    angles = np.arccos(np.clip(world_rays @ world_rays.T, -1.0, 1.0))
    if float(np.max(angles)) < 1e-3:
        raise DegenerateError(
            f"max triangulation angle {np.max(angles):.2e} rad < 1e-3")
    pairs = np.column_stack(np.triu_indices(len(slots), 1))
    if len(pairs) > config.max_hypotheses:
        rng = rng_for(seed, "triangulate", track_id)
        pairs = pairs[rng.choice(len(pairs), size=config.max_hypotheses,
                                 replace=False)]
    hypotheses = _dlt_points(rays[pairs], matrices[pairs])
    hypotheses = hypotheses[np.all(np.isfinite(hypotheses), axis=1)]
    if not len(hypotheses):
        return None
    all_errors, _ = reprojection_errors(hypotheses, obs_poses, obs_intr,
                                        pixels)
    masks = all_errors <= config.inlier_threshold_px
    counts = masks.sum(axis=1)
    errsums = np.where(masks, all_errors, 0.0).sum(axis=1)
    best_count = counts.max()
    if best_count < config.min_track_length:
        return None
    best = int(np.argmin(np.where(counts == best_count, errsums, np.inf)))
    inlier_idx = np.nonzero(masks[best])[0]
    point = _dlt_points(rays[None, inlier_idx], matrices[None, inlier_idx])[0]
    if not np.all(np.isfinite(point)):
        return None
    errors, depths = reprojection_errors(point, obs_poses, obs_intr, pixels)
    errors, depths = errors[0], depths[0]
    mask = errors <= config.inlier_threshold_px
    if int(mask.sum()) < config.min_track_length:
        return None
    if np.any(depths[mask] <= 0.0):
        raise BehindCamera(
            f"final point behind {int(np.sum(depths[mask] <= 0.0))} inlier views")
    full_mask = np.zeros(len(track), dtype=bool)
    full_mask[slots] = mask
    return LandmarkRow(np.array([image for image, _ in track]),
                       np.array([xy for _, xy in track]), point, full_mask,
                       float(np.mean(errors[mask])))


def mixed_batch():
    """Poses, intrinsics and a batch of tracks that covers every outcome.

    Images 0-15 orbit the origin with distinct distorted intrinsics; 16 and
    27 are unposed.  17-19 nearly share a center (parallel rays), 20-22 see
    a point behind them, and 23-26 see a point whose first hypothesis
    (23, 24) lies at infinity.
    """
    orbit, _, _, _ = make_scene(seed=31, n_cameras=16)
    intrinsics = distinct_intrinsics(17)
    pinhole = CameraIntrinsics(f=600.0, u0=380.0, v0=285.0)
    centers = ([[0.0, 0.0, 0.0], [1e-5, 0.0, 0.0], [0.0, 1e-5, 0.0]]
               + [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]
               + [[10.0, 0.0, 0.0], [11.0, 0.0, 0.0], [10.5, 0.0, 0.0],
                  [10.0, 0.5, 0.0]])
    poses = (orbit + [None] + [Pose3(np.eye(3), np.array(c)) for c in centers]
             + [None])
    intrinsics += [pinhole] * (len(centers) + 1)

    def observe(point, images, corrupt=(), noise=0.0, rng=None):
        obs = []
        for image in images:
            # unposed images get the pixel of camera 0
            pose = orbit[0] if poses[image] is None else poses[image]
            uv = project_points(point, pose, intrinsics[image])[0][0]
            if noise:
                uv = uv + rng.normal(scale=noise, size=2)
            if image in corrupt:
                uv = uv + np.array([45.0, -30.0])
            obs.append((image, (float(uv[0]), float(uv[1]))))
        return tuple(obs)

    rng = np.random.default_rng(33)
    tracks = []
    for length in range(3, 17):
        for _ in range(2):
            images = sorted(int(k) for k in
                            rng.choice(16, size=length, replace=False))
            if rng.uniform() < 0.3:
                images.append(16)
            corrupt = {int(rng.choice(images))} if rng.uniform() < 0.5 else ()
            tracks.append(observe(rng.uniform(-1.0, 1.0, size=3), images,
                                  corrupt, noise=1.0, rng=rng))
    for length in (6, 8):
        # two points seen by half the views each: equal inlier counts, so
        # the inlier error sum picks the point
        images = sorted(int(k) for k in
                        rng.choice(16, size=length, replace=False))
        halves = [observe(rng.uniform(-1.0, 1.0, size=3), images, noise=1.0,
                          rng=rng) for _ in range(2)]
        tracks.append(halves[0][:length // 2] + halves[1][length // 2:])
    tracks.append(observe(np.array([0.0, 0.0, 100.0]), [17, 18, 19]))
    tracks.append(observe(np.array([0.3, -0.2, -5.0]), [20, 21, 22]))
    at_infinity = list(observe(np.array([10.0, 0.0, 3.0]),
                               [23, 24, 25, 26]))
    at_infinity[1] = (24, (pinhole.u0, pinhole.v0))  # parallel to 23's ray
    tracks.append(tuple(at_infinity))
    tracks.append(observe(np.zeros(3), [3, 16]))  # too short
    tracks.append(observe(np.zeros(3), [16, 25, 27]))  # one posed view
    return poses, intrinsics, tracks


def outcome_of(run):
    """A call's LandmarkRow or None, or the typed error it raised."""
    try:
        return run()
    except (TrackTooShort, MissingPose, DegenerateError, BehindCamera) as exc:
        return exc


def assert_same_outcome(outcome, expected, rtol=1e-12):
    """Same outcome, a landmark's point within ``rtol``; at ``rtol=0`` the
    point and its error to the bit."""
    assert type(outcome) is type(expected)
    if isinstance(expected, Exception):
        assert str(outcome) == str(expected)
    elif expected is not None and rtol == 0:
        assert np.array_equal(outcome.inlier_mask, expected.inlier_mask)
        assert outcome.point.tobytes() == expected.point.tobytes()
        assert outcome.mean_error == expected.mean_error
    elif expected is not None:
        assert np.array_equal(outcome.inlier_mask, expected.inlier_mask)
        assert np.linalg.norm(outcome.point - expected.point) <= \
            rtol * np.linalg.norm(expected.point)
        assert outcome.mean_error == pytest.approx(expected.mean_error,
                                                   rel=1e-9)


# the default budget, which only tracks of 15 or more usable views exceed,
# and a small one, under which the draw decides most tracks' hypotheses
CONFIGS = [TriangulationConfig(), TriangulationConfig(max_hypotheses=4)]


class TestTriangulateTracks:

    @pytest.mark.parametrize("config", CONFIGS)
    def test_matches_one_track_reference(self, config):
        poses, intrinsics, tracks = mixed_batch()
        track_ids = [3 * k + 1 for k in range(len(tracks))]
        outcomes = triangulate(tracks, poses, intrinsics, config, track_ids,
                               seed=5)
        assert len(outcomes) == len(tracks)
        for track, track_id, outcome in zip(tracks, track_ids, outcomes):
            expected = outcome_of(lambda: reference_triangulate(
                track, poses, intrinsics, config, track_id, 5))
            assert_same_outcome(outcome, expected)
            assert_same_outcome(
                triangulate([track], poses, intrinsics, config, [track_id],
                            5)[0],
                expected)
        kinds = [type(outcome).__name__ for outcome in outcomes]
        for kind in ("LandmarkRow", "NoneType", "TrackTooShort",
                     "MissingPose", "DegenerateError", "BehindCamera"):
            assert kind in kinds, kind
        usable = [sum(poses[image] is not None for image, _ in t)
                  for t in tracks]
        assert max(usable) * (max(usable) - 1) // 2 > 100
        if config.max_hypotheses > 1:
            # the at-infinity hypothesis is dropped; the rest still solve it
            assert outcomes[-3].inlier_mask.tolist() == [True, False, True,
                                                         True]

    @pytest.mark.parametrize("config", CONFIGS)
    def test_outcome_independent_of_batch_mates(self, config):
        poses, intrinsics, tracks = mixed_batch()
        track_ids = list(range(100, 100 + len(tracks)))
        together = triangulate(tracks, poses, intrinsics, config, track_ids,
                               seed=2)
        order = np.random.default_rng(7).permutation(len(tracks))
        shuffled = triangulate([tracks[k] for k in order], poses, intrinsics,
                               config, [track_ids[k] for k in order], seed=2)
        # the batch's cameras are distorted, so this holds to the bit only
        # if each ray stops undistorting at its own convergence
        for position, k in enumerate(order):
            alone = triangulate([tracks[k]], poses, intrinsics, config,
                                [track_ids[k]], seed=2)[0]
            for other in (alone, shuffled[position]):
                assert_same_outcome(other, together[k], rtol=0.0)

    def test_landmarks_follow_the_batch_and_outcomes_index_them(self):
        poses, intrinsics, tracks = mixed_batch()
        landmarks, outcomes = triangulate_tracks(make_tracks(tracks), poses,
                                                 intrinsics, seed=3)
        kept = [k for k, outcome in enumerate(outcomes)
                if isinstance(outcome, int)]
        assert [outcomes[k] for k in kept] == list(range(len(landmarks)))
        assert observations_of(landmarks.tracks) == [tracks[k] for k in kept]
        assert not any(row.inlier_mask[-1] for k, row in zip(kept, landmarks)
                       if tracks[k][-1][0] == 16)  # unposed image 16

    def test_empty_and_unsolvable_batches(self):
        poses, intrinsics, tracks = mixed_batch()
        landmarks, outcomes = triangulate_tracks(make_tracks([]), poses,
                                                 intrinsics)
        assert len(landmarks) == 0 and outcomes == []
        landmarks, outcomes = triangulate_tracks(make_tracks(tracks[-2:]),
                                                 poses, intrinsics)
        assert len(landmarks) == 0
        assert [type(o) for o in outcomes] == [TrackTooShort, MissingPose]

    def test_default_track_ids_are_positions(self):
        poses, intrinsics, tracks, _ = make_scene(seed=6, n_cameras=16,
                                                  n_points=3, noise_px=0.5)
        batch = triangulate(tracks, poses, intrinsics)
        for k, track in enumerate(tracks):
            one = triangulate([track], poses, intrinsics, track_ids=[k])[0]
            assert_same_outcome(batch[k], one)


def test_segment_means_match_np_mean_to_the_bit():
    from globalsfm.tracks import segment_means

    rng = np.random.default_rng(71)
    lengths = rng.integers(0, 40, size=300)
    values = rng.uniform(0.0, 10.0, size=int(lengths.sum()))
    means = segment_means(values, lengths)
    for mean, segment in zip(means, np.split(values,
                                             np.cumsum(lengths)[:-1])):
        if len(segment):
            assert mean == np.mean(segment)
        else:
            assert np.isnan(mean)
