"""Tests for synthetic scene generation and outlier edge injection."""

import numpy as np
import pytest

from globalsfm.errors import DegenerateScene, InputError
from globalsfm.essential import essential_from_rt
from globalsfm.geometry import (
    normalized,
    pixel_to_normalized,
    relative_pose,
    rotation_angular_error,
)
from globalsfm.synthetic import (
    MODE_DOPPELGANGER,
    MODE_RANDOM,
    LABEL_CLEAN,
    generate_orbit_scene,
    inject_outlier_edges,
)
from globalsfm.two_view import VerificationConfig, keypoint_rays, verify_pairs


def pair_match_lookup(matches):
    return {m.pair: m for m in matches}


class TestGenerateOrbitScene:

    def test_scene_invariants(self):
        scene, keypoints, matches, descriptors = generate_orbit_scene(
            n_cameras=12, n_points=100, seed=3)
        assert scene.n_cameras == 12
        assert scene.visibility.shape == (12, scene.n_points)
        assert np.all(scene.visibility.sum(axis=0) >= 2)
        assert np.all(scene.visibility.sum(axis=1) >= 8)
        assert np.all(np.abs(scene.points) <= 1.0 + 1e-12)
        for pose in scene.poses:
            look = pose.rotation[:, 2]
            assert float(look @ normalized(-pose.center)) > 0.999999
        assert len(descriptors) == 12
        for i in range(12):
            assert len(keypoints[i]) == int(scene.visibility[i].sum())
            assert len(scene.keypoint_point_ids[i]) == len(keypoints[i])

    def test_matches_cover_shared_visibility(self):
        scene, keypoints, matches, _ = generate_orbit_scene(
            n_cameras=8, n_points=60, seed=5)
        lookup = pair_match_lookup(matches)
        for i in range(8):
            for j in range(i + 1, 8):
                shared = int(np.sum(scene.visibility[i]
                                    & scene.visibility[j]))
                if shared == 0:
                    assert (i, j) not in lookup
                    continue
                match = lookup[(i, j)]
                assert len(match.indices) == shared
                ids_i = scene.keypoint_point_ids[i][match.indices[:, 0]]
                ids_j = scene.keypoint_point_ids[j][match.indices[:, 1]]
                np.testing.assert_array_equal(ids_i, ids_j)

    def test_noise_free_matches_satisfy_epipolar_constraint(self):
        scene, keypoints, matches, _ = generate_orbit_scene(
            n_cameras=10, n_points=80, noise_px=0.0, seed=7)
        for match in matches:
            i, j = match.pair
            rel = relative_pose(scene.poses[i], scene.poses[j])
            essential = essential_from_rt(rel.rotation,
                                          normalized(rel.translation))
            x_i = pixel_to_normalized(keypoints[i][match.indices[:, 0]],
                                      scene.intrinsics[i])
            x_j = pixel_to_normalized(keypoints[j][match.indices[:, 1]],
                                      scene.intrinsics[j])
            h_i = np.column_stack([x_i, np.ones(len(x_i))])
            h_j = np.column_stack([x_j, np.ones(len(x_j))])
            residuals = np.abs(np.sum(h_j * (essential @ h_i.T).T, axis=1))
            assert float(residuals.max()) < 1e-9

    def test_fixed_seed_reproduces_everything(self):
        a = generate_orbit_scene(n_cameras=6, n_points=40, noise_px=0.5,
                                 seed=11)
        b = generate_orbit_scene(n_cameras=6, n_points=40, noise_px=0.5,
                                 seed=11)
        assert np.array_equal(a[0].points, b[0].points)
        for i in range(6):
            assert np.array_equal(a[1][i], b[1][i])
        assert len(a[2]) == len(b[2])
        for ma, mb in zip(a[2], b[2]):
            assert ma.pair == mb.pair
            assert np.array_equal(ma.indices, mb.indices)
        assert np.array_equal(a[3], b[3])
        c = generate_orbit_scene(n_cameras=6, n_points=40, noise_px=0.5,
                                 seed=12)
        assert not np.array_equal(a[0].points, c[0].points)

    def test_descriptor_similarity_tracks_view_angle(self):
        scene, _, _, descriptors = generate_orbit_scene(
            n_cameras=14, n_points=60, seed=13)
        sims, cosines = [], []
        for i in range(14):
            for j in range(i + 1, 14):
                sims.append(float(descriptors[i] @ descriptors[j]))
                cosines.append(float(scene.poses[i].rotation[:, 2]
                                     @ scene.poses[j].rotation[:, 2]))
        corr = np.corrcoef(sims, cosines)[0, 1]
        assert corr > 0.95

    def test_noise_perturbs_keypoints_by_sigma(self):
        clean = generate_orbit_scene(n_cameras=6, n_points=120, noise_px=0.0,
                                     seed=17)
        noisy = generate_orbit_scene(n_cameras=6, n_points=120, noise_px=2.0,
                                     seed=17)
        diffs = np.concatenate([
            (noisy[1][i] - clean[1][i]).ravel() for i in range(6)])
        assert abs(float(diffs.std()) - 2.0) < 0.3
        assert abs(float(diffs.mean())) < 0.3

    def test_dropout_thins_visibility_and_can_degenerate(self):
        full = generate_orbit_scene(n_cameras=6, n_points=200, seed=19)
        thinned = generate_orbit_scene(n_cameras=6, n_points=200, seed=19,
                                       dropout=0.3)
        assert thinned[0].visibility.sum() < full[0].visibility.sum()
        with pytest.raises(DegenerateScene):
            generate_orbit_scene(n_cameras=6, n_points=10, seed=19,
                                 dropout=0.8)

    def test_input_validation(self):
        with pytest.raises(InputError):
            generate_orbit_scene(n_cameras=2, n_points=50)
        with pytest.raises(InputError):
            generate_orbit_scene(n_cameras=5, n_points=5)
        with pytest.raises(InputError):
            generate_orbit_scene(n_cameras=5, n_points=50, dropout=1.0)
        with pytest.raises(InputError):
            generate_orbit_scene(n_cameras=5, n_points=50, noise_px=-1.0)

    def test_multi_ring_spreads_heights(self):
        scene, _, _, _ = generate_orbit_scene(n_cameras=12, n_points=80,
                                              seed=23, n_rings=3)
        heights = sorted({round(float(p.center[2]), 6) for p in scene.poses})
        assert len(heights) == 3


class TestInjectOutlierEdges:

    def make_scene(self, seed=29):
        return generate_orbit_scene(n_cameras=10, n_points=80, seed=seed)

    def test_fraction_zero_is_identity(self):
        scene, keypoints, matches, _ = self.make_scene()
        kp2, matches2, labels = inject_outlier_edges(
            scene, keypoints, matches, fraction=0.0, seed=1)
        assert set(labels.values()) == {LABEL_CLEAN}
        assert len(matches2) == len(matches)
        for a, b in zip(matches, matches2):
            assert a.pair == b.pair
            assert np.array_equal(a.indices, b.indices)

    def test_labels_partition_pairs(self):
        scene, keypoints, matches, _ = self.make_scene()
        _, matches2, labels = inject_outlier_edges(
            scene, keypoints, matches, fraction=0.1,
            mode=MODE_DOPPELGANGER, seed=2)
        assert set(labels) == {m.pair for m in matches}
        n_bad = sum(1 for v in labels.values() if v != LABEL_CLEAN)
        assert n_bad == round(0.1 * len(matches))

    def test_doppelganger_pairs_verify_with_large_rotation_error(self):
        scene, keypoints, matches, _ = self.make_scene()
        kp2, matches2, labels = inject_outlier_edges(
            scene, keypoints, matches, fraction=0.07,
            mode=MODE_DOPPELGANGER, seed=3)
        corrupted = [m for m in matches2
                     if labels[m.pair] == MODE_DOPPELGANGER]
        assert corrupted
        cfg = VerificationConfig()
        rays = keypoint_rays(kp2, scene.intrinsics)
        for match in corrupted[:3]:
            i, j = match.pair
            result = verify_pairs([(match, rays[i], rays[j],
                                    scene.intrinsics[i], scene.intrinsics[j],
                                    4)], cfg)[0]
            assert result.measurement is not None, result.reason
            rel = relative_pose(scene.poses[i], scene.poses[j])
            err = rotation_angular_error(result.measurement.rotation,
                                         rel.rotation)
            assert err >= 29.5

    def test_random_mode_rows_stay_in_bounds(self):
        scene, keypoints, matches, _ = self.make_scene()
        kp2, matches2, labels = inject_outlier_edges(
            scene, keypoints, matches, fraction=0.2, mode=MODE_RANDOM,
            seed=5)
        corrupted = [m for m in matches2 if labels[m.pair] == MODE_RANDOM]
        assert len(corrupted) == round(0.2 * len(matches))
        for match in corrupted:
            i, j = match.pair
            assert np.all(match.indices[:, 0] < len(kp2[i]))
            assert np.all(match.indices[:, 1] < len(kp2[j]))
            ids_i = scene.keypoint_point_ids[i][match.indices[:, 0]]
            ids_j = scene.keypoint_point_ids[j][match.indices[:, 1]]
            assert not np.array_equal(ids_i, ids_j)

    def test_mode_and_fraction_validation(self):
        scene, keypoints, matches, _ = self.make_scene()
        with pytest.raises(InputError):
            inject_outlier_edges(scene, keypoints, matches, fraction=1.0)
        with pytest.raises(InputError):
            inject_outlier_edges(scene, keypoints, matches, fraction=0.1,
                                 mode="bogus")

    def test_corruption_is_deterministic(self):
        scene, keypoints, matches, _ = self.make_scene()
        a = inject_outlier_edges(scene, keypoints, matches, fraction=0.1,
                                 seed=6)
        b = inject_outlier_edges(scene, keypoints, matches, fraction=0.1,
                                 seed=6)
        assert a[2] == b[2]
        for ma, mb in zip(a[1], b[1]):
            assert np.array_equal(ma.indices, mb.indices)
