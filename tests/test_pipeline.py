"""Tests for end-to-end pipeline orchestration."""

import json
import multiprocessing
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from globalsfm import executor, pipeline
from globalsfm.config import PipelineConfig
from globalsfm.errors import DegenerateScene, InputError
from globalsfm.io import read_matches, write_matches
from globalsfm.pipeline import (dump_view_graph, evaluate_pose_files,
                                load_inputs, run_pipeline)
from globalsfm.seeding import stable_seed
from globalsfm.two_view import MatchSet, keypoint_rays, verify_pairs
from tests._helpers import write_scene_dir

OUTPUT_NAMES = ("poses.txt", "cloud.ply", "report.json", "timing.json",
                "viewgraph.csv", "direction_violations.csv")

STAGE_ORDER = ("frontend", "retrieval", "two_view", "view_graph",
               "rotation_averaging", "tracks", "translation_averaging",
               "data_association", "bundle_adjustment")


@pytest.fixture(scope="module")
def clean_scene_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("clean_scene")
    scene = write_scene_dir(path, n_cameras=8, n_points=80, noise_px=0.0,
                            seed=11)
    return path, scene


def clean_config(path, out, **kw):
    return PipelineConfig(input_dir=str(path), output_dir=str(out),
                          gt_poses_file="gt_poses.txt", rotation_sigma=0.1,
                          **kw)


class TestRunPipeline:
    def test_noise_free_scene_recovers_everything(self, clean_scene_dir,
                                                  tmp_path):
        path, scene = clean_scene_dir
        result, metrics, timing = run_pipeline(
            clean_config(path, tmp_path / "out"))
        assert result.n_registered == scene.n_cameras
        assert len(result.landmarks) == scene.n_points
        assert all(value == pytest.approx(100.0)
                   for value in metrics.pose_auc.values())
        assert metrics.global_rotation_error_deg["max"] < 1e-9
        assert metrics.global_translation_error_deg["max"] < 1e-9
        for name in OUTPUT_NAMES:
            assert (tmp_path / "out" / name).is_file()

    def test_stage_order_and_barriers(self, clean_scene_dir, tmp_path):
        path, _ = clean_scene_dir
        _, _, timing = run_pipeline(clean_config(path, tmp_path / "out"))
        assert tuple(s.stage for s in timing.stages) == STAGE_ORDER
        assert timing.barrier_ordering_holds()
        assert all(s.wall_time_s >= 0.0 for s in timing.stages)

    def test_report_structure(self, clean_scene_dir, tmp_path):
        path, scene = clean_scene_dir
        run_pipeline(clean_config(path, tmp_path / "out"))
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["n_images"] == scene.n_cameras
        assert report["n_registered_cameras"] == scene.n_cameras
        assert report["n_landmarks"] == scene.n_points
        assert report["rotation_averaging"]["certified"] is True
        assert report["view_graph"]["n_edges_kept"] <= \
            report["view_graph"]["n_edges_verified"]
        assert len(report["bundle_adjustment"]["rounds"]) == 3
        assert report["metrics"]["pose_auc"]["1.0"] == pytest.approx(100.0)
        timing = json.loads((tmp_path / "out" / "timing.json").read_text())
        assert [s["stage"] for s in timing["stages"]] == list(STAGE_ORDER)

    def test_worker_count_invariance(self, clean_scene_dir, tmp_path):
        path, _ = clean_scene_dir
        outputs = {}
        for workers in (1, 2):
            out = tmp_path / f"out{workers}"
            run_pipeline(clean_config(path, out, n_workers=workers))
            outputs[workers] = {name: (out / name).read_bytes()
                                for name in OUTPUT_NAMES
                                if name != "timing.json"}
        assert outputs[1] == outputs[2]

    def test_rerun_reproduces_outputs(self, clean_scene_dir, tmp_path):
        path, _ = clean_scene_dir
        contents = []
        for run in range(2):
            out = tmp_path / f"run{run}"
            run_pipeline(clean_config(path, out))
            contents.append({name: (out / name).read_bytes()
                             for name in OUTPUT_NAMES
                             if name != "timing.json"})
        assert contents[0] == contents[1]

    def test_without_ground_truth_metrics_absent(self, clean_scene_dir,
                                                 tmp_path):
        path, _ = clean_scene_dir
        config = PipelineConfig(input_dir=str(path),
                                output_dir=str(tmp_path / "out"),
                                rotation_sigma=0.1)
        result, metrics, _ = run_pipeline(config)
        assert metrics is None
        assert result.n_registered == 8
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["metrics"] is None

    def test_zero_ratio_floor_runs(self, clean_scene_dir, tmp_path):
        path, scene = clean_scene_dir
        result, _, _ = run_pipeline(clean_config(path, tmp_path / "out",
                                                 min_inlier_ratio=0.0))
        assert result.n_registered == scene.n_cameras

    def test_outlier_pairs_recorded_and_survived(self, tmp_path):
        write_scene_dir(tmp_path / "scene", n_cameras=10, n_points=100,
                        noise_px=0.0, seed=3, outlier_fraction=0.15,
                        outlier_mode="random")
        result, metrics, _ = run_pipeline(
            clean_config(tmp_path / "scene", tmp_path / "out",
                         max_ransac_iters=800))
        stages = {stage for stage, _, _ in result.failures}
        assert stages == {"two_view"}
        assert all(key.startswith("pair ") for _, key, _ in result.failures)
        assert metrics.pose_auc[1.0] > 99.0

    def test_nms_merge_mode_still_exact_on_sparse_scene(self, tmp_path):
        write_scene_dir(tmp_path / "scene", n_cameras=8, n_points=40,
                        noise_px=0.0, seed=7)
        result, metrics, _ = run_pipeline(
            clean_config(tmp_path / "scene", tmp_path / "out",
                         enable_nms_merge=True))
        assert result.n_registered == 8
        assert metrics.global_rotation_error_deg["max"] < 1e-6


    @pytest.mark.parametrize("drop", ["pairs_absent", "pairs_empty"])
    def test_camera_without_matches_left_unregistered(self, tmp_path, drop):
        # every correspondence of camera 3 is gone: its pairs fail one by
        # one with their provenance, and the rest of the scene reconstructs
        path = tmp_path / "scene"
        write_scene_dir(path, n_cameras=8, n_points=60, noise_px=0.0, seed=5)
        matches = read_matches(path / "matches.json")
        if drop == "pairs_absent":
            matches = [m for m in matches if 3 not in m.pair]
        else:
            matches = [MatchSet(m.pair, np.zeros((0, 2), dtype=int))
                       if 3 in m.pair else m for m in matches]
        write_matches(path / "matches.json", matches)
        result, metrics, _ = run_pipeline(clean_config(path, tmp_path / "out"))
        assert 3 not in result.registered
        assert result.n_registered == 7
        assert result.poses[3] is None
        assert {stage for stage, _, _ in result.failures} == {"two_view"}
        failed_pairs = {key for _, key, _ in result.failures}
        assert failed_pairs
        assert all("3" in key.removeprefix("pair ").split("-")
                   for key in failed_pairs)
        assert all(reason for _, _, reason in result.failures)
        assert metrics.pose_auc[5.0] > 50.0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["n_registered_cameras"] == 7
        assert {f["key"] for f in report["failures"]
                if f["stage"] == "two_view"} == failed_pairs


class TestTwoViewChunks:
    def test_chunk_size_does_not_change_pair_results(self, tmp_path,
                                                     monkeypatch):
        """Pairs refined alone and in the default chunks get the same
        verdicts and reasons, and poses equal up to round-off."""
        write_scene_dir(tmp_path / "scene", n_cameras=10, n_points=80,
                        noise_px=1.0, seed=5, outlier_fraction=0.1,
                        outlier_mode="random", dropout=0.3)
        results = {}
        for chunk in (1, pipeline.TWO_VIEW_CHUNK):
            monkeypatch.setattr(pipeline, "TWO_VIEW_CHUNK", chunk)
            out = tmp_path / f"chunk{chunk}"
            result, _, timing = run_pipeline(clean_config(
                tmp_path / "scene", out, max_ransac_iters=300))
            stage = next(s for s in timing.stages if s.stage == "two_view")
            results[chunk] = (result, stage.n_tasks, json.loads(
                (out / "report.json").read_text())["failures"])
        (alone, alone_tasks, alone_failures), (together, chunk_tasks,
                                               chunk_failures) = results.values()
        assert alone_tasks > chunk_tasks > 1
        assert any(f["stage"] == "two_view" for f in alone_failures)
        assert chunk_failures == alone_failures
        assert together.n_edges_verified == alone.n_edges_verified
        for a, b in zip(together.poses, alone.poses):
            assert (a is None) == (b is None)
            if a is not None:
                np.testing.assert_allclose(a.rotation, b.rotation, atol=1e-7)
                np.testing.assert_allclose(a.translation, b.translation,
                                           atol=1e-7)


class TestInlierFloorScreen:
    def test_screened_pairs_never_reach_a_task(self, tmp_path, monkeypatch):
        """Pairs with fewer matches than min_inliers fail before chunking,
        the other pairs fill whole chunks, and every pair fails with the
        reason it gets when it is verified alone."""
        path = tmp_path / "scene"
        write_scene_dir(path, n_cameras=10, n_points=50, noise_px=0.5,
                        seed=5, dropout=0.4)
        payloads = []
        verify_task = pipeline._verify_task

        def spy(payload):
            payloads.append(payload)
            return verify_task(payload)

        monkeypatch.setattr(pipeline, "_verify_task", spy)
        config = clean_config(path, tmp_path / "out")
        run_pipeline(config)

        cfg = config.verification_config()
        inputs = load_inputs(config)
        by_pair = {m.pair: m for m in inputs.matches}
        screened = {pair for pair, m in by_pair.items()
                    if len(m) < cfg.min_inliers}
        sent = {task[0].pair for tasks, _ in payloads for task in tasks}
        assert screened and len(sent) > pipeline.TWO_VIEW_CHUNK
        assert not screened & sent
        sizes = [len(tasks) for tasks, _ in payloads]
        assert sizes[:-1] == [pipeline.TWO_VIEW_CHUNK] * (len(sizes) - 1)

        report = json.loads((tmp_path / "out" / "report.json").read_text())
        failures = {tuple(int(k) for k in f["key"].split()[1].split("-")):
                    f["reason"] for f in report["failures"]
                    if f["stage"] == "two_view"}
        assert screened <= set(failures)
        rays = keypoint_rays(inputs.keypoints, inputs.intrinsics)
        for (i, j), reason in failures.items():
            alone = verify_pairs([(by_pair[(i, j)], rays[i], rays[j],
                                   inputs.intrinsics[i], inputs.intrinsics[j],
                                   stable_seed(config.seed, "two-view", i, j))],
                                 cfg)[0]
            assert reason == alone.reason


class CountingPool(ProcessPoolExecutor):
    """A process pool that counts how often one is opened."""

    opened = 0

    def __init__(self, *args, **kwargs):
        type(self).opened += 1
        super().__init__(*args, **kwargs)


class TestWorkerPool:
    @pytest.fixture
    def counting_pool(self, monkeypatch):
        monkeypatch.setattr(CountingPool, "opened", 0)
        monkeypatch.setattr(executor, "ProcessPoolExecutor", CountingPool)
        return CountingPool

    def test_one_pool_per_run_and_no_worker_left(self, clean_scene_dir,
                                                 tmp_path, counting_pool):
        path, _ = clean_scene_dir
        _, _, timing = run_pipeline(clean_config(path, tmp_path / "out",
                                                 n_workers=2))
        # only verification and triangulation map through the pool
        assert {s.stage for s in timing.stages if s.n_workers > 1} == {
            "two_view", "data_association"}
        assert all(s.n_workers in (1, 2) for s in timing.stages)
        assert counting_pool.opened == 1
        assert multiprocessing.active_children() == []

    def test_pool_closed_after_a_run_that_raises(self, tmp_path,
                                                 counting_pool):
        write_scene_dir(tmp_path / "scene", n_cameras=6, n_points=40, seed=1,
                        outlier_fraction=0.9, outlier_mode="random")
        with pytest.raises(DegenerateScene):
            run_pipeline(clean_config(tmp_path / "scene", tmp_path / "out",
                                      max_ransac_iters=300, n_workers=2))
        assert counting_pool.opened == 1
        assert multiprocessing.active_children() == []

    def test_dump_view_graph_closes_its_pool(self, clean_scene_dir, tmp_path,
                                             counting_pool):
        path, _ = clean_scene_dir
        dump_view_graph(clean_config(path, tmp_path / "vg", n_workers=2))
        assert counting_pool.opened == 1
        assert multiprocessing.active_children() == []


class TestLandmarkDirections:
    def test_match_per_observation_loop(self, tmp_path):
        from globalsfm.geometry import (CameraIntrinsics, normalized,
                                        pixel_to_normalized, so3_exp)
        from globalsfm.pipeline import _landmark_directions

        from tests._helpers import make_tracks

        rng = np.random.default_rng(61)
        intrinsics = [CameraIntrinsics(f=500.0 + 30.0 * k, k1=-0.07 + 0.03 * k,
                                       k2=0.004 - 0.002 * k, u0=320.0 + k,
                                       v0=240.0 - k) for k in range(5)]
        tracks = []
        for _ in range(12):
            images = sorted(int(k) for k in rng.choice(
                5, size=int(rng.integers(2, 6)), replace=False))
            tracks.append(tuple(
                (image, tuple(float(v) for v in
                              rng.uniform([0.0, 0.0], [640.0, 480.0])))
                for image in images))
        cam_index = {0: 0, 1: 1, 2: 2, 3: 3, 4: 4}
        rotations = [so3_exp(rng.normal(size=3)) for _ in range(5)]
        directions = _landmark_directions(make_tracks(tracks), cam_index,
                                          rotations, intrinsics, per_camera=2)
        expected = []
        for t_idx in sorted({t for image in range(5) for t in sorted(
                (t for t, track in enumerate(tracks)
                 if image in [i for i, _ in track]),
                key=lambda t: (-len(tracks[t]), t))[:2]}):
            for image, xy in tracks[t_idx]:
                x, y = pixel_to_normalized(np.asarray(xy), intrinsics[image])
                expected.append((image, t_idx, normalized(
                    rotations[image] @ np.array([x, y, 1.0]))))
        assert len(directions) == len(expected) > 0
        for measured, (image, t_idx, direction) in zip(directions, expected):
            assert (measured.a, measured.b) == (image, t_idx)
            np.testing.assert_allclose(measured.direction, direction,
                                       rtol=0, atol=1e-12)


class TestTranslationStage:
    def test_filters_directions_without_fan_out(self, monkeypatch, tmp_path):
        """The direction filter runs in the stage's own process: no executor
        map, ``kept`` holds the input objects, and the ``removed`` column
        of ``direction_violations.csv`` is that of the per-axis loop."""
        from globalsfm.io import write_direction_violations_csv
        from tests.test_translation_averaging import (
            random_direction_network, reference_mfas_filter)

        directions = random_direction_network(
            np.random.default_rng(3), n_cameras=10, n_landmarks=6,
            n_measurements=80)

        class SpyExecutor:
            n_workers = 2

            def __init__(self):
                self.mapped = []

            def map(self, fn, payloads):
                self.mapped.append(fn)
                return [fn(p) for p in payloads]

            def finish_stage(self, *args):
                pass

        monkeypatch.setattr(pipeline, "camera_direction_measurements",
                            lambda measurements, rotations: directions)
        monkeypatch.setattr(pipeline, "solve_translations",
                            lambda kept, n_cameras, **kwargs: None)
        cfg = PipelineConfig(enable_landmark_directions=False)
        spy = SpyExecutor()
        _, fractions, kept, _ = pipeline._translation_stage(
            spy, cfg, [], [], [], {k: k for k in range(10)}, {})
        assert spy.mapped == []

        ref_kept, ref_fractions = reference_mfas_filter(
            directions, cfg.mfas_projections,
            stable_seed(cfg.seed, "direction-filter"),
            cfg.mfas_rejection_ratio)
        assert 0 < len(kept) < len(directions)
        assert len(kept) == len(ref_kept)
        assert all(m is ref for m, ref in zip(kept, ref_kept))
        assert fractions.tobytes() == ref_fractions.tobytes()
        write_direction_violations_csv(tmp_path / "after.csv", directions,
                                       fractions, kept)
        write_direction_violations_csv(tmp_path / "loop.csv", directions,
                                       ref_fractions, ref_kept)
        assert ((tmp_path / "after.csv").read_text()
                == (tmp_path / "loop.csv").read_text())


class TestInputValidation:
    def test_missing_file_aborts_without_outputs(self, tmp_path):
        write_scene_dir(tmp_path / "scene", n_cameras=6, n_points=40, seed=1)
        (tmp_path / "scene" / "matches.json").unlink()
        out = tmp_path / "out"
        with pytest.raises(InputError, match="matches.json"):
            run_pipeline(clean_config(tmp_path / "scene", out))
        assert not out.exists()

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_keypoint_aborts_without_outputs(self, tmp_path, bad):
        from globalsfm.io import read_keypoints, write_keypoints
        write_scene_dir(tmp_path / "scene", n_cameras=6, n_points=40, seed=1)
        kps = read_keypoints(tmp_path / "scene" / "keypoints.json")
        kps[2][5, 1] = bad
        write_keypoints(tmp_path / "scene" / "keypoints.json", kps)
        out = tmp_path / "out"
        with pytest.raises(InputError, match="image 2 has non-finite"):
            run_pipeline(clean_config(tmp_path / "scene", out))
        assert not out.exists()

    def test_descriptor_count_mismatch(self, tmp_path):
        from globalsfm.io import read_descriptors, write_descriptors
        write_scene_dir(tmp_path / "scene", n_cameras=6, n_points=40, seed=1)
        descs = read_descriptors(tmp_path / "scene" / "descriptors.bin")
        write_descriptors(tmp_path / "scene" / "descriptors.bin", descs[:-1])
        with pytest.raises(InputError, match="descriptor count"):
            load_inputs(clean_config(tmp_path / "scene", tmp_path / "out"))

    def test_non_contiguous_keypoint_ids(self, tmp_path):
        from globalsfm.io import read_keypoints, write_keypoints
        write_scene_dir(tmp_path / "scene", n_cameras=6, n_points=40, seed=1)
        kps = read_keypoints(tmp_path / "scene" / "keypoints.json")
        kps[17] = kps.pop(0)
        write_keypoints(tmp_path / "scene" / "keypoints.json", kps)
        with pytest.raises(InputError, match="contiguous"):
            load_inputs(clean_config(tmp_path / "scene", tmp_path / "out"))

    def test_match_indices_out_of_range(self, tmp_path):
        write_scene_dir(tmp_path / "scene", n_cameras=6, n_points=40, seed=1)
        payload = json.loads(
            (tmp_path / "scene" / "matches.json").read_text())
        payload["matches"][0]["indices"] = [[10_000, 0]]
        (tmp_path / "scene" / "matches.json").write_text(
            json.dumps(payload))
        with pytest.raises(InputError, match="out of range"):
            load_inputs(clean_config(tmp_path / "scene", tmp_path / "out"))

    @pytest.mark.parametrize("defect", ["negative_index", "reversed_pair",
                                        "duplicate_pair"])
    def test_malformed_match_file_aborts_without_outputs(self, tmp_path,
                                                         defect):
        write_scene_dir(tmp_path / "scene", n_cameras=6, n_points=40, seed=1)
        path = tmp_path / "scene" / "matches.json"
        payload = json.loads(path.read_text())
        first = payload["matches"][0]
        i, j = first["pair"]
        if defect == "negative_index":
            first["indices"][0][0] = -1
            named = rf"pair \({i}, {j}\)"
        elif defect == "reversed_pair":
            first["pair"] = [j, i]
            first["indices"] = [[b, a] for a, b in first["indices"]]
            named = rf"pair \({j}, {i}\)"
        else:
            payload["matches"].append(json.loads(json.dumps(first)))
            named = rf"pair \({i}, {j}\)"
        path.write_text(json.dumps(payload))
        out = tmp_path / "out"
        with pytest.raises(InputError, match=named):
            run_pipeline(clean_config(tmp_path / "scene", out))
        assert not out.exists()

    def test_missing_ground_truth_camera(self, tmp_path):
        write_scene_dir(tmp_path / "scene", n_cameras=6, n_points=40, seed=1)
        gt = tmp_path / "scene" / "gt_poses.txt"
        lines = [ln for ln in gt.read_text().splitlines()
                 if not ln.strip().startswith("3 ")]
        gt.write_text("\n".join(lines) + "\n")
        with pytest.raises(InputError, match="misses cameras"):
            run_pipeline(clean_config(tmp_path / "scene", tmp_path / "out"))

    def test_empty_view_graph_aborts(self, tmp_path):
        write_scene_dir(tmp_path / "scene", n_cameras=6, n_points=40, seed=1,
                        outlier_fraction=0.9, outlier_mode="random")
        with pytest.raises(DegenerateScene):
            run_pipeline(clean_config(tmp_path / "scene", tmp_path / "out",
                                      max_ransac_iters=300))


class TestDumpViewGraph:
    def test_records_and_csv(self, clean_scene_dir, tmp_path):
        path, _ = clean_scene_dir
        config = clean_config(path, tmp_path / "vg")
        records = dump_view_graph(config)
        csv_lines = (tmp_path / "vg" / "viewgraph.csv").read_text()
        assert len(csv_lines.strip().splitlines()) == len(records) + 1
        assert all(rec.kept_stage2 for rec in records.values())


class TestEvaluatePoseFiles:
    def test_identical_files_are_perfect(self, clean_scene_dir, tmp_path):
        path, _ = clean_scene_dir
        report = evaluate_pose_files(path / "gt_poses.txt",
                                     path / "gt_poses.txt")
        assert all(v == pytest.approx(100.0)
                   for v in report.pose_auc.values())
        assert report.n_registered_cameras == report.n_cameras_total

    def test_missing_cameras_count_as_unregistered(self, clean_scene_dir,
                                                   tmp_path):
        path, scene = clean_scene_dir
        partial = tmp_path / "partial.txt"
        lines = [ln for ln in (path / "gt_poses.txt").read_text().splitlines()
                 if ln.strip() and not ln.startswith("#")
                 and int(ln.split()[0]) < scene.n_cameras // 2]
        partial.write_text("\n".join(lines) + "\n")
        report = evaluate_pose_files(partial, path / "gt_poses.txt")
        assert report.n_registered_cameras == scene.n_cameras // 2
        assert report.pose_auc[5.0] == pytest.approx(50.0)

    def test_unknown_estimated_camera_rejected(self, clean_scene_dir,
                                               tmp_path):
        path, _ = clean_scene_dir
        bogus = tmp_path / "bogus.txt"
        bogus.write_text("99 1 0 0 0 0 0 0\n")
        with pytest.raises(InputError, match="no reference"):
            evaluate_pose_files(bogus, path / "gt_poses.txt")
