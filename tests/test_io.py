"""Round-trip and format tests for all file readers and writers."""

import json
import re
import struct

import numpy as np
import pytest

from globalsfm.errors import InputError
from globalsfm.geometry import (CameraIntrinsics, Pose3, random_rotation,
                                rotation_angular_error)
from globalsfm.io import (
    _frustum_points,
    export_ply,
    read_descriptors,
    read_intrinsics,
    read_keypoints,
    read_matches,
    read_poses,
    write_descriptors,
    write_direction_violations_csv,
    write_intrinsics,
    write_json,
    write_keypoints,
    write_matches,
    write_poses,
    write_view_graph_csv,
)
from globalsfm.synthetic import generate_orbit_scene
from globalsfm.translation_averaging import mfas_filter
from globalsfm.view_graph import CycleErrorRecord
from tests.test_translation_averaging import build_network


GOOD_INTRINSICS = {"f": 500.0, "k1": 0.0, "k2": 0.0, "u0": 320.0, "v0": 240.0}


def make_scene():
    return generate_orbit_scene(n_cameras=6, n_points=40, seed=1)


class TestDescriptors:

    def test_round_trip(self, tmp_path):
        _, _, _, descriptors = make_scene()
        path = tmp_path / "descriptors.bin"
        write_descriptors(path, descriptors)
        loaded = read_descriptors(path)
        assert loaded.dtype == np.float64
        assert loaded.shape == descriptors.shape
        np.testing.assert_allclose(np.linalg.norm(loaded, axis=1), 1.0,
                                   rtol=0.0, atol=1e-12)
        assert np.max(np.abs(loaded - descriptors)) < 1e-6

    def test_header_fields(self, tmp_path):
        _, _, _, descriptors = make_scene()
        path = tmp_path / "descriptors.bin"
        write_descriptors(path, descriptors)
        raw = path.read_bytes()
        assert raw[:4] == b"GDSC"
        assert int.from_bytes(raw[4:8], "little") == 1
        assert int.from_bytes(raw[8:12], "little") == len(descriptors)
        assert int.from_bytes(raw[12:16], "little") == 32
        assert len(raw) == 16 + 4 * 32 * len(descriptors)

    def test_bad_magic_and_truncation(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 12)
        with pytest.raises(InputError):
            read_descriptors(path)
        _, _, _, descriptors = make_scene()
        good = tmp_path / "good.bin"
        write_descriptors(good, descriptors)
        truncated = tmp_path / "trunc.bin"
        truncated.write_bytes(good.read_bytes()[:-8])
        with pytest.raises(InputError):
            read_descriptors(truncated)

    def test_missing_file(self, tmp_path):
        with pytest.raises(InputError):
            read_descriptors(tmp_path / "absent.bin")

    @staticmethod
    def write_raw(path, rows):
        path.write_bytes(b"GDSC" + struct.pack("<III", 1, *rows.shape)
                         + rows.astype("<f4").tobytes())

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_descriptor_raises(self, tmp_path, bad):
        # four identity descriptors, one entry of row 1 replaced: a NaN
        # passes both norm tests, and selection then pairs images with
        # themselves
        rows = np.eye(4, dtype="<f4")
        rows[1, 2] = bad
        path = tmp_path / "descriptors.bin"
        self.write_raw(path, rows)
        with pytest.raises(InputError, match="non-finite descriptor at row 1"):
            read_descriptors(path)

    @pytest.mark.parametrize("first,later,message", [
        (np.nan, np.inf, "non-finite descriptor at row 2"),
        (0.0, 0.0, "zero descriptor at row 2"),
        (0.0, np.nan, "zero descriptor at row 2"),
        (np.nan, 0.0, "non-finite descriptor at row 2"),
    ], ids=["non-finite", "zero", "zero-first", "non-finite-first"])
    def test_several_bad_rows_name_the_first(self, tmp_path, first, later,
                                             message):
        # a zero row is all zeros; a non-finite row has one bad entry
        rows = np.eye(6)
        for k, bad in ((2, first), (4, later), (5, first)):
            if bad == 0.0:
                rows[k] = 0.0
            else:
                rows[k, 3] = bad
        path = tmp_path / "descriptors.bin"
        self.write_raw(path, rows)
        with pytest.raises(InputError, match=f"{message}$"):
            read_descriptors(path)

    def test_write_rejects_non_matrix(self, tmp_path):
        with pytest.raises(InputError, match="must be an"):
            write_descriptors(tmp_path / "d.bin", np.ones(4))


class TestJsonContainers:

    def test_keypoints_round_trip_exact(self, tmp_path):
        _, keypoints, _, _ = make_scene()
        path = tmp_path / "keypoints.json"
        write_keypoints(path, keypoints)
        loaded = read_keypoints(path)
        assert set(loaded) == set(keypoints)
        for image_id in keypoints:
            assert np.array_equal(loaded[image_id], keypoints[image_id])

    def test_matches_round_trip_exact(self, tmp_path):
        _, _, matches, _ = make_scene()
        path = tmp_path / "matches.json"
        write_matches(path, matches)
        loaded = read_matches(path)
        assert len(loaded) == len(matches)
        by_pair = {m.pair: m for m in matches}
        for match in loaded:
            assert np.array_equal(match.indices, by_pair[match.pair].indices)

    def test_intrinsics_round_trip_exact(self, tmp_path):
        scene, _, _, _ = make_scene()
        table = {i: intr for i, intr in enumerate(scene.intrinsics)}
        path = tmp_path / "intrinsics.json"
        write_intrinsics(path, table)
        loaded = read_intrinsics(path)
        assert loaded == table

    def test_invalid_json_raises(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        for reader in (read_keypoints, read_matches, read_intrinsics):
            with pytest.raises(InputError):
                reader(path)

    def test_wrong_root_key_raises(self, tmp_path):
        path = tmp_path / "wrong.json"
        write_json(path, {"something_else": []})
        with pytest.raises(InputError):
            read_matches(path)

    @pytest.mark.parametrize("record", [
        {"indices": [[0, 1]]},
        {"pair": [0, 1]},
        {"pair": [0, 1], "indices": [[0, 1, 2]]},
        [[0, 1], [[0, 1]]],
    ], ids=["no_pair", "no_indices", "three_number_row", "not_an_object"])
    def test_malformed_record_names_it(self, tmp_path, record):
        path = tmp_path / "matches.json"
        good = {"pair": [0, 2], "indices": [[0, 0], [1, 1]]}
        write_json(path, {"matches": [good, record]})
        with pytest.raises(InputError, match="match record 1"):
            read_matches(path)


    @pytest.mark.parametrize("payload,reason", [
        ({"0": [[1.0, 2.0]], "a": [[1.0, 2.0]]}, "image a: image ids"),
        ({"0": [[1.0, 2.0]], "1": [[0.0, 1.0, 2.0]]}, "image 1: keypoint rows"),
        ({"1": [[0.0, 1.0, 2.0, 3.0]]}, "image 1: keypoint rows"),
        ({"1": [[0.0, 1.0], [2.0]]}, "image 1: "),
        ({"1": [["x", 1.0]]}, "image 1: "),
        ([[0.0, 1.0]], "'keypoints' must map"),
    ], ids=["non_integer_key", "three_number_row", "four_number_row",
            "ragged_rows", "non_numeric", "not_an_object"])
    def test_malformed_keypoints_name_the_image(self, tmp_path, payload,
                                                reason):
        path = tmp_path / "keypoints.json"
        write_json(path, {"keypoints": payload})
        with pytest.raises(InputError, match=re.escape(f"{path}: {reason}")):
            read_keypoints(path)

    def test_image_without_keypoints_reads_empty(self, tmp_path):
        path = tmp_path / "keypoints.json"
        write_json(path, {"keypoints": {"0": [], "1": [[1.0, 2.0]]}})
        loaded = read_keypoints(path)
        assert loaded[0].shape == (0, 2)
        assert loaded[1].tolist() == [[1.0, 2.0]]

    @pytest.mark.parametrize("payload,reason", [
        ({"a": GOOD_INTRINSICS}, "image a: image ids"),
        ({"1": 5.0}, "image 1: intrinsics must be an object"),
        ({"1": {"f": 500.0}}, "image 1: intrinsics missing"),
        ({"1": dict(GOOD_INTRINSICS, u0="x")}, "image 1: "),
        ({"1": dict(GOOD_INTRINSICS, f=float("nan"))},
         "image 1: non-finite intrinsics ['f']"),
        ({"1": dict(GOOD_INTRINSICS, k1=float("inf"))},
         "image 1: non-finite intrinsics ['k1']"),
        ({"1": dict(GOOD_INTRINSICS, f=-1.0)},
         "image 1: focal length must be positive"),
        ({"1": dict(GOOD_INTRINSICS, f=0.0)},
         "image 1: focal length must be positive"),
        ([GOOD_INTRINSICS], "'intrinsics' must map"),
    ], ids=["non_integer_key", "number", "missing_field", "non_numeric",
            "nan_focal", "infinite_k1", "negative_focal", "zero_focal",
            "not_an_object"])
    def test_malformed_intrinsics_name_the_image(self, tmp_path, payload,
                                                 reason):
        path = tmp_path / "intrinsics.json"
        write_json(path, {"intrinsics": payload})
        with pytest.raises(InputError, match=re.escape(f"{path}: {reason}")):
            read_intrinsics(path)


def scene_payloads():
    """The keypoints, matches and intrinsics payloads of ``make_scene()``,
    as plain JSON values, keyed by reader."""
    scene, keypoints, matches, _ = make_scene()
    return {
        read_keypoints: {"keypoints": {
            str(i): np.asarray(kps, dtype=float).tolist()
            for i, kps in sorted(keypoints.items())}},
        read_matches: {"matches": [
            {"pair": [int(m.pair[0]), int(m.pair[1])],
             "indices": np.atleast_2d(m.indices).tolist()}
            for m in sorted(matches, key=lambda m: m.pair)]},
        read_intrinsics: {"intrinsics": {
            str(i): {name: float(getattr(intr, name))
                     for name in GOOD_INTRINSICS}
            for i, intr in enumerate(scene.intrinsics)}},
    }


def assert_same_reading(a, b):
    if isinstance(a, list):
        assert [m.pair for m in a] == [m.pair for m in b]
        for x, y in zip(a, b):
            assert np.array_equal(x.indices, y.indices)
    else:
        assert list(a) == list(b)
        for key, value in a.items():
            if isinstance(value, np.ndarray):
                assert np.array_equal(value, b[key])
            else:
                assert value == b[key]


READERS = [read_keypoints, read_matches, read_intrinsics]
READER_IDS = ["keypoints", "matches", "intrinsics"]


class TestJsonLayouts:
    """The readers decode the root key's entries one at a time, from any
    JSON layout."""

    @staticmethod
    def layouts(payload):
        (root_key, value), = payload.items()
        return {
            "indented": json.dumps(payload, indent=2, sort_keys=True),
            "one_line": json.dumps(payload, separators=(",", ":")),
            "extra_keys": json.dumps({"a_before": [{"x": [1, 2]}],
                                      root_key: value,
                                      "z_after": {"y": "}]"}}),
            "crlf": json.dumps(payload, indent=1).replace("\n", "\r\n"),
            "tabs_and_trailing_space": "\t" + json.dumps(payload, indent="\t")
                                       + " \r\n\n",
        }

    @pytest.mark.parametrize("reader", READERS, ids=READER_IDS)
    def test_every_layout_reads_the_same(self, tmp_path, reader):
        payload = scene_payloads()[reader]
        reference = tmp_path / "reference.json"
        write_json(reference, payload)
        expected = reader(reference)
        for name, text in self.layouts(payload).items():
            path = tmp_path / f"{name}.json"
            path.write_text(text)
            assert_same_reading(reader(path), expected)

    @pytest.mark.parametrize("writer,reader", [
        (write_keypoints, read_keypoints), (write_matches, read_matches),
    ], ids=["keypoints", "matches"])
    def test_written_file_is_the_same_json(self, tmp_path, writer, reader):
        _, keypoints, matches, _ = make_scene()
        path = tmp_path / "out.json"
        writer(path, keypoints if writer is write_keypoints else matches)
        assert json.loads(path.read_text()) == scene_payloads()[reader]

    def test_writer_puts_one_entry_per_line(self, tmp_path):
        _, keypoints, matches, _ = make_scene()
        write_keypoints(tmp_path / "k.json", keypoints)
        write_matches(tmp_path / "m.json", matches)
        assert len((tmp_path / "k.json").read_text().splitlines()) \
            == len(keypoints) + 2
        assert len((tmp_path / "m.json").read_text().splitlines()) \
            == len(matches) + 2

    def test_empty_containers_round_trip(self, tmp_path):
        write_keypoints(tmp_path / "k.json", {})
        write_matches(tmp_path / "m.json", [])
        assert read_keypoints(tmp_path / "k.json") == {}
        assert read_matches(tmp_path / "m.json") == []

    @pytest.mark.parametrize("text,reason", [
        ("truncated", "invalid JSON in {path}: "),
        ("trailing", "invalid JSON in {path}: Extra data"),
        ("[]", "{path}: expected a JSON object with"),
        ('{"other": []}', "{path}: expected a JSON object with"),
        ("{}", "{path}: expected a JSON object with"),
        ("wrong_kind", "{path}: '{root}' must "),
        ("twice", "{path}: '{root}' given twice"),
        ("", "invalid JSON in {path}: "),
        ('{"x" 1}', "invalid JSON in {path}: Expecting ':'"),
        ('{1: 2}', "invalid JSON in {path}: Expecting property name"),
    ], ids=["truncated", "trailing_data", "top_level_array", "no_root_key",
            "empty_object", "wrong_kind", "root_key_twice", "empty_file",
            "no_colon", "non_string_key"])
    @pytest.mark.parametrize("reader", READERS, ids=READER_IDS)
    def test_malformed_file_names_it(self, tmp_path, reader, text, reason):
        payload = scene_payloads()[reader]
        (root, value), = payload.items()
        good = json.dumps(payload, indent=2)
        text = {
            "truncated": good[:len(good) // 2],
            "trailing": good + "\n{}",
            "wrong_kind": json.dumps({root: list(value) if isinstance(
                value, dict) else {"0": value}}),
            "twice": "{" + f'"{root}": {json.dumps(value)}, '
                     f'"{root}": {json.dumps(value)}' + "}",
        }.get(text, text)
        path = tmp_path / "input.json"
        path.write_text(text)
        with pytest.raises(InputError, match=re.escape(
                reason.format(path=path, root=root))):
            reader(path)

    @pytest.mark.parametrize("text", [
        '{"keypoints": {"0": [], "1": [[3, 4]], "01": [[5, 6]]}}',
        '{"keypoints": {"0": [], "1": [[3, 4]], "1": [[5, 6]]}}',
    ], ids=["leading_zero", "same_key"])
    def test_keypoint_image_given_twice(self, tmp_path, text):
        path = tmp_path / "keypoints.json"
        path.write_text(text)
        with pytest.raises(InputError, match=re.escape(
                f"{path}: image 1: given more than once")):
            read_keypoints(path)

    def test_intrinsics_image_given_twice(self, tmp_path):
        path = tmp_path / "intrinsics.json"
        entry = json.dumps(GOOD_INTRINSICS)
        path.write_text(f'{{"intrinsics": {{"2": {entry}, "+2": {entry}}}}}')
        with pytest.raises(InputError, match=re.escape(
                f"{path}: image 2: given more than once")):
            read_intrinsics(path)


class TestPoses:

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(5)
        poses = {k: Pose3(random_rotation(rng), rng.normal(size=3) * 4.0)
                 for k in range(7)}
        path = tmp_path / "poses.txt"
        write_poses(path, poses)
        loaded = read_poses(path)
        assert set(loaded) == set(poses)
        for k in poses:
            assert rotation_angular_error(loaded[k].rotation,
                                          poses[k].rotation) < 1e-10
            assert np.array_equal(loaded[k].translation,
                                  poses[k].translation)

    def test_sequence_with_none_skips_unregistered(self, tmp_path):
        rng = np.random.default_rng(6)
        poses = [Pose3(random_rotation(rng), rng.normal(size=3)),
                 None,
                 Pose3(random_rotation(rng), rng.normal(size=3))]
        path = tmp_path / "poses.txt"
        write_poses(path, poses)
        loaded = read_poses(path)
        assert set(loaded) == {0, 2}

    def test_write_is_deterministic(self, tmp_path):
        rng = np.random.default_rng(7)
        poses = {k: Pose3(random_rotation(rng), rng.normal(size=3))
                 for k in range(4)}
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        write_poses(a, poses)
        write_poses(b, poses)
        assert a.read_bytes() == b.read_bytes()

    def test_no_registered_camera(self, tmp_path):
        path = tmp_path / "poses.txt"
        write_poses(path, [None, None])
        assert path.read_text().startswith("#")
        assert len(path.read_text().splitlines()) == 1
        assert read_poses(path) == {}

    def test_malformed_line_raises(self, tmp_path):
        path = tmp_path / "poses.txt"
        path.write_text("0 1 0 0 0 1 2\n")
        with pytest.raises(InputError):
            read_poses(path)
        path.write_text("0 0 0 0 0 1 2 3\n")
        with pytest.raises(InputError):
            read_poses(path)

    @pytest.mark.parametrize("line", ["0 nan 0 0 0 0 0 0", "0 inf 0 0 0 0 0 0",
                                      "0 1 0 0 0 inf 0 0", "0 1 0 0 0 0 -inf 0"],
                             ids=["nan_quaternion", "inf_quaternion",
                                  "inf_center", "minus_inf_center"])
    def test_non_finite_field_names_the_line(self, tmp_path, line):
        path = tmp_path / "poses.txt"
        path.write_text(f"# id qw qx qy qz cx cy cz\n1 1 0 0 0 0 0 0\n{line}\n")
        with pytest.raises(InputError, match=re.escape(
                f"{path}:3: non-finite pose field")):
            read_poses(path)

    @pytest.mark.parametrize("second", ["1 0 1 0 0 5 5 5", "01 1 0 0 0 0 0 0"],
                             ids=["other_pose", "leading_zero"])
    def test_camera_given_twice_names_the_second_line(self, tmp_path, second):
        path = tmp_path / "poses.txt"
        path.write_text(f"# id qw qx qy qz cx cy cz\n1 1 0 0 0 0 0 0\n"
                        f"2 1 0 0 0 1 1 1\n{second}\n")
        with pytest.raises(InputError, match=re.escape(
                f"{path}:4: camera 1: given more than once (first on line 2)")):
            read_poses(path)


class TestCsvDumps:

    def test_view_graph_csv(self, tmp_path):
        records = {
            (0, 1): CycleErrorRecord((0, 1), (0.5, 1.5), 0.5, 1.0, True,
                                     True),
            (1, 2): CycleErrorRecord((1, 2), (9.0,), 9.0, 9.0, False, False),
        }
        path = tmp_path / "viewgraph.csv"
        write_view_graph_csv(path, records)
        lines = path.read_text().splitlines()
        assert lines[0] == ("i,j,min_cycle_error_deg,median_cycle_error_deg,"
                            "kept_stage1,kept_stage2")
        assert lines[1] == "0,1,0.5,1,1,1"
        assert lines[2] == "1,2,9,9,0,0"

    def test_direction_violations_csv(self, tmp_path):
        measurements, _, _ = build_network(seed=2, n_cameras=8,
                                           n_landmarks=4)
        kept, fractions = mfas_filter(measurements, n_projections=8, seed=0)
        path = tmp_path / "violations.csv"
        write_direction_violations_csv(path, measurements, fractions, kept)
        lines = path.read_text().splitlines()
        assert lines[0] == "kind,a,b,violation_fraction,removed"
        assert len(lines) == 1 + len(measurements)
        removed_count = sum(1 for line in lines[1:]
                            if line.endswith(",1"))
        assert removed_count == len(measurements) - len(kept)


class TestExportPly:

    def test_zero_landmarks_zero_cameras(self, tmp_path):
        path = tmp_path / "cloud.ply"
        export_ply(path, np.zeros((0, 3)), [])
        lines = path.read_text().splitlines()
        assert lines[0] == "ply"
        assert "element vertex 0" in lines
        assert lines[-1] == "end_header"

    def test_single_landmark_line(self, tmp_path):
        path = tmp_path / "cloud.ply"
        export_ply(path, np.array([[1.0, 2.0, 3.0]]), [])
        lines = path.read_text().splitlines()
        assert "element vertex 1" in lines
        assert lines[-1] == "1 2 3 255 255 255"

    def test_vertex_count_and_colors(self, tmp_path):
        scene, _, _, _ = make_scene()
        path = tmp_path / "cloud.ply"
        export_ply(path, scene.points, list(scene.poses),
                   intrinsics=list(scene.intrinsics))
        lines = path.read_text().splitlines()
        n_expected = scene.n_points + 5 * scene.n_cameras
        assert f"element vertex {n_expected}" in lines
        body = lines[lines.index("end_header") + 1:]
        assert len(body) == n_expected
        white = [ln for ln in body if ln.endswith("255 255 255")]
        red = [ln for ln in body if ln.endswith("255 0 0")]
        assert len(white) == scene.n_points
        assert len(red) == 5 * scene.n_cameras

    def test_none_poses_skipped(self, tmp_path):
        scene, _, _, _ = make_scene()
        path = tmp_path / "cloud.ply"
        export_ply(path, scene.points[:3], [scene.poses[0], None])
        lines = path.read_text().splitlines()
        assert "element vertex 8" in lines

    def test_frusta_use_each_cameras_own_intrinsics(self, tmp_path):
        scene, _, _, _ = make_scene()
        poses = [scene.poses[0], None, scene.poses[2]]
        intrinsics = [CameraIntrinsics(f=500.0, u0=500.0, v0=100.0),
                      CameraIntrinsics(f=600.0, u0=300.0, v0=240.0),
                      CameraIntrinsics(f=400.0, u0=100.0, v0=400.0)]
        path = tmp_path / "cloud.ply"
        export_ply(path, np.zeros((0, 3)), poses, intrinsics=intrinsics,
                   frustum_depth=0.3)
        lines = path.read_text().splitlines()
        body = np.array([[float(v) for v in ln.split()[:3]]
                         for ln in lines[lines.index("end_header") + 1:]])
        assert len(body) == 10
        np.testing.assert_array_equal(
            body[:5], _frustum_points(poses[0], intrinsics[0], 0.3))
        np.testing.assert_array_equal(
            body[5:], _frustum_points(poses[2], intrinsics[2], 0.3))
