"""Tests for the output comparison of ``tools/parity.py``."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

SPEC = importlib.util.spec_from_file_location(
    "parity", Path(__file__).resolve().parents[1] / "tools" / "parity.py")
parity = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(parity)

POSES = """# camera_id qw qx qy qz tx ty tz (camera-to-world, t = center)
0 1 0 0 0 0 0 0
2 0.5 0.5 0.5 0.5 1.0 2.0 3.0
"""


def write_run(path, poses=POSES, failures=(), cost=1.5, iterations=4,
              wall=0.1, csv="i,j\n0,2\n", auc_1deg=90.0):
    path.mkdir()
    (path / "poses.txt").write_text(poses)
    (path / "report.json").write_text(json.dumps({
        "n_images": 3, "cost": cost,
        "metrics": {"pose_auc": {"1.0": auc_1deg, "5.0": 98.0,
                                 "10.0": 99.0}},
        "rounds": [{"iterations": iterations, "final_cost": cost}],
        "failures": [{"stage": stage, "key": key, "reason": reason}
                     for stage, key, reason in failures]}))
    (path / "timing.json").write_text(json.dumps({"total_wall_time_s": wall}))
    (path / "viewgraph.csv").write_text(csv)
    return path


class TestCompareOutputs:
    def test_identical_runs(self, tmp_path):
        before = write_run(tmp_path / "a", wall=0.1)
        after = write_run(tmp_path / "b", wall=0.2)  # timing.json is left out
        assert parity.compare_outputs(before, after) == {
            "files_differ": [], "report_non_float_equal": True,
            "report_differences": [], "changed_reasons": [],
            "max_pose_diff": 0.0,
            "pose_auc": {"1.0": [90.0, 90.0], "5.0": [98.0, 98.0]}}

    def test_float_fields_and_poses_differ(self, tmp_path):
        before = write_run(tmp_path / "a")
        after = write_run(tmp_path / "b", cost=1.5000001, poses=POSES.replace(
            "1.0 2.0 3.0", "1.0 2.0 3.0000002"))
        out = parity.compare_outputs(before, after)
        assert out["files_differ"] == ["poses.txt", "report.json"]
        assert out["report_non_float_equal"]
        assert out["report_differences"] == []
        assert out["changed_reasons"] == []
        assert out["max_pose_diff"] == pytest.approx(2e-7)

    def test_pose_auc_of_both_runs(self, tmp_path):
        out = parity.compare_outputs(write_run(tmp_path / "a"),
                                     write_run(tmp_path / "b", auc_1deg=89.5))
        assert out["report_non_float_equal"]
        assert out["pose_auc"] == {"1.0": [90.0, 89.5], "5.0": [98.0, 98.0]}
        line = parity.summary_line(dict(out, workload="w", seed=1,
                                        inputs_differ=[]))
        assert line.endswith("AUC @1.0: 90.0000 -> 89.5000, "
                             "@5.0: 98.0000 -> 98.0000")

    def test_non_float_field_differs(self, tmp_path):
        out = parity.compare_outputs(write_run(tmp_path / "a"),
                                     write_run(tmp_path / "b", iterations=5))
        assert not out["report_non_float_equal"]
        assert out["report_differences"] == [
            {"path": "rounds[0].iterations", "before": 4, "after": 5}]
        line = parity.summary_line(dict(out, workload="w", seed=1,
                                        inputs_differ=[]))
        assert "DIFFER at rounds[0].iterations (4 -> 5)" in line

    def test_report_differences_by_path(self):
        before = {"a": {"b": [1, 2, 3], "c": "x"}, "d": [1], "gone": 1}
        after = {"a": {"b": [1, 5, 3], "c": "y"}, "d": [1, 2], "new": True}
        assert parity.report_differences(before, after) == [
            {"path": "a.b[1]", "before": 2, "after": 5},
            {"path": "a.c", "before": "x", "after": "y"},
            {"path": "d", "before": [1], "after": [1, 2]},
            {"path": "gone", "before": 1, "after": None},
            {"path": "new", "before": None, "after": True}]

    def test_changed_reasons_by_key(self, tmp_path):
        before = write_run(tmp_path / "a", failures=[
            ("two_view", "pair 0-1", "NoModelFound: x"),
            ("two_view", "pair 1-2", "rejected: y"),
            ("triangulation", "track 4", "rejected: too few inliers")])
        # reordered, one reason changed, one failure gone, one new
        after = write_run(tmp_path / "b", failures=[
            ("two_view", "pair 1-2", "rejected: y"),
            ("two_view", "pair 0-1", "rejected: n_matches=9 < min_inliers=15"),
            ("two_view", "pair 0-2", "NoModelFound: z")])
        out = parity.compare_outputs(before, after)
        assert out["report_non_float_equal"]
        assert out["changed_reasons"] == [
            {"stage": "triangulation", "key": "track 4",
             "before": "rejected: too few inliers", "after": None},
            {"stage": "two_view", "key": "pair 0-1",
             "before": "NoModelFound: x",
             "after": "rejected: n_matches=9 < min_inliers=15"},
            {"stage": "two_view", "key": "pair 0-2", "before": None,
             "after": "NoModelFound: z"}]

    def test_quaternion_sign_is_one_rotation(self, tmp_path):
        flipped = POSES.replace("0.5 0.5 0.5 0.5", "-0.5 -0.5 -0.5 -0.5")
        out = parity.compare_outputs(write_run(tmp_path / "a"),
                                     write_run(tmp_path / "b", poses=flipped))
        assert out["files_differ"] == ["poses.txt"]
        assert out["max_pose_diff"] == 0.0

    def test_missing_camera_and_file(self, tmp_path):
        before = write_run(tmp_path / "a")
        after = write_run(tmp_path / "b", poses=POSES.rsplit("\n2 ", 1)[0])
        (after / "viewgraph.csv").unlink()
        out = parity.compare_outputs(before, after)
        assert out["files_differ"] == ["poses.txt", "viewgraph.csv"]
        assert out["max_pose_diff"] is None


class TestTreeInputs:
    def test_own_build_compared_byte_for_byte(self, tmp_path):
        # two builds of one workload and seed by this checkout are equal;
        # a changed byte in one file names that file
        for side in ("a", "b"):
            assert parity.build_tree_inputs(parity.ROOT, "dense_orbit", 0,
                                            tmp_path / side) is None
        names = sorted(p.name for p in (tmp_path / "a").iterdir())
        assert "descriptors.bin" in names and "matches.json" in names
        assert parity.files_differ(tmp_path / "a", tmp_path / "b") == []
        path = tmp_path / "b" / "descriptors.bin"
        raw = bytearray(path.read_bytes())
        raw[-1] ^= 1
        path.write_bytes(bytes(raw))
        assert parity.files_differ(tmp_path / "a", tmp_path / "b") == [
            "descriptors.bin"]

    def test_build_error_is_reported(self, tmp_path):
        error = parity.build_tree_inputs(parity.ROOT, "no_such_workload", 0,
                                         tmp_path / "a")
        assert "KeyError" in error


def test_exit_status_is_1_when_a_run_failed(tmp_path):
    # a tree without the workloads module fails every build
    done = subprocess.run(
        [sys.executable, str(parity.ROOT / "tools" / "parity.py"),
         "--before", str(tmp_path), "--seeds", "0"],
        capture_output=True, text=True)
    assert done.returncode == 1
    assert done.stdout.splitlines()[-1].startswith("3 runs, 3 failed")


@pytest.mark.parametrize("text,seeds", [("0-9", list(range(10))), ("3", [3]),
                                        ("1,4-5", [1, 4, 5])],
                         ids=["range", "one", "mixed"])
def test_parse_seeds(text, seeds):
    assert parity.parse_seeds(text) == seeds
