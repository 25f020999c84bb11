"""Tests for the command-line interface."""

import json

import pytest

from globalsfm.cli import build_parser, config_from_args, main
from globalsfm.config import PipelineConfig


def parse_run(argv):
    return build_parser().parse_args(["run"] + argv)


class TestConfigFlags:
    def test_no_flags_yields_defaults(self):
        args = parse_run([])
        assert config_from_args(args) == PipelineConfig()

    def test_scalar_flag_overrides(self):
        args = parse_run(["--seed", "5", "--cycle-epsilon-deg", "4.5",
                          "--n-workers", "3"])
        cfg = config_from_args(args)
        assert cfg.seed == 5
        assert cfg.cycle_epsilon_deg == 4.5
        assert cfg.n_workers == 3

    def test_nullable_flag_accepts_none(self):
        cfg = config_from_args(parse_run(["--ba-huber-px", "none",
                                          "--translation-huber-delta",
                                          "null"]))
        assert cfg.ba_huber_px is None
        assert cfg.translation_huber_delta is None

    def test_threshold_list_flag(self):
        cfg = config_from_args(
            parse_run(["--ba-filter-thresholds-px", "8,4"]))
        assert cfg.ba_filter_thresholds_px == (8.0, 4.0)

    def test_boolean_negation_flag(self):
        cfg = config_from_args(parse_run(["--no-enable-landmark-directions",
                                          "--enable-nms-merge"]))
        assert cfg.enable_landmark_directions is False
        assert cfg.enable_nms_merge is True

    def test_flag_beats_config_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"seed": 9, "n_workers": 2}))
        args = parse_run(["--config", str(path), "--seed", "4"])
        cfg = config_from_args(args)
        assert cfg.seed == 4 and cfg.n_workers == 2


class TestSynthCommand:
    def test_writes_scene_files(self, tmp_path):
        out = tmp_path / "scene"
        code = main(["synth", "--out", str(out), "--n-cameras", "6",
                     "--n-points", "40", "--seed", "1"])
        assert code == 0
        for name in ("descriptors.bin", "keypoints.json", "matches.json",
                     "intrinsics.json", "gt_poses.txt", "config.json"):
            assert (out / name).is_file()
        config = json.loads((out / "config.json").read_text())
        assert config == {"gt_poses_file": "gt_poses.txt",
                          "rotation_sigma": 0.1}

    def test_noisy_scene_keeps_default_sigma(self, tmp_path):
        out = tmp_path / "scene"
        main(["synth", "--out", str(out), "--n-cameras", "6",
              "--n-points", "40", "--noise-px", "1.0"])
        config = json.loads((out / "config.json").read_text())
        assert config["rotation_sigma"] == 1.0

    def test_outlier_labels_file(self, tmp_path):
        out = tmp_path / "scene"
        code = main(["synth", "--out", str(out), "--n-cameras", "8",
                     "--n-points", "60", "--outlier-fraction", "0.2",
                     "--outlier-mode", "random", "--seed", "3"])
        assert code == 0
        labels = json.loads((out / "outlier_labels.json").read_text())
        counts = {}
        for entry in labels["labels"]:
            counts[entry["label"]] = counts.get(entry["label"], 0) + 1
        assert counts.get("random", 0) == round(0.2 * sum(counts.values()))


class TestRunCommand:
    def test_full_run(self, tmp_path, capsys):
        scene = tmp_path / "scene"
        main(["synth", "--out", str(scene), "--n-cameras", "6",
              "--n-points", "50", "--seed", "2"])
        out = tmp_path / "out"
        code = main(["run", "--config", str(scene / "config.json"),
                     "--input-dir", str(scene), "--output-dir", str(out)])
        assert code == 0
        captured = capsys.readouterr().out
        assert "registered 6/6 cameras" in captured
        assert "pose AUC" in captured
        assert (out / "poses.txt").is_file()
        assert (out / "report.json").is_file()

    def test_missing_inputs_exit_code(self, tmp_path, capsys):
        code = main(["run", "--input-dir", str(tmp_path / "nope"),
                     "--output-dir", str(tmp_path / "out")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_config_file_exit_code(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"not_a_knob": 1}))
        code = main(["run", "--config", str(path),
                     "--input-dir", str(tmp_path)])
        assert code == 2
        assert "not_a_knob" in capsys.readouterr().err


class TestEvalCommand:
    def test_eval_against_self(self, tmp_path, capsys):
        scene = tmp_path / "scene"
        main(["synth", "--out", str(scene), "--n-cameras", "6",
              "--n-points", "40"])
        report_path = tmp_path / "metrics.json"
        code = main(["eval", "--estimated", str(scene / "gt_poses.txt"),
                     "--reference", str(scene / "gt_poses.txt"),
                     "--out", str(report_path)])
        assert code == 0
        assert "pose AUC" in capsys.readouterr().out
        payload = json.loads(report_path.read_text())
        assert payload["pose_auc"]["5.0"] == pytest.approx(100.0)


    @pytest.mark.parametrize("line", ["0 nan 0 0 0 0 0 0",
                                      "0 1 0 0 0 inf 0 0"])
    def test_non_finite_estimate_exit_code(self, tmp_path, capsys, line):
        scene = tmp_path / "scene"
        main(["synth", "--out", str(scene), "--n-cameras", "6",
              "--n-points", "40"])
        estimate = tmp_path / "estimate.txt"
        estimate.write_text(line + "\n")
        code = main(["eval", "--estimated", str(estimate),
                     "--reference", str(scene / "gt_poses.txt")])
        assert code == 2
        err = capsys.readouterr().err
        assert "error:" in err and f"{estimate}:1: non-finite" in err


class TestDumpViewGraphCommand:
    def test_writes_csv(self, tmp_path, capsys):
        scene = tmp_path / "scene"
        main(["synth", "--out", str(scene), "--n-cameras", "6",
              "--n-points", "40", "--seed", "4"])
        out = tmp_path / "vg"
        code = main(["dump-viewgraph", "--input-dir", str(scene),
                     "--output-dir", str(out)])
        assert code == 0
        assert "verified edges" in capsys.readouterr().out
        header = (out / "viewgraph.csv").read_text().splitlines()[0]
        assert header.startswith("i,j,min_cycle_error_deg")
