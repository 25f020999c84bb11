"""Tests for pipeline configuration loading and validation."""

import dataclasses
import json

import numpy as np
import pytest

from globalsfm import pipeline
from globalsfm.bundle_adjustment import BaConfig
from globalsfm.config import (ENV_WORKERS, PipelineConfig, default_workers,
                              load_config)
from globalsfm.errors import ConfigError
from globalsfm.rotation_averaging import RotationConfig
from globalsfm.two_view import VerificationConfig


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def translation_solve_arguments(cfg, monkeypatch):
    """The keyword arguments the pipeline's translation stage hands to
    ``solve_translations`` under ``cfg`` (its inputs are stubbed out)."""
    captured = {}

    def fake_solve(measurements, n_cameras, **kwargs):
        captured.update(kwargs)
        return None

    class Executor:
        map = map

        def finish_stage(self, *args):
            pass

    monkeypatch.setattr(pipeline, "camera_direction_measurements",
                        lambda measurements, rotations: [])
    monkeypatch.setattr(pipeline, "mfas_filter",
                        lambda directions, **kwargs: (directions, []))
    monkeypatch.setattr(pipeline, "solve_translations", fake_solve)
    pipeline._translation_stage(
        Executor(), dataclasses.replace(cfg, enable_landmark_directions=False),
        [], [], [], {0: 0, 1: 1}, {})
    return captured


class TestDefaults:
    def test_key_defaults(self):
        cfg = PipelineConfig()
        assert cfg.cycle_epsilon_deg == 7.0
        assert cfg.rotation_sigma == 1.0
        assert cfg.ransac_threshold_px == 4.0
        assert cfg.min_track_length == 3
        assert cfg.ba_filter_thresholds_px == (10.0, 5.0, 3.0)
        assert cfg.enable_two_view_ba and cfg.enable_landmark_directions
        assert cfg.n_workers == 0 and cfg.seed == 0

    def test_frozen(self):
        cfg = PipelineConfig()
        with pytest.raises(Exception):
            cfg.seed = 3


class TestValidation:
    @pytest.mark.parametrize("bad", [
        {"retrieval_lookahead": 0},
        {"ransac_confidence": 1.0},
        {"ransac_confidence": 0.0},
        {"min_inlier_ratio": -0.1},
        {"min_track_length": 1},
        {"cycle_epsilon_deg": 0.0},
        {"ba_huber_px": -1.0},
        {"translation_huber_delta": 0.0},
        {"ba_filter_thresholds_px": (10.0, -5.0)},
        {"ba_filter_thresholds_px": ()},
        {"n_workers": -1},
        {"seed": -1},
        {"mfas_rejection_ratio": 1.5},
    ])
    def test_rejects_bad_values(self, bad):
        with pytest.raises(ConfigError):
            PipelineConfig(**bad)

    INT_FIELDS = [f.name for f in dataclasses.fields(PipelineConfig)
                  if f.type is int]

    def test_int_fields_are_the_declared_ones(self):
        assert {"mfas_projections", "retrieval_lookahead", "max_ransac_iters",
                "seed", "n_workers"} <= set(self.INT_FIELDS)

    @pytest.mark.parametrize("name", INT_FIELDS)
    @pytest.mark.parametrize("value", [2.5, 3.0, True, "3"],
                             ids=["fraction", "whole_float", "bool", "text"])
    def test_int_field_rejects_a_non_integer(self, tmp_path, name, value):
        with pytest.raises(ConfigError, match=f"{name} must be an integer"):
            PipelineConfig(**{name: value})
        with pytest.raises(ConfigError, match=f"{name} must be an integer"):
            load_config(write_json(tmp_path / "c.json", {name: value}))

    @pytest.mark.parametrize("name", INT_FIELDS)
    def test_int_field_takes_a_numpy_integer(self, name):
        value = getattr(PipelineConfig(), name)
        assert getattr(PipelineConfig(**{name: np.int64(value)}),
                       name) == value

    @pytest.mark.parametrize("name,value,message", [
        ("enable_two_view_ba", "no", "must be true or false"),
        ("enable_two_view_ba", 1, "must be true or false"),
        ("ransac_threshold_px", True, "must be a number"),
        ("mfas_rejection_ratio", "0.1", "must be a number"),
        ("ransac_threshold_px", None, "must be a number"),
    ], ids=["bool_text", "bool_int", "float_bool", "float_text",
            "float_none"])
    def test_field_rejects_a_value_of_another_type(self, tmp_path, name,
                                                   value, message):
        with pytest.raises(ConfigError, match=f"{name} {message}"):
            PipelineConfig(**{name: value})
        with pytest.raises(ConfigError, match=f"{name} {message}"):
            load_config(write_json(tmp_path / "c.json", {name: value}))

    @pytest.mark.parametrize("name,value", [
        ("input_dir", 5), ("output_dir", None), ("gt_poses_file", 1.5),
        ("output_dir", ["out"]),
    ], ids=["int", "none", "float_optional", "list"])
    def test_path_field_rejects_a_non_path(self, tmp_path, name, value):
        with pytest.raises(ConfigError, match=f"{name} must be a path"):
            PipelineConfig(**{name: value})
        with pytest.raises(ConfigError, match=f"{name} must be a path"):
            load_config(write_json(tmp_path / "c.json", {name: value}))

    def test_path_field_takes_a_path_and_optional_none(self, tmp_path):
        cfg = PipelineConfig(input_dir=tmp_path, output_dir="out",
                             gt_poses_file=None)
        assert cfg.input_dir == tmp_path and cfg.gt_poses_file is None

    def test_float_field_takes_any_real_number_and_optional_none(self):
        cfg = PipelineConfig(ransac_threshold_px=3,
                             cycle_epsilon_deg=np.int64(5),
                             rotation_sigma=np.float32(0.5), ba_huber_px=None)
        assert cfg.ransac_threshold_px == 3 and cfg.ba_huber_px is None
        assert cfg.cycle_epsilon_deg == 5 and cfg.rotation_sigma == 0.5

    @pytest.mark.parametrize("stage,bad", [
        (VerificationConfig, {"ransac_confidence": 1.0}),
        (BaConfig, {"filter_thresholds_px": ()}),
        (BaConfig, {"min_track_length": 0}),
        (RotationConfig, {"max_staircase_level": 0}),
    ], ids=["ransac_confidence", "no_filter_thresholds", "ba_min_track_length",
            "max_staircase_level"])
    def test_stage_config_rejects_bad_values(self, stage, bad):
        with pytest.raises(ValueError, match=next(iter(bad))):
            stage(**bad)

    def test_none_disables_robust_losses(self, monkeypatch):
        cfg = PipelineConfig(ba_huber_px=None, translation_huber_delta=None)
        assert cfg.ba_config().huber_px is None
        assert translation_solve_arguments(
            cfg, monkeypatch)["huber_delta"] is None


class TestWorkerResolution:
    def test_absent_env_means_one(self, monkeypatch):
        monkeypatch.delenv(ENV_WORKERS, raising=False)
        assert default_workers() == 1
        assert PipelineConfig().resolved_workers() == 1

    def test_env_value_used_when_unset(self, monkeypatch):
        monkeypatch.setenv(ENV_WORKERS, "6")
        assert PipelineConfig(n_workers=0).resolved_workers() == 6

    def test_explicit_count_wins_over_env(self, monkeypatch):
        monkeypatch.setenv(ENV_WORKERS, "6")
        assert PipelineConfig(n_workers=2).resolved_workers() == 2

    @pytest.mark.parametrize("value", ["0", "-3", "many", ""])
    def test_env_garbage_rejected(self, monkeypatch, value):
        monkeypatch.setenv(ENV_WORKERS, value)
        with pytest.raises(ConfigError):
            default_workers()


class TestLoadConfig:
    def test_no_file_no_overrides_gives_defaults(self):
        assert load_config() == PipelineConfig()

    def test_file_values_applied(self, tmp_path):
        path = write_json(tmp_path / "cfg.json",
                          {"seed": 7, "cycle_epsilon_deg": 5.0})
        cfg = load_config(path)
        assert cfg.seed == 7 and cfg.cycle_epsilon_deg == 5.0
        assert cfg.rotation_sigma == 1.0

    def test_overrides_beat_file(self, tmp_path):
        path = write_json(tmp_path / "cfg.json", {"seed": 7, "n_workers": 2})
        cfg = load_config(path, overrides={"seed": 11})
        assert cfg.seed == 11 and cfg.n_workers == 2

    def test_absent_override_keys_keep_file_values(self, tmp_path):
        path = write_json(tmp_path / "cfg.json", {"seed": 7})
        cfg = load_config(path, overrides={"n_workers": 3})
        assert cfg.seed == 7 and cfg.n_workers == 3

    def test_none_override_sets_nullable_field(self, tmp_path):
        path = write_json(tmp_path / "cfg.json", {"ba_huber_px": 2.0})
        cfg = load_config(path, overrides={"ba_huber_px": None})
        assert cfg.ba_huber_px is None

    def test_unknown_file_key_rejected_by_name(self, tmp_path):
        path = write_json(tmp_path / "cfg.json", {"cycle_epsilon": 5.0})
        with pytest.raises(ConfigError, match="cycle_epsilon"):
            load_config(path)

    def test_unknown_override_key_rejected(self):
        with pytest.raises(ConfigError):
            load_config(overrides={"bogus_knob": 1})

    def test_list_coerced_to_tuple(self, tmp_path):
        path = write_json(tmp_path / "cfg.json",
                          {"ba_filter_thresholds_px": [8.0, 4.0]})
        assert load_config(path).ba_filter_thresholds_px == (8.0, 4.0)

    @pytest.mark.parametrize("value", ["123", "5", {"8": 1}, 3.0, None],
                             ids=["digits", "digit", "object", "number",
                                  "null"])
    def test_list_field_takes_only_an_array(self, tmp_path, value):
        name = "ba_filter_thresholds_px"
        with pytest.raises(ConfigError, match=f"{name} must be a list"):
            load_config(write_json(tmp_path / "cfg.json", {name: value}))
        with pytest.raises(ConfigError, match=f"{name} must be a list"):
            load_config(overrides={name: value})

    def test_list_field_rejects_a_text_or_bool_entry(self):
        name = "ba_filter_thresholds_px"
        for value in (["8", True], [8.0, "4"], [8.0, False]):
            with pytest.raises(ConfigError, match=f"{name} must be a list"):
                load_config(overrides={name: value})

    def test_list_field_is_stored_as_a_tuple_of_floats(self):
        cfg = PipelineConfig(ba_filter_thresholds_px=[8.0, 4])
        assert cfg.ba_filter_thresholds_px == (8.0, 4.0)
        assert all(type(v) is float for v in cfg.ba_filter_thresholds_px)
        assert hash(cfg) == hash(PipelineConfig(
            ba_filter_thresholds_px=(8.0, 4.0)))

    def test_list_field_rejects_a_scalar_by_name(self):
        with pytest.raises(ConfigError,
                           match="ba_filter_thresholds_px must be a list"):
            PipelineConfig(ba_filter_thresholds_px=8.0)

    def test_null_huber_in_file(self, tmp_path):
        path = write_json(tmp_path / "cfg.json", {"ba_huber_px": None,
                                                  "translation_huber_delta": None})
        cfg = load_config(path)
        assert cfg.ba_huber_px is None and cfg.translation_huber_delta is None

    def test_non_object_root_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("[1, 2]")
        with pytest.raises(ConfigError):
            load_config(str(path))

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{nope")
        with pytest.raises(ConfigError):
            load_config(str(path))

    def test_bad_value_type_rejected(self, tmp_path):
        path = write_json(tmp_path / "cfg.json", {"seed": "twelve"})
        with pytest.raises(ConfigError):
            load_config(path)


class TestModuleConfigBuilders:
    def test_verification_mapping(self):
        cfg = PipelineConfig(ransac_threshold_px=2.0, min_inliers=20,
                             enable_two_view_ba=False)
        vc = cfg.verification_config()
        assert vc.ransac_threshold_px == 2.0
        assert vc.min_inliers == 20
        assert vc.enable_two_view_ba is False

    def test_rotation_mapping(self):
        rc = PipelineConfig(max_staircase_level=12).rotation_config()
        assert rc.max_staircase_level == 12

    def test_translation_mapping(self, monkeypatch):
        cfg = PipelineConfig(translation_huber_delta=0.25)
        kwargs = translation_solve_arguments(cfg, monkeypatch)
        assert kwargs == {"huber_delta": 0.25}

    def test_triangulation_mapping(self):
        tc = PipelineConfig(min_track_length=2, max_triangulation_hypotheses=7,
                            triangulation_threshold_px=6.0).triangulation_config()
        assert tc.min_track_length == 2
        assert tc.max_hypotheses == 7
        assert tc.inlier_threshold_px == 6.0

    def test_ba_mapping(self):
        bc = PipelineConfig(ba_huber_px=2.0, ba_max_iterations=17,
                            ba_filter_thresholds_px=(6.0, 3.0),
                            optimize_intrinsics=True,
                            min_track_length=2).ba_config()
        assert bc.huber_px == 2.0
        assert bc.max_iterations == 17
        assert bc.filter_thresholds_px == (6.0, 3.0)
        assert bc.optimize_intrinsics is True
        assert bc.min_track_length == 2
