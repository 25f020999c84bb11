"""Pipeline configuration: defaults, JSON loading, strict validation.

A configuration can come from three layers, later layers winning:
built-in defaults, a JSON config file (a flat object whose keys are the
field names below), and explicit overrides (e.g. command-line flags).
Unknown keys are rejected rather than ignored so typos cannot silently
disable a setting.
"""

import json
import numbers
import os
import typing
from dataclasses import dataclass, fields
from pathlib import Path

from .bundle_adjustment import BaConfig
from .errors import ConfigError
from .rotation_averaging import RotationConfig
from .tracks import TriangulationConfig
from .two_view import VerificationConfig

ENV_WORKERS = "GLOBALSFM_WORKERS"


def default_workers() -> int:
    """Worker count from the environment, defaulting to 1."""
    raw = os.environ.get(ENV_WORKERS)
    if raw is None:
        return 1
    try:
        value = int(raw)
    except ValueError as exc:
        raise ConfigError(f"{ENV_WORKERS} must be an integer, got {raw!r}") \
            from exc
    if value < 1:
        raise ConfigError(f"{ENV_WORKERS} must be >= 1, got {value}")
    return value


def _check_type(name: str, declared, value):
    """The value a field stores for ``value``; ``ConfigError`` unless
    ``value`` is of the field's declared type: a bool for ``bool``; an
    integer but no bool for ``int``; a real number but no bool for
    ``float``; a string or path-like object for ``str``; a list or tuple of
    real numbers, none a bool, for ``tuple``, stored as a tuple of floats;
    or None where the field is optional."""
    if value is None and type(None) in typing.get_args(declared):
        return value
    if declared is bool:
        if not isinstance(value, bool):
            raise ConfigError(f"{name} must be true or false, got {value!r}")
    elif declared is int:
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ConfigError(f"{name} must be an integer, got {value!r}")
    elif declared in (float, float | None):
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise ConfigError(f"{name} must be a number, got {value!r}")
    elif declared in (str, str | None):
        if not isinstance(value, (str, os.PathLike)):
            raise ConfigError(f"{name} must be a path, got {value!r}")
    elif declared is tuple:
        # an array only: a string would give one entry per character
        if not isinstance(value, (list, tuple)) or any(
                isinstance(v, bool) or not isinstance(v, numbers.Real)
                for v in value):
            raise ConfigError(f"{name} must be a list of numbers, got "
                              f"{value!r}")
        return tuple(float(v) for v in value)
    return value


@dataclass(frozen=True)
class PipelineConfig:
    """Every tunable of the reconstruction pipeline in one flat record.

    Ablation switches: ``enable_two_view_ba`` controls the refinement of
    each verified relative pose on its Sampson distances, whose prune
    threshold (the first-order correction in either image) is
    ``two_view_ba_reproj_prune_px``; ``enable_landmark_directions`` controls
    whether camera-to-landmark directions join the position solve;
    ``translation_huber_delta`` / ``ba_huber_px`` of ``None`` fall back to
    plain least squares.
    """

    # paths
    input_dir: str = "."
    output_dir: str = "out"
    gt_poses_file: str | None = None
    # execution
    n_workers: int = 0  # 0 = resolve from the environment at run time
    seed: int = 0
    # retrieval
    retrieval_lookahead: int = 10
    retrieval_k_small: int = 5
    retrieval_k_large: int = 15
    retrieval_k_switch: int = 500
    # The paper's minimum similarity is 0.3.  At 0.3 the sparse_wide
    # benchmark workload loses candidates (0, 14) and (1, 15) at every seed
    # 0-9, so raising this default needs its own accuracy evidence.
    retrieval_min_score: float = 0.1
    # two-view verification
    ransac_threshold_px: float = 4.0
    ransac_confidence: float = 0.9999
    max_ransac_iters: int = 10000
    # 0 disables the ratio floor; min_inliers still applies
    min_inlier_ratio: float = 0.10
    # A pair needs this many RANSAC inliers.  A pair with fewer matches
    # than this can never reach it, so it is rejected before RANSAC.
    min_inliers: int = 15
    enable_two_view_ba: bool = True
    # Keypoint duplicate-merging is for front-ends that emit per-pair
    # detections of the same feature; canonical keypoint files (one entry
    # per feature) must keep it off or distinct close points collapse.
    enable_nms_merge: bool = False
    two_view_ba_reproj_prune_px: float = 0.5
    nms_radius_px: float = 3.0
    # view-graph cycle filter
    cycle_epsilon_deg: float = 7.0
    # rotation averaging
    rotation_sigma: float = 1.0
    max_staircase_level: int = 30
    # translation averaging
    mfas_projections: int = 48
    mfas_rejection_ratio: float = 0.1
    translation_huber_delta: float | None = 0.1
    enable_landmark_directions: bool = True
    landmark_tracks_per_camera: int = 3
    # triangulation
    min_track_length: int = 3
    max_triangulation_hypotheses: int = 100
    triangulation_threshold_px: float = 10.0
    # bundle adjustment
    ba_huber_px: float | None = 1.345
    ba_max_iterations: int = 100
    ba_filter_thresholds_px: tuple = (10.0, 5.0, 3.0)
    optimize_intrinsics: bool = False

    def __post_init__(self):
        for field in fields(self):
            object.__setattr__(self, field.name, _check_type(
                field.name, field.type, getattr(self, field.name)))
        positive_ints = (
            "retrieval_lookahead", "retrieval_k_small", "retrieval_k_large",
            "retrieval_k_switch", "mfas_projections",
            "landmark_tracks_per_camera")
        for name in positive_ints:
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        for name in ("nms_radius_px", "cycle_epsilon_deg", "rotation_sigma"):
            if float(getattr(self, name)) <= 0.0:
                raise ConfigError(f"{name} must be positive")
        if self.n_workers < 0:
            raise ConfigError("n_workers must be >= 1 (or 0 for automatic)")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if not 0.0 < self.mfas_rejection_ratio < 1.0:
            raise ConfigError("mfas_rejection_ratio must be in (0, 1)")
        if (self.translation_huber_delta is not None
                and float(self.translation_huber_delta) <= 0.0):
            raise ConfigError("translation_huber_delta must be positive or null")
        # every stage config checks its own fields
        for build in (self.verification_config, self.rotation_config,
                      self.triangulation_config, self.ba_config):
            try:
                build()
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"{build.__name__}: {exc}") from exc

    def resolved_workers(self) -> int:
        return self.n_workers if self.n_workers >= 1 else default_workers()

    def verification_config(self) -> VerificationConfig:
        return VerificationConfig(
            ransac_threshold_px=self.ransac_threshold_px,
            ransac_confidence=self.ransac_confidence,
            max_ransac_iters=self.max_ransac_iters,
            min_inlier_ratio=self.min_inlier_ratio,
            min_inliers=self.min_inliers,
            two_view_ba_reproj_prune_px=self.two_view_ba_reproj_prune_px,
            enable_two_view_ba=self.enable_two_view_ba)

    def rotation_config(self) -> RotationConfig:
        return RotationConfig(max_staircase_level=self.max_staircase_level)

    def triangulation_config(self) -> TriangulationConfig:
        return TriangulationConfig(
            min_track_length=self.min_track_length,
            max_hypotheses=self.max_triangulation_hypotheses,
            inlier_threshold_px=self.triangulation_threshold_px)

    def ba_config(self) -> BaConfig:
        return BaConfig(
            huber_px=self.ba_huber_px,
            max_iterations=self.ba_max_iterations,
            optimize_intrinsics=self.optimize_intrinsics,
            min_track_length=self.min_track_length,
            filter_thresholds_px=self.ba_filter_thresholds_px)


def load_config(path=None, overrides: dict = None) -> PipelineConfig:
    """Build a validated PipelineConfig from a JSON file plus overrides.

    Args:
        path: optional JSON config file (a flat object of field values).
        overrides: optional dict applied on top of the file.  Every entry is
            applied verbatim, including ``None`` (meaningful for the nullable
            Huber parameters); leave a key out to keep the file value.

    Raises:
        ConfigError: unreadable file, unknown keys, or invalid values.
    """
    data = {}
    if path is not None:
        path = Path(path)
        if not path.is_file():
            raise ConfigError(f"config file not found: {path}")
        try:
            loaded = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON in {path}: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigError(f"{path}: config must be a JSON object")
        data.update(loaded)
    if overrides:
        data.update(overrides)

    declared = {f.name: f.type for f in fields(PipelineConfig)}
    unknown = sorted(set(data) - set(declared))
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    try:
        return PipelineConfig(**data)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
