"""Evaluation metrics comparing an estimated reconstruction to ground truth.

Conventions:
    * All angular quantities are reported in degrees, pixel quantities in
      pixels; field names carry their unit as a suffix (``_deg``, ``_px``).
    * Estimated pose lists may contain ``None`` entries for cameras the
      reconstruction failed to register.  Reference (ground-truth) poses must
      be present for every camera.
    * Global errors are measured after a similarity alignment of the estimate
      onto the reference, so they are invariant to the gauge freedom of the
      reconstruction.
    * The global translation angular error is the angle between the aligned
      estimated camera position vector and the reference position vector.
      This is origin-dependent by definition; it is computed exactly as
      stated, not as a baseline-normalized distance.
"""

import json
from dataclasses import asdict, dataclass

import numpy as np

from .errors import DegenerateError, MissingPose
from .geometry import (
    Pose3,
    direction_angular_error,
    relative_pose,
    rotation_angular_error,
    sim3_align,
)

AUC_THRESHOLDS_DEG = (1.0, 2.5, 5.0, 10.0, 20.0)

_ZERO_BASELINE = 1e-12


def error_distribution(values) -> dict:
    """Summary of a sample list: min/max/mean/median plus the raw values.

    An empty sample list yields ``None`` for every summary statistic and an
    empty ``values`` list, which serializes cleanly to JSON.
    """
    vals = [float(v) for v in values]
    if not vals:
        return {"min": None, "max": None, "mean": None, "median": None,
                "values": []}
    arr = np.array(vals)
    return {"min": float(arr.min()), "max": float(arr.max()),
            "mean": float(arr.mean()), "median": float(np.median(arr)),
            "values": vals}


def _pose_at(poses, index, label) -> Pose3:
    if index < 0 or index >= len(poses) or poses[index] is None:
        raise MissingPose(f"{label} pose for camera {index} is missing")
    return poses[index]


def relative_pose_errors(estimated, reference, pairs):
    """Per-pair relative rotation/translation/pose angular errors in degrees.

    For each pair (i, j) the relative pose j<-i is formed in both sets.  The
    rotation error is the geodesic angle between the two relative rotations;
    the translation error is the angle between the two relative translation
    vectors; the pose error is the maximum of the two.

    Pairs whose relative translation is (near-)zero in either set have no
    defined translation direction and are skipped; they are returned
    separately rather than silently dropped.

    Args:
        estimated: sequence of camera-to-world Pose3 (no ``None`` entries for
            any camera named by ``pairs``).
        reference: ground-truth poses, same indexing.
        pairs: iterable of (i, j) index pairs.

    Returns:
        (errors, skipped) where ``errors`` maps (i, j) to a tuple
        (rotation_error_deg, translation_error_deg, pose_error_deg) and
        ``skipped`` is a tuple of zero-baseline pairs.

    Raises:
        MissingPose: if a pair references an absent pose in either set.
    """
    errors = {}
    skipped = []
    for i, j in pairs:
        est_rel = relative_pose(_pose_at(estimated, i, "estimated"),
                                _pose_at(estimated, j, "estimated"))
        ref_rel = relative_pose(_pose_at(reference, i, "reference"),
                                _pose_at(reference, j, "reference"))
        rot_deg = rotation_angular_error(ref_rel.rotation, est_rel.rotation)
        if (np.linalg.norm(est_rel.translation) < _ZERO_BASELINE
                or np.linalg.norm(ref_rel.translation) < _ZERO_BASELINE):
            skipped.append((i, j))
            continue
        trans_deg = direction_angular_error(ref_rel.translation,
                                            est_rel.translation)
        errors[(i, j)] = (rot_deg, trans_deg, max(rot_deg, trans_deg))
    return errors, tuple(skipped)


def global_pose_errors(estimated, reference):
    """Per-camera global angular errors after similarity alignment.

    The estimate is aligned onto the reference with a similarity transform
    fitted to the registered cameras.  Each registered camera then reports
    the geodesic angle between aligned and reference rotations, and the angle
    between aligned and reference position vectors.

    Args:
        estimated: sequence of camera-to-world Pose3, ``None`` marking
            unregistered cameras (excluded from the result).
        reference: complete ground-truth poses, same indexing.

    Returns:
        dict mapping camera index to (rotation_error_deg,
        translation_error_deg), covering registered cameras only.

    Raises:
        DegenerateError: fewer than 2 registered cameras, or a degenerate
            alignment (coincident centers).
        MissingPose: a registered camera lacks a reference pose.
        ZeroVector: a camera position vector is too close to the origin for
            the angular position error to be defined.
    """
    registered = [i for i, pose in enumerate(estimated) if pose is not None]
    if len(registered) < 2:
        raise DegenerateError("need at least 2 registered cameras to align")
    ref_poses = [_pose_at(reference, i, "reference") for i in registered]
    est_poses = [estimated[i] for i in registered]
    alignment = sim3_align(est_poses, ref_poses)

    errors = {}
    for idx, est, ref in zip(registered, est_poses, ref_poses):
        aligned = alignment.transform_pose(est)
        rot_deg = rotation_angular_error(ref.rotation, aligned.rotation)
        trans_deg = direction_angular_error(ref.translation,
                                            aligned.translation)
        errors[idx] = (rot_deg, trans_deg)
    return errors


def pose_auc(pose_errors_deg, n_unregistered=0,
             thresholds=AUC_THRESHOLDS_DEG) -> dict:
    """Exact area under the cumulative recall curve, as a percentage.

    ``recall(e)`` is the fraction of all cameras — registered plus
    unregistered — whose pose error is at most ``e``; unregistered cameras
    behave as infinite error and therefore never become recalled.  For each
    threshold ``t`` the score is ``100/t * integral_0^t recall(e) de``,
    evaluated exactly: each finite error ``e_k`` contributes
    ``max(0, t - e_k)`` to the integral, so

        auc(t) = 100 * sum_k max(0, t - e_k) / (n_total * t).

    Args:
        pose_errors_deg: errors of the registered cameras (``inf`` allowed).
        n_unregistered: count of cameras missing from the reconstruction.
        thresholds: strictly ascending positive thresholds in degrees.

    Returns:
        dict mapping each threshold (as float) to a value in [0, 100].
    """
    errs = np.asarray(list(pose_errors_deg), dtype=float)
    if errs.size and (np.any(np.isnan(errs)) or np.any(errs < 0.0)):
        raise ValueError("pose errors must be non-negative and not NaN")
    if n_unregistered < 0:
        raise ValueError("unregistered count must be non-negative")
    ths = [float(t) for t in thresholds]
    if not ths or any(t <= 0 for t in ths) or any(
            a >= b for a, b in zip(ths, ths[1:])):
        raise ValueError("thresholds must be ascending and positive")
    n_total = errs.size + n_unregistered
    out = {}
    for t in ths:
        if n_total == 0:
            out[t] = 0.0
            continue
        gain = np.maximum(0.0, t - errs) if errs.size else 0.0
        out[t] = float(100.0 * np.sum(gain) / (n_total * t))
    return out


def track_statistics(landmarks):
    """Counts, length distribution, and mean reprojection error of tracks.

    ``landmarks`` is a :class:`~globalsfm.tracks.Landmarks` table (or an
    empty sequence).  Track length counts inlier observations only.  The
    mean reprojection error averages each landmark's stored per-track mean;
    it is ``None`` when there are no landmarks.

    Returns:
        (n_tracks, length_distribution, mean_reprojection_error_px).
    """
    if not len(landmarks):
        return 0, error_distribution([]), None
    lengths = np.bincount(landmarks.tracks.row_tracks()[landmarks.inliers],
                          minlength=len(landmarks))
    return (len(landmarks), error_distribution(lengths),
            float(np.mean(landmarks.mean_errors)))


@dataclass(frozen=True)
class MetricsReport:
    """Full evaluation summary with a stable JSON schema.

    Distribution-valued fields hold dicts produced by
    :func:`error_distribution`; ``pose_auc`` maps thresholds in degrees to
    percentages in [0, 100].
    """

    n_cameras_total: int
    n_registered_cameras: int
    n_pairs_evaluated: int
    n_pairs_skipped_unregistered: int
    n_pairs_skipped_zero_baseline: int
    relative_rotation_error_deg: dict
    relative_translation_error_deg: dict
    relative_pose_error_deg: dict
    global_rotation_error_deg: dict
    global_translation_error_deg: dict
    global_pose_error_deg: dict
    pose_auc: dict
    n_tracks_filtered: int
    track_length: dict
    track_mean_reprojection_error_px: float | None

    def to_json_dict(self) -> dict:
        """Plain-dict form with string AUC keys, ready for json.dumps."""
        out = asdict(self)
        out["pose_auc"] = {str(t): v for t, v in self.pose_auc.items()}
        return out

    def to_json(self, indent=2) -> str:
        return json.dumps(self.to_json_dict(), indent=indent, sort_keys=True)


def compute_metrics(estimated, reference, pairs, landmarks,
                    auc_thresholds=AUC_THRESHOLDS_DEG) -> MetricsReport:
    """Assemble the full report for an estimated reconstruction.

    Relative errors are evaluated over the given pairs, restricted to pairs
    whose both cameras are registered in the estimate.  Global errors cover
    registered cameras after similarity alignment; the per-camera pose error
    feeding the AUC is the maximum of the rotation and translation angular
    errors, and every unregistered camera counts against recall.

    Args:
        estimated: camera-to-world poses, ``None`` for unregistered cameras.
        reference: complete ground-truth poses, same indexing.
        pairs: iterable of (i, j) camera index pairs to evaluate relatively.
        landmarks: filtered landmarks of the final reconstruction.
        auc_thresholds: ascending positive AUC thresholds in degrees.
    """
    registered = {i for i, pose in enumerate(estimated) if pose is not None}
    usable_pairs = []
    n_unreg_pairs = 0
    for i, j in pairs:
        if i in registered and j in registered:
            usable_pairs.append((i, j))
        else:
            n_unreg_pairs += 1
    rel_errors, skipped = relative_pose_errors(estimated, reference,
                                               usable_pairs)
    rel_list = list(rel_errors.values())

    glob_errors = global_pose_errors(estimated, reference)
    glob_list = [glob_errors[i] for i in sorted(glob_errors)]
    pose_errors = [max(rot, trans) for rot, trans in glob_list]
    n_unregistered = len(reference) - len(registered)
    auc = pose_auc(pose_errors, n_unregistered, auc_thresholds)

    n_tracks, length_dist, mean_reproj = track_statistics(landmarks)
    return MetricsReport(
        n_cameras_total=len(reference),
        n_registered_cameras=len(registered),
        n_pairs_evaluated=len(rel_errors),
        n_pairs_skipped_unregistered=n_unreg_pairs,
        n_pairs_skipped_zero_baseline=len(skipped),
        relative_rotation_error_deg=error_distribution(
            [e[0] for e in rel_list]),
        relative_translation_error_deg=error_distribution(
            [e[1] for e in rel_list]),
        relative_pose_error_deg=error_distribution([e[2] for e in rel_list]),
        global_rotation_error_deg=error_distribution(
            [e[0] for e in glob_list]),
        global_translation_error_deg=error_distribution(
            [e[1] for e in glob_list]),
        global_pose_error_deg=error_distribution(pose_errors),
        pose_auc=auc,
        n_tracks_filtered=n_tracks,
        track_length=length_dist,
        track_mean_reprojection_error_px=mean_reproj,
    )
