"""Readers and writers for every on-disk artifact.

Formats (all little-endian, all deterministic given identical inputs):

* Descriptors (binary): 4-byte magic ``GDSC``, then three uint32 fields
  (version, n_images, dim), then ``n_images * dim`` float32 values row-major.
  Image ids are implicit: row k belongs to image k.
* Keypoints (JSON): ``{"keypoints": {"<image_id>": [[x, y], ...]}}`` with
  64-bit float coordinates.
* Matches (JSON): ``{"matches": [{"pair": [i, j], "indices": [[a, b], ...]}]}``
  where a/b index into the keypoint arrays of images i/j.  The pipeline
  requires every pair once, with i < j.
* Intrinsics (JSON): ``{"intrinsics": {"<image_id>": {"f": .., "k1": ..,
  "k2": .., "u0": .., "v0": ..}}}``.

  The keypoint and match writers put one image's keypoint rows, or one
  match record, on each line, without indentation and with sorted keys::

      {"matches": [
      {"indices": [[0, 3], [1, 5]], "pair": [0, 1]},
      {"indices": [[2, 2]], "pair": [0, 2]}
      ]}

  The three readers take any JSON layout (indented, on one line, with
  other top-level keys in any order).  They decode the root key's entries
  one at a time, each keypoint or index list into an array at once, so
  the whole file never exists as Python objects.  An image id given twice
  (``"1"`` and ``"01"`` are the same image) or a root key given twice is
  an error.
* Poses (text): one record per registered camera, ``camera_id qw qx qy qz
  tx ty tz`` — the camera-to-world rotation as a wxyz quaternion and the
  camera center in world coordinates.  Lines starting with ``#`` are
  comments.
* Report / timing (JSON): nested dicts with sorted keys, see the metrics and
  pipeline modules for the schemas.
* View-graph diagnostics (CSV): columns ``i,j,min_cycle_error_deg,
  median_cycle_error_deg,kept_stage1,kept_stage2`` (booleans as 0/1).
  ``kept_stage1`` is 1 when stage 1 did not blame the edge for a failing
  triplet; each failing triplet is attributed to the edge that explains it,
  so a kept edge may have ``min_cycle_error_deg`` at or above the threshold.
* Direction-violation diagnostics (CSV): columns ``kind,a,b,
  violation_fraction,removed``.
* Point cloud (ASCII PLY): landmarks as white vertices, camera frusta as
  red vertices (center plus four image-corner rays per camera).
"""

import json
import re
import struct
from pathlib import Path

import numpy as np
from scipy.spatial.transform import Rotation as _ScipyRotation

from .errors import DegenerateError, InputError
from .geometry import CameraIntrinsics, Pose3
from .two_view import MatchSet

DESCRIPTOR_MAGIC = b"GDSC"
DESCRIPTOR_VERSION = 1

_INTRINSICS_FIELDS = ("f", "k1", "k2", "u0", "v0")

_DECODER = json.JSONDecoder()
_WHITESPACE = re.compile(r"[ \t\n\r]*")


def _fmt(x: float) -> str:
    """Shortest decimal that round-trips a float64 exactly."""
    return format(float(x), ".17g")


def _read_bytes(path) -> bytes:
    path = Path(path)
    if not path.is_file():
        raise InputError(f"missing input file: {path}")
    return path.read_bytes()


def _read_text(path) -> str:
    path = Path(path)
    if not path.is_file():
        raise InputError(f"missing input file: {path}")
    return path.read_text()


def _skip(text: str, pos: int) -> int:
    return _WHITESPACE.match(text, pos).end()


def _member_key(text: str, pos: int):
    """The key of the object member at ``pos`` and where its value starts."""
    if not text.startswith('"', pos):
        raise json.JSONDecodeError(
            "Expecting property name enclosed in double quotes", text, pos)
    key, pos = _DECODER.raw_decode(text, pos)
    pos = _skip(text, pos)
    if not text.startswith(":", pos):
        raise json.JSONDecodeError("Expecting ':' delimiter", text, pos)
    return key, _skip(text, pos + 1)


def _after_member(text: str, pos: int, close: str):
    """Where the next member starts, and whether the container closed."""
    pos = _skip(text, pos)
    if text.startswith(close, pos):
        return pos + 1, True
    if not text.startswith(",", pos):
        raise json.JSONDecodeError("Expecting ',' delimiter", text, pos)
    return _skip(text, pos + 1), False


def _members(text: str, pos: int, keyed: bool):
    """Decode the members of the array (object if ``keyed``) whose opening
    bracket is at ``pos`` one at a time: yields values, or (key, value)
    pairs, and returns the position after the closing bracket."""
    close = "}" if keyed else "]"
    pos = _skip(text, pos + 1)
    closed = text.startswith(close, pos)
    pos += closed
    while not closed:
        key = None
        if keyed:
            key, pos = _member_key(text, pos)
        value, pos = _DECODER.raw_decode(text, pos)
        yield (key, value) if keyed else value
        pos, closed = _after_member(text, pos, close)
    return pos


def _root_entries(path, root_key: str, keyed: bool):
    """The entries of the ``root_key`` member of the JSON object in ``path``,
    decoded one at a time: the values of its array, or the (key, value)
    pairs of its object if ``keyed``.

    Other top-level members are decoded and dropped.  The rest of the file
    is checked after the last entry, so a truncated file or trailing data
    raises InputError only then.
    """
    text = _read_text(path)
    found = False
    try:
        pos = _skip(text, 0)
        if not text.startswith("{", pos):
            _, pos = _DECODER.raw_decode(text, pos)
            if _skip(text, pos) != len(text):
                raise json.JSONDecodeError("Extra data", text, pos)
            raise InputError(f"{path}: expected a JSON object with "
                             f"{root_key!r}")
        pos = _skip(text, pos + 1)
        closed = text.startswith("}", pos)
        pos += closed
        while not closed:
            key, pos = _member_key(text, pos)
            if key != root_key:
                _, pos = _DECODER.raw_decode(text, pos)
            elif found:
                raise InputError(f"{path}: {root_key!r} given twice")
            elif not text.startswith("{" if keyed else "[", pos):
                raise InputError(
                    f"{path}: {root_key!r} must " + (
                        "map image ids to entries" if keyed
                        else "be a list of records"))
            else:
                found = True
                pos = yield from _members(text, pos, keyed)
            pos, closed = _after_member(text, pos, "}")
        if _skip(text, pos) != len(text):
            raise json.JSONDecodeError("Extra data", text, pos)
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON in {path}: {exc}") from exc
    if not found:
        raise InputError(f"{path}: expected a JSON object with {root_key!r}")


def _write_entries(path, root_key: str, entries, keyed: bool) -> None:
    """Write ``{root_key: [...]}`` (``{...}`` if ``keyed``) with one entry,
    already encoded, on each line."""
    opening, close = "{}" if keyed else "[]"
    Path(path).write_text(f'{{"{root_key}": {opening}\n'
                          + ",\n".join(entries) + f"\n{close}}}\n")


def write_json(path, payload: dict) -> None:
    """Canonical JSON: 2-space indent, sorted keys, trailing newline."""
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True)
                          + "\n")


def write_descriptors(path, descriptors: np.ndarray) -> None:
    """Write global descriptors; row k belongs to image k."""
    vectors = np.asarray(descriptors, dtype="<f4")
    if vectors.ndim != 2:
        raise InputError(f"descriptors must be an (n, D) array, got shape "
                         f"{vectors.shape}")
    header = DESCRIPTOR_MAGIC + struct.pack(
        "<III", DESCRIPTOR_VERSION, *vectors.shape)
    Path(path).write_bytes(header + vectors.tobytes())


def read_descriptors(path) -> np.ndarray:
    """Read global descriptors as an (n, D) float64 array, row k for image k.

    Each row is renormalized after the float32 round trip, so that it has
    unit norm to float64 precision.
    """
    raw = _read_bytes(path)
    if len(raw) < 16 or raw[:4] != DESCRIPTOR_MAGIC:
        raise InputError(f"{path}: not a descriptor file (bad magic)")
    version, n_images, dim = struct.unpack("<III", raw[4:16])
    if version != DESCRIPTOR_VERSION:
        raise InputError(f"{path}: unsupported descriptor version {version}")
    expected = 16 + 4 * n_images * dim
    if len(raw) != expected:
        raise InputError(f"{path}: expected {expected} bytes, got {len(raw)}")
    flat = np.frombuffer(raw, dtype="<f4", offset=16)
    rows = flat.reshape(n_images, dim).astype(np.float64)
    # a NaN would pass the zero-norm test and silently lose the image its
    # similarity pairs
    non_finite = ~np.isfinite(rows).all(axis=1)
    # one norm per row: a norm along axis 1 sums in another order and would
    # move the descriptors, and with them the similarity scores, at round-off
    norms = np.array([np.linalg.norm(row) for row in rows])
    bad = np.flatnonzero(non_finite | (norms < 1e-12))
    if len(bad):
        kind = "non-finite" if non_finite[bad[0]] else "zero"
        raise InputError(f"{path}: {kind} descriptor at row {bad[0]}")
    return rows / norms.reshape(-1, 1)


def write_keypoints(path, keypoints: dict) -> None:
    """One image's keypoint rows per line, in image id order."""
    _write_entries(path, "keypoints", (
        f'"{int(image_id)}": '
        + json.dumps(np.asarray(kps, dtype=float).tolist())
        for image_id, kps in sorted(keypoints.items())), keyed=True)


def _image_entries(path, root_key: str):
    """(image id, value) of every entry of the JSON object under
    ``root_key``, decoded one at a time; an image id may occur once."""
    seen = set()
    for key, value in _root_entries(path, root_key, keyed=True):
        try:
            image = int(key)
        except ValueError as exc:
            raise InputError(f"{path}: image {key}: image ids must be "
                             f"integers") from exc
        if image in seen:
            raise InputError(f"{path}: image {image}: given more than once")
        seen.add(image)
        yield image, value


def read_keypoints(path) -> dict:
    """Keypoints by image id; InputError names the file and the image of a
    malformed entry.  An image may list no keypoints."""
    out = {}
    for image, rows in _image_entries(path, "keypoints"):
        try:
            arr = np.asarray(rows, dtype=float)
        except (TypeError, ValueError) as exc:
            raise InputError(f"{path}: image {image}: {exc}") from exc
        if arr.shape == (0,):
            arr = arr.reshape(0, 2)
        elif arr.ndim != 2 or arr.shape[1] != 2:
            raise InputError(f"{path}: image {image}: keypoint rows must hold "
                             f"two numbers")
        if not np.all(np.isfinite(arr)):
            raise InputError(f"{path}: image {image} has non-finite keypoint "
                             f"coordinates")
        out[image] = arr
    return out


def write_matches(path, matches: list) -> None:
    """One match record per line, in pair order."""
    records = []
    for match in sorted(matches, key=lambda m: m.pair):
        rows = np.atleast_2d(np.asarray(match.indices, dtype=int))
        records.append(json.dumps(
            {"pair": [int(match.pair[0]), int(match.pair[1])],
             "indices": rows.tolist()}, sort_keys=True))
    _write_entries(path, "matches", records, keyed=False)


def read_matches(path) -> list:
    """Match records in file order; InputError names a malformed record."""
    out = []
    for k, rec in enumerate(_root_entries(path, "matches", keyed=False)):
        try:
            pair = tuple(int(v) for v in rec["pair"])
            indices = np.asarray(rec["indices"], dtype=int)
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(
                f"{path}: malformed match record {k}: {exc!r}") from exc
        if len(pair) != 2:
            raise InputError(f"{path}: bad pair {rec['pair']}")
        if indices.size == 0:
            indices = indices.reshape(0, 2)
        elif indices.ndim != 2 or indices.shape[1] != 2:
            raise InputError(f"{path}: match record {k} (pair {pair}): "
                             f"index rows must hold two numbers")
        out.append(MatchSet(pair, indices))
    return out


def write_intrinsics(path, intrinsics: dict) -> None:
    payload = {}
    for image_id, intr in sorted(intrinsics.items()):
        payload[str(image_id)] = {name: float(getattr(intr, name))
                                  for name in _INTRINSICS_FIELDS}
    write_json(path, {"intrinsics": payload})


def read_intrinsics(path) -> dict:
    """Intrinsics by image id; InputError names the file and the image of a
    malformed entry, including a non-finite field or a focal length that is
    not positive."""
    out = {}
    for image, fields in _image_entries(path, "intrinsics"):
        if not isinstance(fields, dict):
            raise InputError(f"{path}: image {image}: intrinsics must be an "
                             f"object with {list(_INTRINSICS_FIELDS)}")
        missing = [n for n in _INTRINSICS_FIELDS if n not in fields]
        if missing:
            raise InputError(f"{path}: image {image}: intrinsics missing "
                             f"{missing}")
        try:
            values = {n: float(fields[n]) for n in _INTRINSICS_FIELDS}
        except (TypeError, ValueError) as exc:
            raise InputError(f"{path}: image {image}: {exc}") from exc
        bad = [n for n, v in values.items() if not np.isfinite(v)]
        if bad:
            raise InputError(f"{path}: image {image}: non-finite intrinsics "
                             f"{bad}")
        try:
            out[image] = CameraIntrinsics(**values)
        except DegenerateError as exc:
            raise InputError(f"{path}: image {image}: {exc}") from exc
    return out


def write_poses(path, poses) -> None:
    """Write camera-to-world poses, one line per registered camera.

    Args:
        path: output file.
        poses: mapping camera_id -> Pose3, or a sequence where ``None``
            marks unregistered cameras (omitted from the file).
    """
    if isinstance(poses, dict):
        items = sorted(poses.items())
    else:
        items = [(i, p) for i, p in enumerate(poses) if p is not None]
    lines = ["# camera_id qw qx qy qz tx ty tz (camera-to-world, t = center)"]
    xyzw = _ScipyRotation.from_matrix(
        np.array([pose.rotation for _, pose in items]).reshape(-1, 3, 3)
    ).as_quat()
    for (camera_id, pose), (x, y, z, w) in zip(items, xyzw):
        fields = ([str(int(camera_id))] + [_fmt(q) for q in (w, x, y, z)]
                  + [_fmt(t) for t in pose.translation])
        lines.append(" ".join(fields))
    Path(path).write_text("\n".join(lines) + "\n")


def read_poses(path) -> dict:
    """Read a poses file into a dict camera_id -> Pose3.

    A camera id given on two lines, a non-finite field or a zero
    quaternion is an ``InputError`` naming the file and line.
    """
    ids, xyzw, centers = [], [], []
    first_line = {}
    for lineno, line in enumerate(_read_text(path).splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 8:
            raise InputError(f"{path}:{lineno}: expected 8 fields, "
                             f"got {len(parts)}")
        try:
            camera_id = int(parts[0])
            values = [float(v) for v in parts[1:]]
        except ValueError as exc:
            raise InputError(f"{path}:{lineno}: {exc}") from exc
        if not np.all(np.isfinite(values)):
            raise InputError(f"{path}:{lineno}: non-finite pose field")
        if camera_id in first_line:
            raise InputError(f"{path}:{lineno}: camera {camera_id}: given "
                             f"more than once (first on line "
                             f"{first_line[camera_id]})")
        first_line[camera_id] = lineno
        w, x, y, z = values[0:4]
        # one norm per quaternion: a norm along an axis sums in another
        # order (see read_descriptors)
        norm = float(np.linalg.norm([w, x, y, z]))
        if norm < 1e-12:
            raise InputError(f"{path}:{lineno}: zero quaternion")
        ids.append(camera_id)
        xyzw.append([x / norm, y / norm, z / norm, w / norm])
        centers.append(values[4:7])
    rotations = _ScipyRotation.from_quat(
        np.array(xyzw).reshape(-1, 4)).as_matrix()
    return {camera_id: Pose3(rot, np.array(center))
            for camera_id, rot, center in zip(ids, rotations, centers)}


def write_view_graph_csv(path, records: dict) -> None:
    """Per-edge cycle diagnostics; ``records`` maps edge -> CycleErrorRecord."""
    lines = ["i,j,min_cycle_error_deg,median_cycle_error_deg,"
             "kept_stage1,kept_stage2"]
    for edge in sorted(records):
        rec = records[edge]
        lines.append(",".join([
            str(int(edge[0])), str(int(edge[1])),
            _fmt(rec.min_error), _fmt(rec.median_error),
            str(int(rec.kept_stage1)), str(int(rec.kept_stage2))]))
    Path(path).write_text("\n".join(lines) + "\n")


def write_direction_violations_csv(path, measurements: list,
                                   fractions, kept: list) -> None:
    """Per-measurement ordering-violation fractions from the direction filter.

    Args:
        path: output file.
        measurements: the DirectionMeasurement list that was filtered.
        fractions: violation fraction per measurement, aligned with input.
        kept: the surviving measurement list (identity-based membership).
    """
    surviving = {id(m) for m in kept}
    lines = ["kind,a,b,violation_fraction,removed"]
    for m, frac in zip(measurements, fractions):
        lines.append(",".join([
            m.kind, str(m.a), str(m.b), _fmt(frac),
            str(int(id(m) not in surviving))]))
    Path(path).write_text("\n".join(lines) + "\n")


def _frustum_points(pose: Pose3, intr, depth: float) -> np.ndarray:
    if intr is not None:
        half_x = intr.u0 / intr.f
        half_y = intr.v0 / intr.f
    else:
        half_x, half_y = 0.5, 0.4
    corners_cam = np.array([
        [0.0, 0.0, 0.0],
        [-half_x, -half_y, 1.0],
        [half_x, -half_y, 1.0],
        [half_x, half_y, 1.0],
        [-half_x, half_y, 1.0],
    ]) * depth
    return pose.transform(corners_cam)


def export_ply(path, points, poses, intrinsics=None,
               frustum_depth: float = 0.3) -> None:
    """ASCII PLY point cloud: white landmarks plus red camera frusta.

    Every camera contributes five red vertices (its center and the four
    image-corner rays at ``frustum_depth``).  With no landmarks and no poses
    the file is a valid zero-vertex PLY.

    Args:
        path: output file.
        points: (P, 3) array (or empty) of landmark positions.
        poses: camera-to-world Pose3 per image id (``None`` entries
            skipped).
        intrinsics: optional per-image intrinsics indexed like ``poses``
            (or a single CameraIntrinsics) shaping the frusta.
        frustum_depth: frustum size in scene units.
    """
    points = np.asarray(points, dtype=float).reshape(-1, 3)
    vertices = [(p, (255, 255, 255)) for p in points]
    for k, pose in enumerate(poses):
        if pose is None:
            continue
        if intrinsics is None:
            intr = None
        elif isinstance(intrinsics, CameraIntrinsics):
            intr = intrinsics
        else:
            intr = intrinsics[k]
        for corner in _frustum_points(pose, intr, frustum_depth):
            vertices.append((corner, (255, 0, 0)))
    lines = [
        "ply",
        "format ascii 1.0",
        f"element vertex {len(vertices)}",
        "property float x",
        "property float y",
        "property float z",
        "property uchar red",
        "property uchar green",
        "property uchar blue",
        "end_header",
    ]
    for xyz, rgb in vertices:
        lines.append(" ".join([_fmt(v) for v in xyz]
                              + [str(c) for c in rgb]))
    Path(path).write_text("\n".join(lines) + "\n")
