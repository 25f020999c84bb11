"""Command-line interface.

Subcommands:

- ``run``: execute the full pipeline on an input directory.
- ``synth``: generate a synthetic orbit scene as a ready-to-run input
  directory (front-end files, ground-truth poses, matching config file).
- ``eval``: compute pose metrics from an estimated and a reference poses
  file, without running a reconstruction.
- ``dump-viewgraph``: run up to cycle filtering and write the per-edge
  diagnostics CSV.

Configuration precedence for ``run`` and ``dump-viewgraph``: built-in
defaults, then the ``--config`` JSON file, then explicit command-line flags.
Every :class:`PipelineConfig` field is exposed as a flag (underscores become
dashes); the worker count falls back to the ``GLOBALSFM_WORKERS`` variable
when neither flag nor file sets it.
"""

import argparse
import dataclasses
import sys
from pathlib import Path

from .config import PipelineConfig, load_config
from .errors import GlobalSfmError
from .io import (write_descriptors, write_intrinsics, write_json,
                 write_keypoints, write_matches, write_poses)
from .metrics import MetricsReport
from .pipeline import dump_view_graph, evaluate_pose_files, run_pipeline
from .synthetic import (MODE_DOPPELGANGER, MODE_RANDOM, generate_orbit_scene,
                        inject_outlier_edges)

class _Unset:
    """Marks flags the user did not pass (argparse would re-parse a string)."""

    def __repr__(self):
        return "<unset>"


_UNSET = _Unset()


def _nullable_float(text: str):
    if text.lower() in ("none", "null"):
        return None
    return float(text)


def _float_tuple(text: str) -> tuple:
    try:
        return tuple(float(v) for v in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def add_config_flags(parser: argparse.ArgumentParser) -> None:
    """One flag per PipelineConfig field, untouched flags left unset; the
    field's declared type decides how its flag parses."""
    group = parser.add_argument_group("pipeline configuration")
    for field in dataclasses.fields(PipelineConfig):
        flag = "--" + field.name.replace("_", "-")
        if field.type in (str, str | None):
            group.add_argument(flag, default=_UNSET, metavar="PATH")
        elif field.type == float | None:
            group.add_argument(flag, type=_nullable_float, default=_UNSET,
                               metavar="X|none")
        elif field.type is tuple:
            group.add_argument(flag, type=_float_tuple, default=_UNSET,
                               metavar="PX,PX,...")
        elif field.type is bool:
            group.add_argument(flag, action=argparse.BooleanOptionalAction,
                               default=_UNSET)
        elif field.type is int:
            group.add_argument(flag, type=int, default=_UNSET, metavar="N")
        elif field.type is float:
            group.add_argument(flag, type=float, default=_UNSET, metavar="X")
        else:
            raise AssertionError(f"unhandled config field {field.name}")


def config_from_args(args: argparse.Namespace) -> PipelineConfig:
    overrides = {}
    for field in dataclasses.fields(PipelineConfig):
        value = getattr(args, field.name, _UNSET)
        if value is not _UNSET:
            overrides[field.name] = value
    return load_config(getattr(args, "config", None), overrides)


def _auc_line(report: MetricsReport) -> str:
    return "pose AUC: " + "  ".join(
        f"@{threshold:g}deg={value:.2f}"
        for threshold, value in sorted(report.pose_auc.items()))


def _cmd_run(args: argparse.Namespace) -> int:
    config = config_from_args(args)
    result, metrics, timing = run_pipeline(config)
    total = timing.to_json_dict()["total_wall_time_s"]
    print(f"registered {result.n_registered}/{len(result.poses)} cameras, "
          f"{len(result.landmarks)} landmarks in {total:.1f}s")
    if result.failures:
        print(f"{len(result.failures)} per-task failures recorded "
              f"(see report.json)")
    if metrics is not None:
        print(_auc_line(metrics))
    print(f"outputs written to {config.output_dir}")
    return 0


def _cmd_synth(args: argparse.Namespace) -> int:
    scene, keypoints, matches, descriptors = generate_orbit_scene(
        args.n_cameras, args.n_points, radius=args.radius,
        noise_px=args.noise_px, seed=args.seed, volume_side=args.volume_side,
        n_rings=args.n_rings, ring_spacing=args.ring_spacing,
        dropout=args.dropout, width=args.width, height=args.height)
    labels = None
    if args.outlier_fraction > 0.0:
        keypoints, matches, labels = inject_outlier_edges(
            scene, keypoints, matches, args.outlier_fraction,
            mode=args.outlier_mode, seed=args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_descriptors(out / "descriptors.bin", descriptors)
    write_keypoints(out / "keypoints.json", keypoints)
    write_matches(out / "matches.json", matches)
    write_intrinsics(out / "intrinsics.json",
                     dict(enumerate(scene.intrinsics)))
    write_poses(out / "gt_poses.txt", list(scene.poses))
    # Noise-free measurements warrant the tight rotation uncertainty.
    config = {"gt_poses_file": "gt_poses.txt",
              "rotation_sigma": 0.1 if args.noise_px == 0.0 else 1.0}
    write_json(out / "config.json", config)
    if labels is not None:
        write_json(out / "outlier_labels.json",
                   {"labels": [{"pair": [int(i), int(j)], "label": label}
                               for (i, j), label in sorted(labels.items())]})
    n_corrupt = (0 if labels is None
                 else sum(1 for v in labels.values() if v != "clean"))
    print(f"wrote scene with {scene.n_cameras} cameras, "
          f"{scene.n_points} points, {len(matches)} match sets "
          f"({n_corrupt} corrupted) to {out}")
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    report = evaluate_pose_files(args.estimated, args.reference)
    print(f"evaluated {report.n_registered_cameras}/{report.n_cameras_total} "
          f"registered cameras over {report.n_pairs_evaluated} pairs")
    print(_auc_line(report))
    if args.out is not None:
        write_json(args.out, report.to_json_dict())
        print(f"report written to {args.out}")
    return 0


def _cmd_dump_viewgraph(args: argparse.Namespace) -> int:
    config = config_from_args(args)
    records = dump_view_graph(config)
    kept = sum(1 for r in records.values() if r.kept_stage2)
    print(f"{len(records)} verified edges, {kept} kept by the cycle filter")
    print(f"diagnostics written to "
          f"{Path(config.output_dir) / 'viewgraph.csv'}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="globalsfm",
        description="Global structure-from-motion back-end.")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run the full pipeline")
    run.add_argument("--config", default=None, metavar="JSON",
                     help="config file; flags override its values")
    add_config_flags(run)
    run.set_defaults(handler=_cmd_run)

    synth = sub.add_parser("synth", help="generate a synthetic scene")
    synth.add_argument("--out", required=True, metavar="DIR")
    synth.add_argument("--n-cameras", type=int, default=20)
    synth.add_argument("--n-points", type=int, default=500)
    synth.add_argument("--radius", type=float, default=5.0)
    synth.add_argument("--volume-side", type=float, default=2.0)
    synth.add_argument("--noise-px", type=float, default=0.0)
    synth.add_argument("--dropout", type=float, default=0.0)
    synth.add_argument("--n-rings", type=int, default=1)
    synth.add_argument("--ring-spacing", type=float, default=1.5)
    synth.add_argument("--width", type=int, default=760)
    synth.add_argument("--height", type=int, default=570)
    synth.add_argument("--seed", type=int, default=0)
    synth.add_argument("--outlier-fraction", type=float, default=0.0)
    synth.add_argument("--outlier-mode", default=MODE_DOPPELGANGER,
                       choices=[MODE_DOPPELGANGER, MODE_RANDOM])
    synth.set_defaults(handler=_cmd_synth)

    ev = sub.add_parser("eval", help="score estimated poses against truth")
    ev.add_argument("--estimated", required=True, metavar="POSES")
    ev.add_argument("--reference", required=True, metavar="POSES")
    ev.add_argument("--out", default=None, metavar="JSON")
    ev.set_defaults(handler=_cmd_eval)

    dump = sub.add_parser("dump-viewgraph",
                          help="write cycle-filter diagnostics only")
    dump.add_argument("--config", default=None, metavar="JSON")
    add_config_flags(dump)
    dump.set_defaults(handler=_cmd_dump_viewgraph)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except GlobalSfmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
