"""Output parity of this checkout against another on the benchmark workloads.

Run from the root of a checkout, with a second checkout of the commit to
compare against (for example made with ``git archive``):

    python3 tools/parity.py --before ../parent --seeds 0-9 --output parity.json

For every workload of ``BENCHMARK.json`` and every seed, the inputs are
built once, by this checkout's ``perfbench/workloads.build_inputs``.  Then
``run_pipeline`` of each tree runs on them at one worker, with the
workload's configuration, each in its own subprocess with BLAS pinned to one
thread.  One line per run gives

* the output files that differ (``timing.json``, which holds wall times,
  left out);
* whether the non-float fields of ``report.json`` match, its failure list
  aside;
* the failure reasons that changed, by stage and key;
* the largest difference of a pose entry (quaternion or center) in
  ``poses.txt``, ``None`` when the two runs register different cameras.

``--output`` (relative to the root of this checkout) writes the same data as
JSON.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
IGNORED = {"timing.json"}


def parse_seeds(text):
    """Seeds from ``"0-9"``, ``"1,4,7"`` or a mix of both."""
    seeds = []
    for part in text.split(","):
        first, _, last = part.partition("-")
        seeds.extend(range(int(first), int(last or first) + 1))
    return seeds


def _without_floats(value):
    """``value`` with every float replaced by None."""
    if isinstance(value, float):
        return None
    if isinstance(value, dict):
        return {k: _without_floats(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_without_floats(v) for v in value]
    return value


def _read_poses(path):
    """camera id -> (qw, qx, qy, qz, tx, ty, tz) of a ``poses.txt``."""
    poses = {}
    for line in path.read_text().splitlines():
        if line.strip() and not line.startswith("#"):
            fields = line.split()
            poses[int(fields[0])] = [float(v) for v in fields[1:]]
    return poses


def _pose_difference(before, after):
    """Largest entry difference of two poses files; q and -q are one
    rotation.  None when they hold different cameras."""
    a, b = _read_poses(before), _read_poses(after)
    if a.keys() != b.keys():
        return None
    largest = 0.0
    for camera, pose in a.items():
        other = b[camera]
        quaternion = min(max(abs(x - y) for x, y in zip(pose[:4], other[:4])),
                         max(abs(x + y) for x, y in zip(pose[:4], other[:4])))
        center = max(abs(x - y) for x, y in zip(pose[4:], other[4:]))
        largest = max(largest, quaternion, center)
    return largest


def compare_outputs(before, after):
    """Compare two output directories of ``run_pipeline``.

    Returns a dict with ``files_differ`` (sorted names present in only one
    directory or with different bytes, ``timing.json`` left out),
    ``report_non_float_equal`` (``report.json`` with its floats and its
    failure list taken out), ``changed_reasons`` (one entry
    {stage, key, before, after} per failure whose reason differs or that
    only one run has; a missing side is None) and ``max_pose_diff``.
    """
    before, after = Path(before), Path(after)
    names = sorted(({p.name for p in before.iterdir()}
                    | {p.name for p in after.iterdir()}) - IGNORED)
    differ = [name for name in names
              if not ((before / name).is_file() and (after / name).is_file()
                      and (before / name).read_bytes()
                      == (after / name).read_bytes())]
    reports = [json.loads((side / "report.json").read_text())
               for side in (before, after)]
    reasons = [{(f["stage"], f["key"]): f["reason"]
                for f in report.pop("failures")} for report in reports]
    changed = [{"stage": stage, "key": key,
                "before": reasons[0].get((stage, key)),
                "after": reasons[1].get((stage, key))}
               for stage, key in sorted(reasons[0].keys() | reasons[1].keys())
               if reasons[0].get((stage, key)) != reasons[1].get((stage, key))]
    return {"files_differ": differ,
            "report_non_float_equal": (_without_floats(reports[0])
                                       == _without_floats(reports[1])),
            "changed_reasons": changed,
            "max_pose_diff": _pose_difference(before / "poses.txt",
                                              after / "poses.txt")}


def run_tree(tree, inputs, output, overrides):
    """``run_pipeline`` of ``tree`` in a subprocess; None or its error."""
    env = dict(os.environ, **THREAD_ENV, PYTHONPATH=str(Path(tree) / "src"))
    done = subprocess.run(
        [sys.executable, __file__, "--run", str(inputs), str(output),
         json.dumps(overrides)], env=env, capture_output=True, text=True)
    if done.returncode != 0:
        lines = done.stderr.strip().splitlines()
        return lines[-1] if lines else f"exit status {done.returncode}"
    return None


def _run_pipeline(inputs, output, overrides):
    """The ``--run`` mode: one run of the ``globalsfm`` on PYTHONPATH, as
    the benchmark configures it but at one worker."""
    from globalsfm import PipelineConfig, run_pipeline

    run_pipeline(PipelineConfig(input_dir=inputs, output_dir=output,
                                gt_poses_file="gt_poses.txt", n_workers=1,
                                seed=0, **json.loads(overrides)))


def summary_line(record):
    if "error" in record:
        return f"{record['workload']} seed {record['seed']}: {record['error']}"
    return (f"{record['workload']} seed {record['seed']}: "
            f"files differ {record['files_differ'] or 'none'}; "
            f"report non-float fields "
            f"{'match' if record['report_non_float_equal'] else 'DIFFER'}; "
            f"{len(record['changed_reasons'])} changed reasons; "
            f"max pose diff {record['max_pose_diff']!r}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--before", help="checkout of the commit to compare against")
    parser.add_argument("--seeds", default="0-9", help="e.g. 0-9 or 1,4,7")
    parser.add_argument("--output", help="JSON file to write, e.g. parity.json")
    parser.add_argument("--run", nargs=3, metavar=("INPUTS", "OUTPUT", "CONFIG"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.run:
        _run_pipeline(*args.run)
        return
    if args.before is None:
        parser.error("--before is required")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    from workloads import WORKLOADS, build_inputs

    trees = {"before": Path(args.before).resolve(), "after": ROOT}
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    records = []
    with tempfile.TemporaryDirectory(prefix="parity-") as scratch:
        scratch = Path(scratch)
        for workload in (WORKLOADS[w["name"]] for w in benchmark["workloads"]):
            for seed in parse_seeds(args.seeds):
                inputs = scratch / "input"
                build_inputs(workload, seed, inputs)
                record = {"workload": workload.name, "seed": seed}
                for side, tree in trees.items():
                    error = run_tree(tree, inputs, scratch / side,
                                     workload.config)
                    if error is not None:
                        record["error"] = f"{side}: {error}"
                        break
                else:
                    record.update(compare_outputs(scratch / "before",
                                                  scratch / "after"))
                records.append(record)
                print(summary_line(record), flush=True)
                for path in (inputs, scratch / "before", scratch / "after"):
                    shutil.rmtree(path, ignore_errors=True)
    if args.output:
        (ROOT / args.output).write_text(json.dumps(
            {"seeds": args.seeds, "runs": records}, indent=2) + "\n")


if __name__ == "__main__":
    main()
