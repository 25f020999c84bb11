"""Output parity of this checkout against another on the benchmark workloads.

Run from the root of a checkout, with a second checkout of the commit to
compare against (for example made with ``git archive``):

    python3 tools/parity.py --before ../parent --seeds 0-9 --output parity.json

For every workload of ``BENCHMARK.json`` and every seed, each tree builds
its own inputs with its own ``perfbench/workloads.build_inputs``, so that a
change to a writer or to the scene generator shows.  Then ``run_pipeline``
of each tree runs on its inputs at one worker, with the workload's
configuration (as this checkout defines it).  Every build and run is a
subprocess with BLAS pinned to one thread.  One line per run gives

* the input files whose bytes differ between the two trees;
* the output files that differ (``timing.json``, which holds wall times,
  left out);
* whether the non-float fields of ``report.json`` match, its failure list
  aside, and where they do not, each differing field with both values;
* the failure reasons that changed, by stage and key;
* the largest difference of a pose entry (quaternion or center) in
  ``poses.txt``, ``None`` when the two runs register different cameras;
* the pose AUC at 1 and 5 degrees of both runs, from ``report.json``.

``--output`` (relative to the root of this checkout) writes the same data as
JSON.  A last line counts the runs with differing inputs and outputs.  The
exit status is 1 when a build or run failed, else 0.
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
# the pose AUC thresholds (degrees, as report.json keys them) put on record
AUC_DEGREES = ("1.0", "5.0")


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


def report_differences(before, after, path=""):
    """{path, before, after} of every leaf at which two JSON values differ,
    e.g. path ``rounds[0].iterations``.  A key that only one side has gives
    None on the other; lists of different lengths are one leaf."""
    if isinstance(before, dict) and isinstance(after, dict):
        return [diff for key in sorted(before.keys() | after.keys())
                for diff in report_differences(
                    before.get(key), after.get(key),
                    f"{path}.{key}" if path else key)]
    if (isinstance(before, list) and isinstance(after, list)
            and len(before) == len(after)):
        return [diff for i, (x, y) in enumerate(zip(before, after))
                for diff in report_differences(x, y, f"{path}[{i}]")]
    return [] if before == after else [
        {"path": path, "before": before, "after": after}]


def files_differ(before, after, ignored=()):
    """Sorted names of the files present in only one of two directories or
    with different bytes, ``ignored`` left out."""
    before, after = Path(before), Path(after)
    names = sorted(({p.name for p in before.iterdir()}
                    | {p.name for p in after.iterdir()}) - set(ignored))
    return [name for name in names
            if not ((before / name).is_file() and (after / name).is_file()
                    and (before / name).read_bytes()
                    == (after / name).read_bytes())]


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

    Returns a dict with ``files_differ`` (:func:`files_differ`,
    ``timing.json`` left out), ``report_non_float_equal`` (``report.json``
    with its floats and its failure list taken out), ``report_differences``
    (:func:`report_differences` of those two reports), ``changed_reasons``
    (one entry {stage, key, before, after} per failure whose reason differs
    or that only one run has; a missing side is None), ``max_pose_diff``
    and ``pose_auc`` ({threshold: [before, after]} at 1 and 5 degrees).
    """
    before, after = Path(before), Path(after)
    reports = [json.loads((side / "report.json").read_text())
               for side in (before, after)]
    reasons = [{(f["stage"], f["key"]): f["reason"]
                for f in report.pop("failures")} for report in reports]
    changed = [{"stage": stage, "key": key,
                "before": reasons[0].get((stage, key)),
                "after": reasons[1].get((stage, key))}
               for stage, key in sorted(reasons[0].keys() | reasons[1].keys())
               if reasons[0].get((stage, key)) != reasons[1].get((stage, key))]
    auc = {threshold: [report["metrics"]["pose_auc"][threshold]
                       for report in reports] for threshold in AUC_DEGREES}
    differences = report_differences(*map(_without_floats, reports))
    return {"files_differ": files_differ(before, after, IGNORED),
            "report_non_float_equal": not differences,
            "report_differences": differences,
            "changed_reasons": changed,
            "max_pose_diff": _pose_difference(before / "poses.txt",
                                              after / "poses.txt"),
            "pose_auc": auc}


def _in_tree(tree, mode, *args):
    """This script's ``mode`` in a subprocess that imports ``tree``'s
    ``globalsfm`` and workloads; None or its error."""
    tree = Path(tree)
    env = dict(os.environ, **THREAD_ENV, PYTHONPATH=os.pathsep.join(
        [str(tree / "src"), str(tree / "perfbench")]))
    done = subprocess.run([sys.executable, __file__, mode, *map(str, args)],
                          env=env, capture_output=True, text=True)
    if done.returncode != 0:
        lines = done.stderr.strip().splitlines()
        return lines[-1] if lines else f"exit status {done.returncode}"
    return None


def build_tree_inputs(tree, workload, seed, output):
    """``tree``'s ``build_inputs`` of a workload (by name) and seed, in a
    subprocess; None or its error."""
    return _in_tree(tree, "--build", workload, seed, output)


def run_tree(tree, inputs, output, overrides):
    """``run_pipeline`` of ``tree`` in a subprocess; None or its error."""
    return _in_tree(tree, "--run", inputs, output, json.dumps(overrides))


def _build_inputs(workload, seed, output):
    """The ``--build`` mode: the inputs of the ``workloads`` module on
    PYTHONPATH."""
    from workloads import WORKLOADS, build_inputs

    build_inputs(WORKLOADS[workload], int(seed), output)


def _run_pipeline(inputs, output, overrides):
    """The ``--run`` mode: one run of the ``globalsfm`` on PYTHONPATH, as
    the benchmark configures it but at one worker."""
    from globalsfm import PipelineConfig, run_pipeline

    run_pipeline(PipelineConfig(input_dir=inputs, output_dir=output,
                                gt_poses_file="gt_poses.txt", n_workers=1,
                                seed=0, **json.loads(overrides)))


def summary_line(record):
    head = f"{record['workload']} seed {record['seed']}: "
    if "error" in record:
        return head + record["error"]
    differences = record["report_differences"]
    fields = "match" if not differences else "DIFFER at " + ", ".join(
        f"{d['path']} ({d['before']!r} -> {d['after']!r})"
        for d in differences[:3])
    if len(differences) > 3:
        fields += f" and {len(differences) - 3} more"
    return (head + f"inputs differ {record['inputs_differ'] or 'none'}; "
            f"files differ {record['files_differ'] or 'none'}; "
            f"report non-float fields {fields}; "
            f"{len(record['changed_reasons'])} changed reasons; "
            f"max pose diff {record['max_pose_diff']!r}; AUC "
            + ", ".join(f"@{t}: {a:.4f} -> {b:.4f}"
                        for t, (a, b) in record["pose_auc"].items()))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--before", help="checkout of the commit to compare against")
    parser.add_argument("--seeds", default="0-9", help="e.g. 0-9 or 1,4,7")
    parser.add_argument("--output", help="JSON file to write, e.g. parity.json")
    parser.add_argument("--run", nargs=3, metavar=("INPUTS", "OUTPUT", "CONFIG"),
                        help=argparse.SUPPRESS)
    parser.add_argument("--build", nargs=3,
                        metavar=("WORKLOAD", "SEED", "OUTPUT"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.run:
        _run_pipeline(*args.run)
        return 0
    if args.build:
        _build_inputs(*args.build)
        return 0
    if args.before is None:
        parser.error("--before is required")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    from workloads import WORKLOADS

    trees = {"before": Path(args.before).resolve(), "after": ROOT}
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    records = []
    with tempfile.TemporaryDirectory(prefix="parity-") as scratch:
        scratch = Path(scratch)
        inputs = {side: scratch / side / "input" for side in trees}
        outputs = {side: scratch / side / "output" for side in trees}
        for workload in (WORKLOADS[w["name"]] for w in benchmark["workloads"]):
            for seed in parse_seeds(args.seeds):
                record = {"workload": workload.name, "seed": seed}
                for side, tree in trees.items():
                    error = (build_tree_inputs(tree, workload.name, seed,
                                               inputs[side])
                             or run_tree(tree, inputs[side], outputs[side],
                                         workload.config))
                    if error is not None:
                        record["error"] = f"{side}: {error}"
                        break
                else:
                    record["inputs_differ"] = files_differ(*inputs.values())
                    record.update(compare_outputs(*outputs.values()))
                records.append(record)
                print(summary_line(record), flush=True)
                for side in trees:
                    shutil.rmtree(scratch / side, ignore_errors=True)
    compared = [r for r in records if "error" not in r]
    print(f"{len(records)} runs, {len(records) - len(compared)} failed; "
          f"inputs differ in "
          f"{sum(bool(r['inputs_differ']) for r in compared)}, outputs in "
          f"{sum(bool(r['files_differ']) for r in compared)}",
          flush=True)
    if args.output:
        (ROOT / args.output).write_text(json.dumps(
            {"seeds": args.seeds, "runs": records}, indent=2) + "\n")
    return 1 if len(compared) < len(records) else 0


if __name__ == "__main__":
    sys.exit(main())
