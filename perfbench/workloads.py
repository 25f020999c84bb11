"""The benchmark's synthetic workloads and how their inputs are built.

Every workload is an orbit scene from ``globalsfm.synthetic``, written to
disk with the ``globalsfm.io`` writers so that the pipeline reads it the way
it reads a real front-end's output.  ``--seed 0`` gives the base scene and
any other value a held-out scene of the same shape.

Where the scene's random geometry barely changes the amount of work
(``dense_orbit``: every point is seen by every camera), the seed moves the
geometry: the generator seed is the base seed plus ``--seed``.  Elsewhere
the geometry, and the choice of random-match pairs, stay at the base seed
and ``--seed`` draws only the keypoint noise.  In a sparse scene a handful
of points seen by almost every camera set most of the triangulation cost,
so re-drawing the geometry would change the work per seed by a quarter and
hide changes of the program behind changes of the input.
"""

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from globalsfm.io import (write_descriptors, write_intrinsics, write_keypoints,
                          write_matches, write_poses)
from globalsfm.synthetic import (LABEL_CLEAN, MODE_RANDOM,
                                 generate_orbit_scene, inject_outlier_edges)

GT_POSES = "gt_poses.txt"


@dataclass(frozen=True)
class Workload:
    name: str
    scene: dict
    base_seed: int
    n_workers: int
    random_pair_fraction: float = 0.0
    config: dict = field(default_factory=dict)
    min_pose_auc_5deg: float = 0.0
    seeded_geometry: bool = False


# Scenes are scaled down from the sizes the workloads were first sized at
# (20 x 500, 100 x 3000 and 16 x 300 cameras x points) to about two seconds
# a run, so that one measuring window holds a dozen runs; each keeps the
# property it was chosen for.
WORKLOADS = {w.name: w for w in (
    # Every point is seen by every camera, so triangulation and bundle
    # adjustment dominate, while RANSAC stops early on all-inlier pairs.
    Workload("dense_orbit",
             scene=dict(n_cameras=10, n_points=60, noise_px=0.0),
             base_seed=7, n_workers=1, min_pose_auc_5deg=99.0,
             seeded_geometry=True),
    # Cameras sit inside a wide point cloud: short tracks, many pairs with
    # few matches each, and more cameras in bundle adjustment.
    Workload("sparse_wide",
             scene=dict(n_cameras=16, n_points=1200, radius=2.0,
                        volume_side=8.0, n_rings=2, width=480, height=360,
                        noise_px=0.5),
             base_seed=1, n_workers=1, min_pose_auc_5deg=90.0),
    # A few pairs get random-index matches; RANSAC runs to its iteration
    # cap on them and then rejects them.  The only workload through the
    # process pool, where a few slow tasks set the stage time.  The cap is
    # scaled down from the default 10 000 with the scene, so that a
    # rejected pair costs about half a second instead of half a minute.
    Workload("rejected_pairs",
             scene=dict(n_cameras=12, n_points=80, noise_px=1.0,
                        dropout=0.3),
             base_seed=5, n_workers=2, random_pair_fraction=0.025,
             config=dict(max_ransac_iters=400), min_pose_auc_5deg=80.0),
)}


def build_inputs(workload, seed, out_dir):
    """Generate the workload's scene and write the pipeline's input files.

    Returns the input statistics, so that a shifted workload shows.
    """
    params = dict(workload.scene)
    n_cameras, n_points = params.pop("n_cameras"), params.pop("n_points")
    noise_px = params.pop("noise_px")
    if workload.seeded_geometry:
        scene_seed = workload.base_seed + seed
        scene, keypoints, matches, descriptors = generate_orbit_scene(
            n_cameras, n_points, noise_px=noise_px, seed=scene_seed, **params)
    else:
        scene_seed = workload.base_seed
        scene, keypoints, matches, descriptors = generate_orbit_scene(
            n_cameras, n_points, noise_px=0.0, seed=scene_seed, **params)
        rng = np.random.default_rng([scene_seed, seed])
        keypoints = {i: uv + rng.normal(scale=noise_px, size=uv.shape)
                     for i, uv in keypoints.items()}
    random_pairs = 0
    if workload.random_pair_fraction > 0.0:
        keypoints, matches, labels = inject_outlier_edges(
            scene, keypoints, matches, workload.random_pair_fraction,
            mode=MODE_RANDOM, seed=scene_seed)
        random_pairs = sum(1 for v in labels.values() if v != LABEL_CLEAN)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_descriptors(out / "descriptors.bin", descriptors)
    write_keypoints(out / "keypoints.json", keypoints)
    write_matches(out / "matches.json", matches)
    write_intrinsics(out / "intrinsics.json", dict(enumerate(scene.intrinsics)))
    write_poses(out / GT_POSES, list(scene.poses))
    observations = int(scene.visibility.sum())
    return {
        "scene_seed": scene_seed,
        "seed": seed,
        "cameras": scene.n_cameras,
        "points": scene.n_points,
        "observations": observations,
        "mean_track_length": observations / scene.n_points,
        "match_pairs": len(matches),
        "random_match_pairs": random_pairs,
    }
