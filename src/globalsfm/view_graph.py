"""View graph construction, triplet cycle-consistency filtering, connectivity.

Edges are undirected, keyed ``(i, j)`` with ``i < j``, and store the verified
relative rotation ``R`` mapping camera-i coordinates into camera j.  Traversal
in the opposite direction uses the transpose; all cycle math goes through
:func:`edge_rotation` so orientation handling lives in one place.

:func:`connected_components` is the one connectivity kernel of the package:
it labels the nodes of an edge list by root hooking and shortcutting in
numpy (Shiloach and Vishkin, "An O(log n) parallel connectivity
algorithm", J. Algorithms 1982).  :func:`largest_connected_component`,
feature tracks (:func:`globalsfm.tracks.build_tracks`), keypoint merging
(:func:`globalsfm.two_view.merge_keypoints_nms`) and the translation
solve's connectivity test all call it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import compress

import numpy as np

from .geometry import so3_log


@dataclass(frozen=True)
class ViewGraph:
    """Undirected multigraph-free view graph: vertices and verified pair edges."""

    vertices: tuple
    edges: dict

    def __post_init__(self):
        for i, j in self.edges:
            if not i < j:
                raise ValueError(f"edge key {(i, j)} must satisfy i < j")

    def adjacency(self) -> dict:
        adj = {v: set() for v in self.vertices}
        for i, j in self.edges:
            adj[i].add(j)
            adj[j].add(i)
        return adj

    def n_edges(self) -> int:
        return len(self.edges)


@dataclass(frozen=True)
class CycleErrorRecord:
    """Cycle-error summary of one edge across the triplets that contain it.

    ``errors`` lists the first-stage per-triplet errors (degrees);
    ``median_error`` is taken over the second-stage triplet set when the edge
    reached stage 2, else over ``errors``.  ``kept_stage1`` means the edge
    was not blamed at stage 1: a failing triplet is attributed to the edge
    that explains it (see :func:`two_stage_cycle_filter`), so an edge whose
    every triplet fails may still be kept.  Edges in no triplet carry NaN
    statistics and pass the filter untested.
    """

    edge: tuple
    errors: tuple
    min_error: float
    median_error: float
    kept_stage1: bool
    kept_stage2: bool


def build_view_graph(measurements: list, n_cameras: int = None) -> ViewGraph:
    """Graph from accepted two-view measurements.

    Vertices are the union of edge endpoints, plus ``range(n_cameras)`` when
    given (isolated cameras then appear as singleton components).
    """
    edges = {}
    vertex_set = set(range(n_cameras)) if n_cameras else set()
    for m in measurements:
        i, j = m.pair
        if not i < j:
            raise ValueError(f"measurement pair {(i, j)} must satisfy i < j")
        edges[(i, j)] = m
        vertex_set.update((i, j))
    return ViewGraph(tuple(sorted(vertex_set)), edges)


def edge_rotation(graph: ViewGraph, a: int, b: int) -> np.ndarray:
    """Rotation mapping camera-a coordinates into camera b along edge {a, b}."""
    if a < b:
        return graph.edges[(a, b)].rotation
    return graph.edges[(b, a)].rotation.T


def triplet_cycle_error(r_ij: np.ndarray, r_jk: np.ndarray, r_ki: np.ndarray) -> float:
    """Angle of the loop composition i -> j -> k -> i, in degrees.

    Arguments are the orientation-corrected rotations along the loop (each
    maps the frame of its first index into its second).  Zero for a
    consistent triplet.
    """
    loop = r_ki @ r_jk @ r_ij
    return math.degrees(np.linalg.norm(so3_log(loop)))


def enumerate_triplets(graph: ViewGraph) -> list:
    """All triangles (i, j, k) with i < j < k, via adjacency intersection."""
    adj = graph.adjacency()
    triplets = []
    for i, j in sorted(graph.edges):
        for k in sorted(adj[i] & adj[j]):
            if k > j:
                triplets.append((i, j, k))
    return triplets


def _triplet_errors(graph: ViewGraph) -> list:
    """List of (edges of the triangle, cycle error) over all triplets."""
    out = []
    for i, j, k in enumerate_triplets(graph):
        err = triplet_cycle_error(edge_rotation(graph, i, j),
                                  edge_rotation(graph, j, k),
                                  edge_rotation(graph, k, i))
        out.append((((i, j), (j, k), (i, k)), err))
    return out


def _per_edge_errors(graph: ViewGraph, triplets: list) -> dict:
    """Map edge -> list of cycle errors over the triplets containing it."""
    errors = {edge: [] for edge in graph.edges}
    for edges, err in triplets:
        for edge in edges:
            errors[edge].append(err)
    return errors


def _path_rotation(graph: ViewGraph, edge: tuple, triangle: tuple) -> np.ndarray:
    """Rotation from edge[0] into edge[1] composed through the triangle's
    third vertex, i.e. the triangle's alternative path around ``edge``."""
    a, b = edge
    (c,) = {v for e in triangle for v in e} - {a, b}
    return edge_rotation(graph, c, b) @ edge_rotation(graph, a, c)


def _paths_agree(graph: ViewGraph, edge: tuple, triangles: list,
                 epsilon_deg: float) -> bool:
    """Whether the alternative paths around ``edge`` agree pairwise within
    epsilon."""
    paths = [_path_rotation(graph, edge, t) for t in triangles]
    return all(math.degrees(np.linalg.norm(so3_log(p.T @ q))) < epsilon_deg
               for n, p in enumerate(paths) for q in paths[n + 1:])


def _blame_failing_triplets(graph: ViewGraph, triplets: list,
                            epsilon_deg: float) -> set:
    """Edges held responsible for the triplets closing at or above epsilon.

    An edge in some passing triplet is confirmed and never blamed.  An
    unconfirmed edge is blamed on evidence when at least two failing
    triplets contain it and no blamed edge, and the alternative paths
    around it through those triplets agree with each other within epsilon:
    they then also disagree with the edge, since every triplet of an
    unconfirmed edge fails.  Such an edge explains those triplets.  Blaming
    repeats, leaving out paths through edges already blamed, until no new
    edge is blamed.  A failing triplet left unexplained blames all of its
    unconfirmed edges.  A clean edge is blamed on evidence only if its
    corrupted paths agree with each other, and a corrupted edge escapes
    only if a corrupted path agrees with another path of some blamed edge.
    """
    confirmed = {edge for edges, err in triplets if err < epsilon_deg
                 for edge in edges}
    failing = [edges for edges, err in triplets if not err < epsilon_deg]
    suspects = sorted({edge for edges in failing for edge in edges}
                      - confirmed)
    blamed, explained = set(), set()
    while True:
        culprits = {}
        for edge in suspects:
            if edge in blamed:
                continue
            paths = [n for n, edges in enumerate(failing)
                     if edge in edges and blamed.isdisjoint(edges)]
            if len(paths) >= 2 and _paths_agree(
                    graph, edge, [failing[n] for n in paths], epsilon_deg):
                culprits[edge] = paths
        if not culprits:
            break
        blamed.update(culprits)
        for paths in culprits.values():
            explained.update(paths)
    for n, edges in enumerate(failing):
        if n not in explained:
            blamed.update(edge for edge in edges if edge not in confirmed)
    return blamed


def two_stage_cycle_filter(graph: ViewGraph, epsilon_deg: float = 7.0) -> tuple:
    """Reject rotation-outlier edges by triplet consistency, in two stages.

    A triplet fails when its cycle error is at least ``epsilon_deg``.
    Stage 1 attributes each failing triplet to the edge that explains it
    rather than to all three of its edges.  An edge closing some triplet
    below the threshold is confirmed and kept.  An unconfirmed edge lying in
    two or more failing triplets whose alternative paths around it agree
    with each other is blamed and removed, and those triplets count as
    explained; this repeats, ignoring paths through removed edges, until
    nothing changes.  A failing triplet still unexplained removes all of its
    unconfirmed edges: a lone inconsistent triangle empties, and a clean
    edge between two corrupted ones, whose alternative paths disagree, goes
    with them (a count of failing triplets cannot tell it from a corrupted
    edge between two clean ones).  On a skeletal graph this keeps the clean
    neighbours of a corrupted edge that has two clean alternative paths.
    Stage 2 recomputes triplets on the survivors and keeps edges whose
    median cycle error is below the same threshold.  Edges contained in no
    triplet cannot be tested and are kept.

    Returns:
        (filtered ViewGraph, dict edge -> CycleErrorRecord for every input edge).
    """
    stage1_triplets = _triplet_errors(graph)
    stage1_errors = _per_edge_errors(graph, stage1_triplets)
    stage1_kept = set(graph.edges) - _blame_failing_triplets(
        graph, stage1_triplets, epsilon_deg)

    stage1_graph = ViewGraph(graph.vertices,
                             {e: graph.edges[e] for e in sorted(stage1_kept)})
    stage2_errors = _per_edge_errors(stage1_graph,
                                     _triplet_errors(stage1_graph))
    stage2_kept = {e for e, errs in stage2_errors.items()
                   if not errs or float(np.median(errs)) < epsilon_deg}

    records = {}
    for edge in graph.edges:
        errs1 = stage1_errors[edge]
        in_stage1 = edge in stage1_kept
        if in_stage1 and stage2_errors[edge]:
            median = float(np.median(stage2_errors[edge]))
        elif errs1:
            median = float(np.median(errs1))
        else:
            median = math.nan
        records[edge] = CycleErrorRecord(
            edge=edge,
            errors=tuple(errs1),
            min_error=min(errs1) if errs1 else math.nan,
            median_error=median,
            kept_stage1=in_stage1,
            kept_stage2=in_stage1 and edge in stage2_kept,
        )
    filtered = ViewGraph(graph.vertices,
                         {e: graph.edges[e]
                          for e in sorted(stage1_kept & stage2_kept)})
    return filtered, records


def connected_components(n_nodes: int, a, b) -> np.ndarray:
    """Label every node with the smallest node index in its component.

    Args:
        n_nodes: number of nodes, indexed ``0 .. n_nodes - 1``.
        a, b: integer arrays of edge endpoints; edge k joins ``a[k]`` and
            ``b[k]``.  Self-loops and repeated edges are allowed.

    Works in rounds over the edges whose ends still carry different labels.
    Every label is a root (a node labelled with itself), and every pointer
    goes to a smaller index.  Each round hooks the larger root of every such
    edge under the smallest root it meets across them, then shortcuts
    ``label = label[label]`` until every node points at its root again.
    It stops when every edge has one label at both ends.
    """
    labels = np.arange(n_nodes)
    a = np.asarray(a, dtype=np.intp)
    b = np.asarray(b, dtype=np.intp)
    while True:
        la, lb = labels[a], labels[b]
        split = la != lb
        if not split.any():
            return labels
        a, b, la, lb = a[split], b[split], la[split], lb[split]
        np.minimum.at(labels, np.maximum(la, lb), np.minimum(la, lb))
        jumped = labels[labels]
        while not np.array_equal(jumped, labels):
            labels, jumped = jumped, jumped[jumped]


def largest_connected_component(graph: ViewGraph) -> ViewGraph:
    """Subgraph induced by the largest vertex component (ties: smallest min id)."""
    if not graph.vertices:
        return ViewGraph((), {})
    vertices = sorted(graph.vertices)
    slot = {v: k for k, v in enumerate(vertices)}
    ends = np.array([(slot[i], slot[j]) for i, j in graph.edges],
                    dtype=np.intp).reshape(-1, 2)
    labels = connected_components(len(vertices), ends[:, 0], ends[:, 1])
    # labels are smallest members, so argmax's first maximum breaks ties
    members = labels == np.argmax(np.bincount(labels))
    # both ends of an edge share a component, so one end decides
    edges = {e: m for e, m in graph.edges.items() if members[slot[e[0]]]}
    return ViewGraph(tuple(compress(vertices, members)), edges)
