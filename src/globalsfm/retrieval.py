"""Candidate image-pair selection from sequential order and descriptor similarity.

Pairs come from two sources: a sliding window over the capture order, and
nearest neighbors in a global-descriptor space.  Descriptors are read from a
file (or synthesized for virtual scenes); no network inference happens here.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, InputError

SOURCE_SEQUENTIAL = "sequential"
SOURCE_SIMILARITY = "similarity"


@dataclass(frozen=True)
class GlobalDescriptor:
    """L2-normalized global appearance descriptor of one image."""

    image_id: int
    vector: np.ndarray

    def __post_init__(self):
        norm = float(np.linalg.norm(self.vector))
        if abs(norm - 1.0) > 1e-6:
            raise InputError(
                f"descriptor for image {self.image_id} has norm {norm:.8f}, expected 1")


@dataclass(frozen=True)
class CandidatePairs:
    """Deduplicated candidate pairs, each with a score and a source tag.

    Keys are ``(i, j)`` with ``i < j``.  Scores live in [-1, 1]; sequential
    pairs carry score 1.0 by convention.
    """

    scores: dict = field(default_factory=dict)
    sources: dict = field(default_factory=dict)

    def pairs(self) -> list:
        """Sorted list of (i, j) keys."""
        return sorted(self.scores.keys())

    def __len__(self) -> int:
        return len(self.scores)

    def __contains__(self, pair) -> bool:
        return tuple(pair) in self.scores


def sequential_pairs(n_images: int, lookahead: int) -> CandidatePairs:
    """All pairs (i, j) with 0 < j - i <= lookahead.

    Args:
        n_images: number of images, >= 2.
        lookahead: window size in capture order, >= 1.
    """
    if n_images < 2:
        raise InputError("need at least 2 images")
    if lookahead < 1:
        raise InputError("lookahead must be >= 1")
    scores = {}
    sources = {}
    for i in range(n_images):
        for j in range(i + 1, min(i + lookahead + 1, n_images)):
            scores[(i, j)] = 1.0
            sources[(i, j)] = SOURCE_SEQUENTIAL
    return CandidatePairs(scores, sources)


def similarity_matrix(descriptors: list) -> np.ndarray:
    """Upper-triangular dot-product similarity of global descriptors.

    einsum with optimize=False sums every entry in a fixed order, so the
    matrix does not depend on the BLAS build or its thread count (BLAS
    matmul does).  Rows follow list order.

    Args:
        descriptors: GlobalDescriptor list, one per image.

    Returns:
        (n, n) float64 matrix with entries only at i < j; rest is zero.

    Raises:
        DimensionMismatch: descriptor lengths differ.
    """
    if not descriptors:
        return np.zeros((0, 0))
    dims = {len(np.asarray(d.vector)) for d in descriptors}
    if len(dims) != 1:
        raise DimensionMismatch(f"descriptor dimensions differ: {sorted(dims)}")
    mat = np.array([np.asarray(d.vector, dtype=np.float64) for d in descriptors])
    return np.triu(np.einsum("id,jd->ij", mat, mat, optimize=False), k=1)


def select_similarity_pairs(sim: np.ndarray, k: int, min_score: float) -> CandidatePairs:
    """Top-k descriptor neighbors per image, post-filtered by minimum score.

    The score threshold is applied after top-k truncation.  Ties in score are
    broken toward the lower partner index.

    Args:
        sim: (n, n) matrix with similarities at i < j  (output of
            :func:`similarity_matrix`).
        k: neighbors to keep per image.
        min_score: pairs scoring below this are dropped.
    """
    n = sim.shape[0]
    upper = np.arange(n)[:, None] < np.arange(n)[None, :]
    full = np.where(upper, sim, sim.T)
    neg = -full
    np.fill_diagonal(neg, np.inf)
    # a stable sort keeps equal scores in partner order; the diagonal sorts
    # last, so the first n - 1 columns are the partners of each row
    order = np.argsort(neg, axis=1, kind="stable")[:, :n - 1][:, :k]
    scores = {}
    sources = {}
    for i in range(n):
        for j in order[i].tolist():
            if full[i, j] < min_score:
                continue
            key = (min(i, j), max(i, j))
            if key not in scores:
                scores[key] = full[i, j]
                sources[key] = SOURCE_SIMILARITY
    return CandidatePairs(scores, sources)


def retrieval_k(n_images: int, small_k: int = 5, large_k: int = 15,
                threshold: int = 500) -> int:
    """Per-image neighbor count: small_k below the image-count threshold, else large_k."""
    return small_k if n_images < threshold else large_k


def merge_candidates(a: CandidatePairs, b: CandidatePairs) -> CandidatePairs:
    """Deduplicated union.  On collision the higher score wins; a sequential
    tag survives a similarity tag."""
    scores = dict(a.scores)
    sources = dict(a.sources)
    for key, s in b.scores.items():
        if key not in scores:
            scores[key] = s
            sources[key] = b.sources[key]
        else:
            scores[key] = max(scores[key], s)
            if b.sources[key] == SOURCE_SEQUENTIAL:
                sources[key] = SOURCE_SEQUENTIAL
    return CandidatePairs(scores, sources)
