"""Candidate image-pair selection from sequential order and descriptor similarity.

Pairs come from two sources: a sliding window over the capture order, and
nearest neighbors in a global-descriptor space.  Descriptors are read from a
file (or synthesized for virtual scenes); no network inference happens here.
Every selection returns a sorted list of ``(i, j)`` tuples with ``i < j``.
"""

from __future__ import annotations

import numpy as np

from .errors import InputError


def sequential_pairs(n_images: int, lookahead: int) -> list:
    """Sorted pairs (i, j) with 0 < j - i <= lookahead.

    Args:
        n_images: number of images, >= 2.
        lookahead: window size in capture order, >= 1.
    """
    if n_images < 2:
        raise InputError("need at least 2 images")
    if lookahead < 1:
        raise InputError("lookahead must be >= 1")
    return [(i, j) for i in range(n_images)
            for j in range(i + 1, min(i + lookahead + 1, n_images))]


def similarity_matrix(descriptors: np.ndarray) -> np.ndarray:
    """Dot-product similarity of global descriptors.

    einsum with optimize=False sums every entry in a fixed order, so the
    matrix does not depend on the BLAS build or its thread count (BLAS
    matmul does).  Entries (i, j) and (j, i) sum the same products in the
    same order, so the matrix is exactly symmetric.

    Args:
        descriptors: (n, D) array, row k the unit descriptor of image k.

    Returns:
        (n, n) float64 matrix.
    """
    mat = np.asarray(descriptors, dtype=np.float64)
    return np.einsum("id,jd->ij", mat, mat, optimize=False)


def select_similarity_pairs(sim: np.ndarray, k: int, min_score: float) -> list:
    """Sorted pairs of each image's top-k descriptor neighbors that score at
    least ``min_score``.

    The score threshold is applied after top-k truncation.  Ties in score are
    broken toward the lower partner index.

    Args:
        sim: (n, n) symmetric similarity matrix (output of
            :func:`similarity_matrix`); its diagonal is ignored.
        k: neighbors to keep per image.
        min_score: pairs scoring below this are dropped.
    """
    n = sim.shape[0]
    neg = -sim
    np.fill_diagonal(neg, np.inf)
    # a stable sort keeps equal scores in partner order; the diagonal sorts
    # last, so the first n - 1 columns are the partners of each row
    order = np.argsort(neg, axis=1, kind="stable")[:, :n - 1][:, :k]
    keep = np.take_along_axis(sim, order, axis=1) >= min_score
    rows = np.broadcast_to(np.arange(n)[:, None], order.shape)[keep]
    pairs = np.sort(np.column_stack([rows, order[keep]]), axis=1)
    return [tuple(p) for p in np.unique(pairs, axis=0).tolist()]


def retrieval_k(n_images: int, small_k: int = 5, large_k: int = 15,
                threshold: int = 500) -> int:
    """Per-image neighbor count: small_k below the image-count threshold, else large_k."""
    return small_k if n_images < threshold else large_k


def merge_candidates(a: list, b: list) -> list:
    """Sorted, deduplicated union of two pair lists."""
    return sorted(set(a) | set(b))
