"""Minimal five-point essential-matrix solver, scoring, and decomposition.

The solver follows the action-matrix recipe of Stewenius, Engels and Nister:
the four-dimensional null space of the epipolar constraints is combined as
``E = x*E1 + y*E2 + z*E3 + E4``; ``det E = 0`` and the trace constraint
``2 E E^T E - tr(E E^T) E = 0`` give ten cubics in ``(x, y, z)``;
Gauss-Jordan elimination expresses the ten cubic monomials in terms of the
ten lower-degree ones; and the eigenvectors of the resulting 10x10
multiplication-by-x operator read off all (up to ten) real solutions.

The ten cubics are a fixed cubic form in the null-space basis.  Writing
``E = sum_a u_a E_a`` with ``u = (x, y, z, 1)``, each cubic is a (4, 4, 4)
grid of coefficients of ``u_a u_b u_c``, built from the stacked basis by
tensor contractions (the determinant through the Levi-Civita tensor), and
one constant 64x20 matrix sums each grid onto the monomial columns.  Every
step works on a stack of samples, so the solver takes (S, N, 2|3) input and
RANSAC solves the samples of a whole chunk of pairs with one SVD, one
elimination solve and one eigen solve.  ``sampson_blocks_px`` scores blocks
of candidates, each against its own pair's points, laid out one after
another with no padding.  It is the one Sampson kernel: RANSAC scores its
candidates and refits with it, and the two-view refinement takes its
residuals and its prune's per-image corrections from it, one block per
pose.
``two_view_depths``, the one ray-intersection depth kernel, takes a stack
of poses, so ``decompose_essential`` tests the cheirality of a stack of
pairs with one SVD and one depth call per candidate rotation, and the
two-view refinement each of its depth tests with one call per chunk.

Conventions: correspondences are undistorted normalized camera coordinates,
the constraint is ``x_j^T E x_i = 0``, and a decomposed pair ``(R, t)`` maps
camera-i coordinates to camera-j coordinates via ``p_j = R p_i + t``.
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import CheiralityAmbiguous, DegenerateError, TooFewMatches
from .geometry import so3_hat, solve_each

# 20 monomials of degree <= 3 in (x, y, z): ten cubics first, then the
# quotient-ring basis [x^2, xy, xz, y^2, yz, z^2, x, y, z, 1]
_MONOMIALS = [
    (3, 0, 0), (2, 1, 0), (2, 0, 1), (1, 2, 0), (1, 1, 1),
    (1, 0, 2), (0, 3, 0), (0, 2, 1), (0, 1, 2), (0, 0, 3),
    (2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1),
    (0, 0, 2), (1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, 0),
]


def _grid_to_monomials() -> np.ndarray:
    """(64, 20) map from a cubic's (4, 4, 4) coefficient grid onto _MONOMIALS.

    Grid entry (a, b, c) multiplies ``u_a u_b u_c`` with ``u = (x, y, z, 1)``.
    """
    out = np.zeros((64, 20))
    for flat, factors in enumerate(itertools.product(range(4), repeat=3)):
        exponent = tuple(int(k) for k in np.bincount(factors, minlength=4)[:3])
        out[flat, _MONOMIALS.index(exponent)] = 1.0
    return out


_GRID_TO_MONOMIALS = _grid_to_monomials()
_LEVI_CIVITA = np.zeros((3, 3, 3))
_LEVI_CIVITA[[0, 1, 2], [1, 2, 0], [2, 0, 1]] = 1.0
_LEVI_CIVITA[[0, 2, 1], [2, 1, 0], [1, 0, 2]] = -1.0
# a sample whose epipolar rows have rank < 5 (e.g. a repeated
# correspondence) leaves a continuum of solutions, none of them determined
_RANK_TOL = 1e-12


def _homogeneous(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x[None]
    if x.shape[-1] == 3:
        return x
    return np.concatenate([x, np.ones(x.shape[:-1] + (1,))], axis=-1)


def _epipolar_rows(xi: np.ndarray, xj: np.ndarray) -> np.ndarray:
    """Rows of the linear system: coefficient of E (row-major) in x_j^T E x_i."""
    return np.einsum("...ni,...nj->...nij", xj, xi).reshape(xi.shape[:-1] + (9,))


def _constraint_matrix(basis: np.ndarray) -> np.ndarray:
    """(S, 10, 20) cubic constraints on ``E = x*B0 + y*B1 + z*B2 + B3``.

    ``basis`` is (S, 4, 3, 3).  Row 0 is ``det E``, rows 1..9 the entries of
    ``2 E E^T E - tr(E E^T) E`` row-major, over the columns _MONOMIALS.  Each
    cubic is built as its (4, 4, 4) grid over the basis weights; the
    contractions are batched matrix products, which cost a few microseconds
    a call where ``np.einsum`` path finding costs a few hundred.
    """
    s = len(basis)
    # eet[:, a, r, b, q] = (B_a B_b^T)[r, q]
    rows = basis.reshape(s, 12, 3)
    eet = (rows @ rows.transpose(0, 2, 1)).reshape(s, 4, 3, 4, 3)
    trace = np.trace(eet, axis1=2, axis2=4)
    g = 2.0 * eet - trace[:, :, None, :, None] * np.eye(3)[:, None, :]
    # (2 E E^T - tr(E E^T) I) E with rows (a, b, r) and columns (c, t)
    cubic = (g.transpose(0, 1, 3, 2, 4).reshape(s, 48, 3)
             @ basis.transpose(0, 2, 1, 3).reshape(s, 3, 12))
    cubic = cubic.reshape(s, 4, 4, 3, 4, 3).transpose(0, 3, 5, 1, 2, 4)
    # det E = e_0 . (e_1 x e_2) over the rows of E, the cross product
    # through the Levi-Civita tensor; cross[:, 4b + c] = B_b[1] x B_c[2]
    outer = basis[:, :, None, 1, :, None] * basis[:, None, :, 2, None, :]
    cross = outer.reshape(s, 16, 9) @ _LEVI_CIVITA.reshape(3, 9).T
    det = basis[:, :, 0] @ cross.transpose(0, 2, 1)
    grids = np.concatenate([det.reshape(s, 1, 64), cubic.reshape(s, 9, 64)], axis=1)
    return grids @ _GRID_TO_MONOMIALS


def five_point_essential(x_i: np.ndarray, x_j: np.ndarray) -> list:
    """All real essential matrices consistent with >= 5 normalized correspondences.

    Args:
        x_i: (N, 2|3) normalized coordinates in image i, or (S, N, 2|3) for a
            stack of S samples solved at once.
        x_j: matching coordinates in image j, same shape.

    Returns:
        List of 3x3 essential matrices, Frobenius-normalized, possibly empty;
        for stacked input, one such list per sample.  A degenerate sample
        (epipolar rows of rank < 5, or a singular elimination block) yields
        an empty list without affecting the others.

    Raises:
        TooFewMatches: fewer than 5 correspondences.
    """
    xi = _homogeneous(x_i)
    xj = _homogeneous(x_j)
    if xi.shape[-2] < 5 or xj.shape != xi.shape:
        raise TooFewMatches(f"need >= 5 matched correspondences, got "
                            f"{xi.shape[-2]}/{xj.shape[-2]}")
    if xi.ndim > 3:
        raise ValueError(f"expected (N, 2|3) or (S, N, 2|3) input, got {xi.shape}")
    stacked = xi.ndim == 3
    if not stacked:
        xi, xj = xi[None], xj[None]

    _, s, vt = np.linalg.svd(_epipolar_rows(xi, xj))
    # the fixed (weight-1) component must be the direction of smallest
    # singular value so overdetermined near-exact data stays solvable
    basis = vt[:, -4:].reshape(-1, 4, 3, 3)
    m = _constraint_matrix(basis)
    reduced, singular = solve_each(m[:, :, :10], m[:, :, 10:])
    valid = ((s[:, 4] > _RANK_TOL * s[:, 0]) & ~singular
             & np.all(np.isfinite(reduced), axis=(1, 2)))

    # transpose of the multiplication-by-x operator on the basis
    # [x^2,xy,xz,y^2,yz,z^2,x,y,z,1]: x*(first six basis monomials) are
    # cubics 0..5, reduced via the ideal
    action_t = np.zeros_like(reduced)
    action_t[:, :6] = np.where(valid[:, None, None], -reduced[:, :6], 0.0)
    action_t[:, 6, 0] = 1.0  # x * x = x^2
    action_t[:, 7, 1] = 1.0  # x * y = xy
    action_t[:, 8, 2] = 1.0  # x * z = xz
    action_t[:, 9, 6] = 1.0  # x * 1 = x

    eigvals, eigvecs = np.linalg.eig(action_t)
    w = eigvecs[:, 9]
    keep = (valid[:, None]
            & (np.abs(eigvals.imag) <= 1e-6 * (1.0 + np.abs(eigvals.real)))
            & (np.abs(w) >= 1e-12))
    xyz = (eigvecs[:, 6:9] / np.where(keep, w, 1.0)[:, None]).real
    weights = np.concatenate([xyz, np.ones_like(xyz[:, :1])], axis=1)
    e = np.einsum("sak,saij->skij", weights, basis)
    norm = np.linalg.norm(e, axis=(2, 3))
    keep &= norm >= 1e-12
    e /= np.where(keep, norm, 1.0)[..., None, None]
    solutions = [list(e[k][keep[k]]) for k in range(len(e))]
    return solutions if stacked else solutions[0]


def project_to_essential(e: np.ndarray) -> np.ndarray:
    """Closest matrix with singular values (s, s, 0), Frobenius-normalized."""
    u, s, vt = np.linalg.svd(e)
    sigma = (s[0] + s[1]) * 0.5
    e_proj = u @ np.diag([sigma, sigma, 0.0]) @ vt
    return e_proj / np.linalg.norm(e_proj)


def essential_from_rt(rotation: np.ndarray, translation: np.ndarray) -> np.ndarray:
    """Essential matrix of a relative pose (p_j = R p_i + t), unit Frobenius norm."""
    e = so3_hat(np.asarray(translation, dtype=float)) @ np.asarray(rotation, dtype=float)
    n = np.linalg.norm(e)
    if n < 1e-15:
        raise DegenerateError("zero translation gives a zero essential matrix")
    return e / n


def sampson_blocks_px(blocks: list) -> tuple:
    """Signed Sampson distances in pixels, and their epipolar terms, of
    blocks of candidates laid out one after another, with no padding
    between blocks: the one Sampson kernel of the package (Hartley and
    Zisserman, "Multiple View Geometry", 2nd ed., 11.4.3).

    Each block is (e (C, 3, 3), x_i (N, 3), x_j (N, 3), focal_scale), the
    points homogeneous; its C x N rows, candidate by candidate, follow the
    previous block's in the flat result.  A row's distance is
    ``focal_scale * x_j^T E x_i / den``, with den the norm of the first two
    entries of E x_i and of E^T x_j together.  A block's epipolar lines are
    two matrix products, and the rest is one pass over all rows, so the
    rows are those of one block at a time to the bit.

    Returns (distances (R,), (x_j^T E x_i (R,), E x_i (R, 3), E^T x_j
    (R, 3), den^2 (R,))) over the R rows.
    """
    sizes = [len(e) * len(xi) for e, xi, _, _ in blocks]
    n_rows = sum(sizes)
    exi = np.empty((n_rows, 3))    # line in image j for each x_i
    etxj = np.empty((n_rows, 3))   # line in image i for each x_j
    xj_rows = np.empty((n_rows, 3))
    scale = np.empty(n_rows)
    start = 0
    for (e, xi, xj, focal_scale), size in zip(blocks, sizes):
        end = start + size
        shape = (len(e), len(xi), 3)
        np.matmul(xi, e.transpose(0, 2, 1), out=exi[start:end].reshape(shape))
        np.matmul(xj, e, out=etxj[start:end].reshape(shape))
        xj_rows[start:end].reshape(shape)[...] = xj
        scale[start:end] = focal_scale
        start = end
    num = np.einsum("na,na->n", xj_rows, exi)
    den2 = np.maximum(exi[:, 0] ** 2 + exi[:, 1] ** 2
                      + etxj[:, 0] ** 2 + etxj[:, 1] ** 2, 1e-30)
    return scale * num / np.sqrt(den2), (num, exi, etxj, den2)


def two_view_depths(rotations: np.ndarray, translations: np.ndarray,
                    x_i: np.ndarray, x_j: np.ndarray,
                    owner: np.ndarray) -> tuple:
    """Least-squares ray-intersection depths of correspondences in both
    frames, each under its own pair's relative pose.

    Row n holds the rays ``x_i``, ``x_j`` (N, 2|3) of a correspondence under
    the pose ``owner[n]`` of ``rotations`` (P, 3, 3) and ``translations``
    (P, 3); one pose is a stack of one.  The ray ``d_i * x_i`` of frame i
    and the frame-i expression of the j-ray are intersected row by row, so
    a row's depths do not depend on the other rows or poses of the stack.
    Returns (depths_i, depths_j), NaN where the rays are near parallel.
    """
    rotations = np.asarray(rotations, dtype=float)
    xi = _homogeneous(x_i)
    # R^T x_j per row
    r2 = np.einsum("ni,nij->nj", _homogeneous(x_j), rotations[owner])
    # camera j centre in frame i, per pose
    c2 = -np.einsum("pji,pj->pi", rotations, translations)[owner]
    a11 = np.einsum("ni,ni->n", xi, xi)
    a12 = -np.einsum("ni,ni->n", xi, r2)
    a22 = np.einsum("ni,ni->n", r2, r2)
    b1 = np.einsum("ni,ni->n", xi, c2)
    b2 = -np.einsum("ni,ni->n", r2, c2)
    # the 2x2 normal equations of the intersection
    det = a11 * a22 - a12 * a12
    det = np.where(np.abs(det) < 1e-18, np.nan, det)
    return (b1 * a22 - a12 * b2) / det, (a11 * b2 - a12 * b1) / det


_W = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])


def decompose_essential(e: np.ndarray, x_i: list, x_j: list) -> list:
    """Relative poses of a stack of essential matrices via the cheirality test.

    Pair p's four candidates ``(R_a, t), (R_a, -t), (R_b, t), (R_b, -t)``
    come from the SVD of ``e[p]``; the one that puts a strict majority of
    its correspondences in front of both cameras wins.  All pairs share one
    SVD of the stack and, per candidate rotation, one
    :func:`two_view_depths` call over every pair's rays: the depths of
    ``-t`` are those of ``t`` negated, to the bit, so two rotations are
    tested per pair and the supports counted per pair.

    Args:
        e: (P, 3, 3) essential matrices (sign-irrelevant).
        x_i, x_j: per pair, its inlier correspondences in normalized
            coordinates, >= 1.

    Returns:
        One (rotation, unit translation) with ``p_j = R p_i + t`` per pair,
        or the ``CheiralityAmbiguous`` error of a pair where no candidate
        has a strict majority.

    Raises:
        TooFewMatches: a pair has no correspondence.
    """
    counts = np.array([len(x) for x in x_i], dtype=int)
    if len(counts) and counts.min() < 1:
        raise TooFewMatches("cheirality needs at least one correspondence")
    u, _, vt = np.linalg.svd(np.asarray(e, dtype=float))
    u = np.where((np.linalg.det(u) < 0)[:, None, None], -u, u)
    vt = np.where((np.linalg.det(vt) < 0)[:, None, None], -vt, vt)
    rotations = np.stack([u @ _W @ vt, u @ _W.T @ vt], axis=1)
    t = u[:, :, 2]

    owner = np.repeat(np.arange(len(counts)), counts)
    xi, xj = np.concatenate(x_i), np.concatenate(x_j)
    # support[p, 2r + s]: points in front of both views under rotation r
    # and translation (+t, -t)[s]
    support = np.zeros((len(counts), 4), dtype=int)
    for r in range(2):
        d1, d2 = two_view_depths(rotations[:, r], t, xi, xj, owner)
        finite = np.isfinite(d1) & np.isfinite(d2)
        for s, front in enumerate(((d1 > 0) & (d2 > 0), (d1 < 0) & (d2 < 0))):
            support[:, 2 * r + s] = np.bincount(owner[front & finite],
                                                minlength=len(counts))

    out = []
    for p, pair_support in enumerate(support):
        best = int(np.argmax(pair_support))
        if pair_support[best] == 0 or np.sum(
                pair_support == pair_support[best]) > 1:
            out.append(CheiralityAmbiguous(
                f"front-of-camera support {pair_support.tolist()} has no "
                f"strict majority"))
            continue
        sign = 1.0 if best % 2 == 0 else -1.0
        trans = sign * t[p]
        out.append((rotations[p, best // 2], trans / np.linalg.norm(trans)))
    return out
