"""Tests for sequential / similarity-based candidate pair selection."""

import numpy as np
import pytest

from globalsfm.errors import InputError
from globalsfm.retrieval import (
    merge_candidates,
    retrieval_k,
    select_similarity_pairs,
    sequential_pairs,
    similarity_matrix,
)


def reference_similarity_pairs(sim, k, min_score):
    """Per-image sort of (negated score, partner) tuples: the reference the
    vectorized selection must reproduce.  Returns pair -> score."""
    n = sim.shape[0]
    scores = {}
    for i in range(n):
        partners = sorted((-sim[i, j], j) for j in range(n) if j != i)
        for neg_s, j in partners[:k]:
            key = (min(i, j), max(i, j))
            if -neg_s >= min_score and key not in scores:
                scores[key] = -neg_s
    return scores


def random_descriptors(rng, n, dim=32):
    vecs = rng.normal(size=(n, dim))
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    return vecs


class TestSequentialPairs:
    def test_small_exhaustive(self):
        assert sequential_pairs(3, 10) == [(0, 1), (0, 2), (1, 2)]

    def test_lookahead_one(self):
        assert sequential_pairs(5, 1) == [(0, 1), (1, 2), (2, 3), (3, 4)]

    def test_count_100_images_lookahead_10(self):
        # sum over offsets d = 1..10 of (100 - d)
        expected = sum(100 - d for d in range(1, 11))
        assert expected == 945
        assert len(sequential_pairs(100, 10)) == 945

    def test_all_offsets_within_lookahead(self):
        cp = sequential_pairs(40, 7)
        assert all(0 < j - i <= 7 for i, j in cp)

    def test_invalid_inputs(self):
        with pytest.raises(InputError):
            sequential_pairs(1, 5)
        with pytest.raises(InputError):
            sequential_pairs(10, 0)


class TestBlockedSimilarity:
    """:func:`similarity_matrix`, the one similarity computation."""

    def test_identical_descriptors_score_one(self):
        descs = np.zeros((2, 16))
        descs[:, 0] = 1.0
        sim = similarity_matrix(descs)
        assert sim[0, 1] == pytest.approx(1.0)

    def test_orthogonal_descriptors_score_zero(self):
        sim = similarity_matrix(np.eye(2, 8))
        assert sim[0, 1] == 0.0

    def test_matches_plain_dot_products(self):
        rng = np.random.default_rng(103)
        descs = random_descriptors(rng, 30, dim=16)
        sim = similarity_matrix(descs)
        for i in range(30):
            for j in range(i + 1, 30):
                expected = float(np.dot(descs[i], descs[j]))
                assert sim[i, j] == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("n,dim", [(10, 32), (23, 7), (40, 4096)])
    def test_exactly_symmetric(self, n, dim):
        # selection reads (j, i) for pairs below the diagonal, so the pairs
        # depend on every entry equalling its transpose bit for bit
        rng = np.random.default_rng(107)
        sim = similarity_matrix(random_descriptors(rng, n, dim))
        assert np.array_equal(sim, sim.T)


class TestSelectSimilarityPairs:
    def test_all_below_threshold_empty(self):
        sim = np.zeros((4, 4))
        sim[0, 1] = 0.2
        sim[1, 2] = 0.29
        cp = select_similarity_pairs(sim + sim.T, k=3, min_score=0.3)
        assert len(cp) == 0

    def test_hand_enumerated_top1(self):
        # image 0 picks 1 (0.9); image 1 picks 0 (0.9); image 2 picks 0 (0.5)
        sim = np.zeros((3, 3))
        sim[0, 1] = 0.9
        sim[0, 2] = 0.5
        sim[1, 2] = 0.2
        cp = select_similarity_pairs(sim + sim.T, k=1, min_score=0.3)
        assert cp == [(0, 1), (0, 2)]

    def test_complete_graph_when_k_large(self):
        rng = np.random.default_rng(109)
        sim = np.zeros((6, 6))
        iu = np.triu_indices(6, 1)
        sim[iu] = rng.uniform(-1, 1, len(iu[0]))
        cp = select_similarity_pairs(sim + sim.T, k=5, min_score=-1.0)
        assert len(cp) == 15

    def test_threshold_applied_after_topk(self):
        # image 0's top-2 are 1 (0.8) and 2 (0.25); 0.25 < 0.3 drops it even
        # though 3 (0.2) would also fail; pair (0,2) must not appear
        sim = np.zeros((4, 4))
        sim[0, 1] = 0.8
        sim[0, 2] = 0.25
        sim[0, 3] = 0.2
        cp = select_similarity_pairs(sim + sim.T, k=2, min_score=0.3)
        assert (0, 2) not in cp and (0, 3) not in cp
        assert (0, 1) in cp

    def test_ties_break_to_lower_index(self):
        sim = np.zeros((4, 4))
        sim[0, 1] = 0.5
        sim[0, 2] = 0.5
        sim[0, 3] = 0.5
        cp = select_similarity_pairs(sim + sim.T, k=1, min_score=0.0)
        assert (0, 1) in cp

    def test_every_image_with_partner_contributes_best(self):
        rng = np.random.default_rng(113)
        n = 12
        sim = np.zeros((n, n))
        iu = np.triu_indices(n, 1)
        sim[iu] = rng.uniform(0.0, 1.0, len(iu[0]))
        full = sim + sim.T
        cp = select_similarity_pairs(full, k=3, min_score=0.3)
        for i in range(n):
            best = int(np.argmax(full[i] - np.eye(n)[i] * 10))
            if full[i, best] >= 0.3:
                assert (min(i, best), max(i, best)) in cp

    def test_scores_subset_above_threshold(self):
        rng = np.random.default_rng(127)
        n = 15
        sim = np.zeros((n, n))
        iu = np.triu_indices(n, 1)
        sim[iu] = rng.uniform(-1.0, 1.0, len(iu[0]))
        cp = select_similarity_pairs(sim + sim.T, k=4, min_score=0.3)
        assert all(sim[i, j] >= 0.3 for i, j in cp)
        assert len(cp) <= n * (n - 1) // 2

    def test_matches_reference_on_quantized_tying_scores(self):
        rng = np.random.default_rng(400)
        for n in rng.integers(2, 25, size=6).tolist():
            sim = np.zeros((n, n))
            iu = np.triu_indices(n, 1)
            sim[iu] = rng.integers(-4, 5, len(iu[0])) / 4.0  # many exact ties
            full = sim + sim.T
            for k in (1, 3, n - 1, n + 2):
                for min_score in (-1.0, 0.0, 0.5):
                    cp = select_similarity_pairs(full, k=k,
                                                 min_score=min_score)
                    expected = reference_similarity_pairs(full, k, min_score)
                    assert cp == sorted(expected)


class TestRetrievalK:
    def test_switch_at_threshold(self):
        assert retrieval_k(499) == 5
        assert retrieval_k(500) == 15
        assert retrieval_k(2000) == 15


class TestMergeCandidates:
    def test_union_deduplicates(self):
        seq = sequential_pairs(6, 2)
        sim = np.zeros((6, 6))
        sim[0, 1] = 0.9  # already sequential
        sim[0, 5] = 0.8  # new
        simp = select_similarity_pairs(sim + sim.T, k=2, min_score=0.3)
        merged = merge_candidates(seq, simp)
        assert len(merged) == len(seq) + 1
        assert merged == sorted(seq + [(0, 5)])

    def test_total_bounded_by_complete_graph(self):
        rng = np.random.default_rng(131)
        n = 9
        sim = np.zeros((n, n))
        iu = np.triu_indices(n, 1)
        sim[iu] = rng.uniform(0.3, 1.0, len(iu[0]))
        merged = merge_candidates(sequential_pairs(n, 8),
                                  select_similarity_pairs(sim + sim.T, k=8,
                                                          min_score=-1.0))
        assert len(merged) == n * (n - 1) // 2
