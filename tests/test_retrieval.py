import numpy as np
import pytest

from egoreg.errors import EmptyInput, TooFewDescriptors
from egoreg.retrieval import (
    Vocabulary,
    build_vocabulary,
    index_images,
    shortlist,
)


def corner_vocab():
    # four well-separated words in 2D
    return Vocabulary(np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0], [10.0, 10.0]]))


# -------------------------------------------------------------- vocabulary


def test_assign_picks_nearest_center():
    vocab = corner_vocab()
    d = np.array([[1.0, 1.0], [9.0, 0.5], [0.5, 9.5], [8.0, 8.0]])
    assert vocab.assign(d).tolist() == [0, 1, 2, 3]


def test_assign_tie_prefers_lowest_index():
    vocab = Vocabulary(np.array([[0.0, 0.0], [2.0, 0.0]]))
    assert vocab.assign(np.array([[1.0, 0.0]])).tolist() == [0]


def test_assign_empty_input():
    assert corner_vocab().assign(np.zeros((0, 2))).shape == (0,)


def test_vocabulary_needs_two_centers():
    with pytest.raises(ValueError):
        Vocabulary(np.zeros((1, 4)))


def test_kmeans_recovers_separated_clusters():
    rng = np.random.default_rng(0)
    centers = np.array([[0.0, 0.0], [50.0, 0.0], [0.0, 50.0]])
    pts = np.concatenate([c + rng.normal(0, 0.5, size=(40, 2)) for c in centers])
    vocab = build_vocabulary(pts, k=3, seed=1)
    # every true center has a learned center within the noise scale
    for c in centers:
        assert np.linalg.norm(vocab.centers - c, axis=1).min() < 1.0


def test_kmeans_deterministic_for_fixed_seed():
    rng = np.random.default_rng(3)
    pts = rng.normal(size=(60, 4))
    a = build_vocabulary(pts, k=5, seed=7)
    b = build_vocabulary(pts, k=5, seed=7)
    assert np.array_equal(a.centers, b.centers)


def test_kmeans_rejects_too_few_points():
    with pytest.raises(TooFewDescriptors):
        build_vocabulary(np.zeros((3, 2)), k=4)
    with pytest.raises(ValueError):
        build_vocabulary(np.zeros((10, 2)), k=1)


# ---------------------------------------------------------------- indexing


def test_tf_idf_vectors_against_hand_computation():
    vocab = corner_vocab()
    # image 0 uses words {0, 1}, image 1 uses {0, 2}, image 2 uses {0}
    per_image = [
        np.array([[0.0, 0.0], [10.0, 0.0]]),
        np.array([[0.0, 0.0], [0.0, 10.0]]),
        np.array([[0.5, 0.5]]),
    ]
    index = index_images([10, 11, 12], per_image, vocab)
    n = 3
    # word 0 in all images, words 1 and 2 in one each, word 3 nowhere
    idf = np.maximum(np.log(n / (1.0 + np.array([3.0, 1.0, 1.0, 0.0]))), 0.0)
    assert np.allclose(index.idf, idf)
    tf0 = np.array([0.5, 0.5, 0.0, 0.0])
    v0 = tf0 * idf
    assert np.allclose(index.vectors[0], v0 / np.linalg.norm(v0))
    # image 2 holds only word 0 whose idf is 0, so its row stays zero
    assert np.allclose(index.vectors[2], 0.0)


def test_index_rows_unit_or_zero():
    rng = np.random.default_rng(5)
    vocab = build_vocabulary(rng.normal(size=(40, 3)), k=6, seed=0)
    per_image = [rng.normal(size=(15, 3)) for _ in range(4)]
    index = index_images(list(range(4)), per_image, vocab)
    norms = np.linalg.norm(index.vectors, axis=1)
    assert np.all((np.abs(norms - 1.0) < 1e-12) | (norms == 0.0))


def test_index_rejects_empty_and_mismatched():
    vocab = corner_vocab()
    with pytest.raises(EmptyInput):
        index_images([], [], vocab)
    with pytest.raises(EmptyInput):
        index_images([1, 2], [np.zeros((2, 2))], vocab)


# --------------------------------------------------------------- shortlist


def test_shortlist_ranks_the_matching_image_first():
    vocab = corner_vocab()
    # words common to most images carry no idf weight, so the query's rare
    # words {2, 3} should pull up the one image that shares them
    per_image = [
        np.array([[0.1, 0.2], [9.8, 0.1]]),               # words 0,1
        np.array([[0.0, 0.3], [10.2, 0.2]]),              # words 0,1
        np.array([[0.2, 0.0], [9.9, 0.4]]),               # words 0,1
        np.array([[0.2, 9.9], [10.1, 9.8], [0.3, 10.2]]),  # words 2,3
    ]
    index = index_images([0, 1, 2, 3], per_image, vocab)
    hits = shortlist(np.array([[0.0, 9.8], [9.9, 10.0]]), vocab, index, top_k=4)
    assert hits[0][0] == 3
    assert hits[0][1] > hits[1][1]


def test_shortlist_caps_at_index_size_and_breaks_ties_by_id():
    vocab = corner_vocab()
    same = np.array([[0.1, 0.1], [9.9, 0.2]])
    index = index_images([5, 3], [same, same], vocab)
    hits = shortlist(same, vocab, index, top_k=10)
    assert len(hits) == 2
    # identical vectors score identically; ascending id wins the tie
    assert [h[0] for h in hits] == [3, 5]
    assert hits[0][1] == pytest.approx(hits[1][1])


def test_shortlist_scores_are_cosine_similarities():
    vocab = corner_vocab()
    per_image = [np.array([[0.0, 0.1]]), np.array([[9.9, 0.0], [0.1, 9.9]])]
    index = index_images([0, 1], per_image, vocab)
    hits = shortlist(np.array([[9.8, 0.3]]), vocab, index, top_k=2)
    for _, score in hits:
        assert -1.0 - 1e-12 <= score <= 1.0 + 1e-12


def test_shortlist_deterministic():
    rng = np.random.default_rng(11)
    vocab = build_vocabulary(rng.normal(size=(50, 4)), k=8, seed=2)
    per_image = [rng.normal(size=(20, 4)) for _ in range(6)]
    index = index_images(list(range(6)), per_image, vocab)
    q = rng.normal(size=(12, 4))
    assert shortlist(q, vocab, index) == shortlist(q, vocab, index)
