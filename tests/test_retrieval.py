import tracemalloc

import numpy as np
import pytest

from egoreg.errors import EmptyInput, TooFewDescriptors
from egoreg.retrieval import (
    KMEANS_MAX_ITERS,
    InvertedIndex,
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


def reference_vocabulary(x, k, seed):
    """(centers, whether a Lloyd step left a cluster empty), by a difference
    array per ++ pick and a masked mean per cluster: the plain form that
    `build_vocabulary` must give the same bits as."""
    x = np.asarray(x, dtype=np.float64)
    n = len(x)
    rng = np.random.default_rng(seed)
    centers = np.empty((k, x.shape[1]))
    centers[0] = x[int(rng.integers(n))]
    d2 = np.einsum("ij,ij->i", x - centers[0], x - centers[0])
    for i in range(1, k):
        total = float(d2.sum())
        j = int(np.argmax(d2)) if total <= 0.0 else int(rng.choice(n, p=d2 / total))
        centers[i] = x[j]
        diff = x - centers[i]
        d2 = np.minimum(d2, np.einsum("ij,ij->i", diff, diff))
    emptied = False
    for _ in range(KMEANS_MAX_ITERS):
        dists = np.maximum(np.einsum("ij,ij->i", x, x)[:, None] - 2.0 * x @ centers.T
                           + np.einsum("ij,ij->i", centers, centers)[None, :], 0.0)
        labels = np.argmin(dists, axis=1)
        new_centers = centers.copy()
        counts = np.bincount(labels, minlength=k)
        for c in range(k):
            if counts[c] > 0:
                new_centers[c] = x[labels == c].mean(axis=0)
            else:
                emptied = True
                new_centers[c] = x[int(np.argmax(dists[np.arange(n), labels]))]
        if np.array_equal(new_centers, centers):
            break
        centers = new_centers
    return centers, emptied


def unit_rows(rng, n, d=128):
    # float64 values: the cluster sums of float32 rows are exact in any order
    x = rng.random((n, d))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def assert_same_centers(x, k, seed):
    want, emptied = reference_vocabulary(x, k, seed)
    assert build_vocabulary(x, k, seed).centers.tobytes() == want.tobytes()
    return emptied


@pytest.mark.parametrize("seed", [401, 433])
def test_kmeans_gives_the_reference_bits_on_random_rows(seed):
    x = unit_rows(np.random.default_rng(seed), 300)
    for k in (300, 128, 16):
        assert_same_centers(x, k, seed)


def test_kmeans_gives_the_reference_bits_with_more_clusters_than_distinct_rows():
    rng = np.random.default_rng(5)
    x = np.repeat(unit_rows(rng, 40), 3, axis=0)
    rng.shuffle(x)
    for k, seed in ((60, 0), (120, 1), (45, 2)):
        # picks after the 40 distinct rows fall back to the farthest point,
        # and a Lloyd step leaves their clusters empty
        assert assert_same_centers(x, k, seed)


def test_kmeans_gives_the_reference_bits_on_all_zero_rows():
    assert_same_centers(np.zeros((50, 128)), 10, 0)


def test_kmeans_gives_the_reference_bits_when_a_lloyd_step_empties_a_cluster():
    # distinct rows 1e-9 apart: the ++ picks tell them apart, a Lloyd
    # assignment does not, so one of each pair of centres loses its rows
    base = np.random.default_rng(0).random((5, 16))
    x = np.vstack([base, base + 1e-9])
    for seed in range(4):
        assert assert_same_centers(x, 8, seed)


def test_kmeans_peak_memory_stays_near_the_input_size():
    # an (n, n) seeding matrix would take 3.2 GB here, a difference array
    # per pick or a scaled input per Lloyd step another copy of the input
    rng = np.random.default_rng(0)
    blobs = rng.normal(size=(8, 128)) * 10.0
    x = blobs[rng.integers(0, 8, 20_000)] + rng.normal(scale=0.1, size=(20_000, 128))
    tracemalloc.start()
    try:
        build_vocabulary(x, 8, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < x.nbytes / 2


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


def test_index_refuses_duplicate_image_ids():
    # shortlist would name the image twice, and its matches would be keyed
    # by the one id
    vocab = corner_vocab()
    descs = [np.array([[1.0, 1.0]]), np.array([[9.0, 9.0]]), np.array([[0.0, 9.0]])]
    with pytest.raises(ValueError, match=r"duplicate image ids \[4\]"):
        index_images([4, 7, 4], descs, vocab)
    with pytest.raises(ValueError, match=r"duplicate image ids \[4\]"):
        InvertedIndex([4, 4], np.zeros((2, 4)), np.zeros(4))


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


@pytest.mark.parametrize("top_k", [0, -1])
def test_shortlist_refuses_a_size_under_one(top_k):
    # as a slice bound, -1 would mean every image but the last
    vocab = corner_vocab()
    same = np.array([[0.1, 0.1], [9.9, 0.2]])
    index = index_images([5, 3, 8], [same, same, same], vocab)
    assert len(shortlist(same, vocab, index, top_k=1)) == 1
    with pytest.raises(ValueError, match=f"top_k must be at least 1, got {top_k}"):
        shortlist(same, vocab, index, top_k=top_k)
