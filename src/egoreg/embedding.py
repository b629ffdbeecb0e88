"""Joint spectral embedding of query and model keypoints.

Query keypoints (with descriptors and contexts) and model keypoints are
placed in one weighted graph: cross edges carry the elementwise product of
a descriptor kernel and a context kernel, and, when a spatial kernel is
given, query-query edges carry the product of a spatial proximity kernel
and a temporal stability kernel. Model-model edges are absent. Embedding
coordinates are the bottom non-trivial generalized eigenvectors of the
graph Laplacian, normalized so Z^T D Z = I; squared embedded distances then
reproduce the weighted-neighborhood objective sum_ij ||z_i - z_j||^2 W_ij,
whose optimum equals twice the sum of the selected eigenvalues.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInput, DimensionMismatch, RaggedTracks, ShapeMismatch

EIGENVALUE_ZERO_TOL = 1e-8
MEDIAN_MAX_PAIRS = 10_000


@dataclass(frozen=True, eq=False)
class AffinityMatrix:
    """Symmetric joint affinity over p query and q model keypoints."""

    W: np.ndarray
    p: int
    q: int

    def __post_init__(self):
        w = np.asarray(self.W, dtype=np.float64)
        n = self.p + self.q
        if w.shape != (n, n):
            raise ShapeMismatch(f"affinity must be {n}x{n}, got {w.shape}")
        if not np.array_equal(w, w.T):
            raise ValueError("affinity must be exactly symmetric")
        if w.size and (w.min() < 0.0 or w.max() > 1.0):
            raise ValueError("affinity entries must lie in [0, 1]")
        if np.any(w[self.p:, self.p:] != 0.0):
            raise ValueError("model-model block must be zero")
        object.__setattr__(self, "W", w)


@dataclass(frozen=True, eq=False)
class EmbeddedSet:
    """Joint embedding coordinates for query and model keypoints.

    `truncated` flags that fewer non-trivial eigenvectors existed than were
    requested; `zero_degree` marks rows with no graph connection, which
    embed at the origin and should not be matched.
    """

    query: np.ndarray
    model: np.ndarray
    eigenvalues: np.ndarray
    truncated: bool
    zero_degree: np.ndarray


def pairwise_sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """||a_i - b_j||^2 in the norms-plus-dot form, clipped at zero."""
    a2 = np.einsum("ij,ij->i", a, a)
    b2 = np.einsum("ij,ij->i", b, b)
    d2 = a2[:, None] + b2[None, :] - 2.0 * (a @ b.T)
    return np.maximum(d2, 0.0)


def _median_bandwidth(d2: np.ndarray, same: bool, max_pairs: int = MEDIAN_MAX_PAIRS) -> float:
    """Median-heuristic bandwidth read off a squared-distance matrix.

    `same` means d2 compares a set with itself: the median then runs over
    unordered distinct pairs (the upper triangle), otherwise over the whole
    cross product. Pairs are numbered row-major; above `max_pairs` of them,
    `max_pairs` numbers are drawn uniformly with a generator seeded 0. When
    the median is zero but positive distances exist, the smallest positive
    squared distance is used instead; if every distance is zero the input
    is degenerate and DegenerateInput is raised.
    """
    vals = d2[np.triu_indices(d2.shape[0], k=1)] if same else d2.ravel()
    if vals.size < 1:
        raise DegenerateInput("no pairs to measure")
    if vals.size > max_pairs:
        vals = vals[np.random.default_rng(0).integers(0, vals.size, size=max_pairs)]
    med = float(np.median(vals))
    if med <= 0.0:
        pos = vals[vals > 0.0]
        if pos.size == 0:
            raise DegenerateInput("all sampled pairs coincide")
        med = float(pos.min())
    return float(np.sqrt(med))


def gaussian_kernel(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """exp(-||a_i - b_j||^2 / sigma^2), shape (len(a), len(b)), float64.

    One pairwise product per call, in the inputs' common precision
    (`np.result_type(a, b, np.float32)`); float32 squared distances are
    promoted to float64 before the bandwidth and the exp. Float32 callers
    should centre both sets on one mean first: distances do not change,
    and the cancellation error drops. The bandwidth sigma is the median
    heuristic, read off the kernel's own squared distances, at the pairs
    `median_sigma(a, b)` reads (bitwise equal for float64 inputs); when
    every squared distance is exactly zero the points coincide and the
    kernel is all ones.
    """
    # decided before conversion, which makes a new array from a list, a
    # tuple or a 1-D vector on every call
    same = b is a
    a = np.asarray(a)
    b = a if same else np.asarray(b)
    dt = np.result_type(a, b, np.float32)
    a = np.atleast_2d(np.asarray(a, dtype=dt))
    b = a if same else np.atleast_2d(np.asarray(b, dtype=dt))
    if a.shape[1] != b.shape[1]:
        raise DimensionMismatch(f"vector lengths differ: {a.shape[1]} vs {b.shape[1]}")
    d2 = pairwise_sq_dists(a, b).astype(np.float64, copy=False)
    if d2.size and not d2.any():
        return np.ones_like(d2)
    sigma = _median_bandwidth(d2, same)
    return np.exp(-d2 / (sigma * sigma))


def median_sigma(a: np.ndarray, b: np.ndarray | None = None) -> float:
    """Bandwidth from the median of squared pairwise distances.

    With one argument (or b is a) the median runs over unordered distinct
    pairs; with two sets it runs over the cross product (see
    `_median_bandwidth`). The kernels compute the same value from their
    own distances, so the pipeline never calls this.
    """
    same = b is None or b is a
    a = np.atleast_2d(np.asarray(a, dtype=np.float64))
    bb = a if same else np.atleast_2d(np.asarray(b, dtype=np.float64))
    if a.shape[1] != bb.shape[1]:
        raise DimensionMismatch(f"vector lengths differ: {a.shape[1]} vs {bb.shape[1]}")
    return _median_bandwidth(pairwise_sq_dists(a, bb), same)


def _symmetrize_exact(m: np.ndarray) -> np.ndarray:
    return np.triu(m) + np.triu(m, 1).T


def spatial_similarity(pos: np.ndarray) -> np.ndarray:
    """`gaussian_kernel` on (p, 2) pixel positions, exactly symmetric with a
    unit diagonal; one point, or points that all coincide, give all ones."""
    pos = np.atleast_2d(np.asarray(pos, dtype=np.float64))
    s = _symmetrize_exact(gaussian_kernel(pos, pos))
    np.fill_diagonal(s, 1.0)
    return s


def temporal_distance_profile(track_pos: np.ndarray) -> np.ndarray:
    """Accumulated squared change of pairwise distances over past frames.

    track_pos is (p, K+1, 2), chronological, last entry = current frame.
    Entry (i, j) sums over the K past frames the squared difference between
    the pair's distance then and its distance now. Zero for K = 0.
    """
    tp = np.asarray(track_pos, dtype=np.float64)
    if tp.ndim != 3 or tp.shape[2] != 2:
        raise RaggedTracks("track positions must be a (p, K+1, 2) array")
    p, length, _ = tp.shape
    cur = tp[:, -1, :]
    dcur = np.sqrt(pairwise_sq_dists(cur, cur))
    total = np.zeros((p, p), dtype=np.float64)
    for k in range(length - 1):
        past = tp[:, k, :]
        dpast = np.sqrt(pairwise_sq_dists(past, past))
        total += (dpast - dcur) ** 2
    return _symmetrize_exact(total)


def temporal_similarity(track_pos: np.ndarray) -> np.ndarray:
    """Kernel on temporal stability of pairwise distances.

    Pairs whose mutual distance stays constant over the track get weight 1;
    pairs whose distance fluctuates decay with exp(-profile / sigma^2).
    sigma is the median heuristic over every pair's profile. A profile
    that is identically zero (static motion or no past frames) yields the
    all-ones matrix.
    """
    prof = temporal_distance_profile(track_pos)
    if not np.any(prof > 0.0):
        return np.ones_like(prof)
    sigma = _median_bandwidth(prof, True, max_pairs=prof.size)
    g = np.exp(-prof / (sigma * sigma))
    g = _symmetrize_exact(g)
    np.fill_diagonal(g, 1.0)
    return g


def assemble_affinity(P: np.ndarray, R: np.ndarray,
                      S: np.ndarray | None = None, G: np.ndarray | None = None) -> AffinityMatrix:
    """Block affinity: cross edges P*R, query-query edges S*G, no model edges.

    Without S the query-query block is zero; without G it is S as it is,
    and G needs S.
    """
    P = np.asarray(P, dtype=np.float64)
    R = np.asarray(R, dtype=np.float64)
    if P.shape != R.shape:
        raise ShapeMismatch(f"P and R must agree in shape: {P.shape} vs {R.shape}")
    p, q = P.shape
    cross = P * R
    w = np.zeros((p + q, p + q), dtype=np.float64)
    w[:p, p:] = cross
    w[p:, :p] = cross.T
    if S is not None:
        S = np.asarray(S, dtype=np.float64)
        if S.shape != (p, p):
            raise ShapeMismatch(f"S must be {p}x{p}, got {S.shape}")
        if G is not None:
            G = np.asarray(G, dtype=np.float64)
            if G.shape != (p, p):
                raise ShapeMismatch(f"G must be {p}x{p}, got {G.shape}")
            S = S * G
        w[:p, :p] = S
    elif G is not None:
        raise ValueError("a temporal kernel needs a spatial kernel")
    return AffinityMatrix(w, p, q)


def _normalized_laplacian(w: np.ndarray, nz: np.ndarray, inv_sqrt: np.ndarray) -> np.ndarray:
    """I - D^-1/2 W D^-1/2 over the rows `nz`, made exactly symmetric.

    `inv_sqrt` holds the rows' D^-1/2. Built in place in the one (m, m)
    copy that `w[np.ix_(nz, nz)]` makes, bitwise equal to (L + L.T) / 2
    with L = eye(m) - w[np.ix_(nz, nz)] * inv_sqrt[:, None] *
    inv_sqrt[None, :]; 0 - x rather than -x keeps its zeros positive.
    """
    lap = w[np.ix_(nz, nz)]
    lap *= inv_sqrt[:, None]
    lap *= inv_sqrt[None, :]
    diag = 1.0 - lap.diagonal()
    np.subtract(0.0, lap, out=lap)
    np.fill_diagonal(lap, diag)
    lap += lap.T
    lap /= 2.0
    return lap


def solve_embedding(affinity: AffinityMatrix, dim: int) -> EmbeddedSet:
    """Bottom non-trivial generalized eigenvectors of the graph Laplacian.

    Solves L z = lambda D z (L = D - W) through the symmetric normalized
    form, returning up to `dim` eigenvectors with eigenvalues above the
    zero threshold, scaled so Z^T D Z = I. Eigenvector signs are fixed by
    making each vector's largest-magnitude entry positive. Zero-degree rows
    are excluded from the solve, flagged, and embed at the origin. When the
    graph has fewer non-trivial eigenpairs than requested, all available
    ones are returned and `truncated` is set.
    """
    if dim < 1:
        raise ValueError("embedding dimension must be at least 1")
    w = affinity.W
    n = w.shape[0]
    deg = w.sum(axis=1)
    nz = deg > 0.0
    m = int(nz.sum())
    if m < 2:
        raise DegenerateInput("graph has fewer than two connected vertices")

    inv_sqrt = 1.0 / np.sqrt(deg[nz])
    evals, evecs = np.linalg.eigh(_normalized_laplacian(w, nz, inv_sqrt))

    thresh = EIGENVALUE_ZERO_TOL * max(1.0, float(evals[-1]))
    keep = np.nonzero(evals > thresh)[0]
    truncated = keep.size < dim
    sel = keep[:dim]

    z = np.zeros((n, sel.size), dtype=np.float64)
    z[nz] = evecs[:, sel] * inv_sqrt[:, None]
    for j in range(z.shape[1]):
        col = z[:, j]
        if col[np.argmax(np.abs(col))] < 0.0:
            z[:, j] = -col

    p = affinity.p
    return EmbeddedSet(
        query=z[:p],
        model=z[p:],
        eigenvalues=evals[sel].copy(),
        truncated=truncated,
        zero_degree=~nz,
    )
