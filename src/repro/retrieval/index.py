"""Vector indexes — the retrieval substrate for the RAG pipeline.

The paper motivates its latency focus with RAG (Section II-A): retrieval
produces context, generation consumes it, and per-user latency (TTFT) is what
batching trades away. This module provides the retrieval half as a real,
executable substrate: a brute-force index and an IVF (inverted-file) index
with k-means coarse quantization, both NumPy-based.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class SearchResult:
    """Top-k neighbors for one query."""

    ids: np.ndarray      # (k,) int64
    scores: np.ndarray   # (k,) float32, higher is more similar

    def __len__(self) -> int:
        return len(self.ids)


def _as_matrix(vectors: np.ndarray, dim: int | None = None) -> np.ndarray:
    array = np.asarray(vectors, dtype=np.float32)
    if array.ndim == 1:
        array = array[None, :]
    if array.ndim != 2:
        raise ConfigurationError("vectors must be 1-D or 2-D")
    if dim is not None and array.shape[1] != dim:
        raise ConfigurationError(
            f"vector dim {array.shape[1]} does not match index dim {dim}")
    return array


def _normalize(matrix: np.ndarray) -> np.ndarray:
    # Compute norms in float64: float32 sums of squares underflow for
    # denormal inputs and produce scores far outside [-1, 1]. Vectors with
    # effectively zero norm are left as-is (they score ~0 against anything).
    norms = np.linalg.norm(matrix.astype(np.float64), axis=1, keepdims=True)
    norms[norms < 1e-12] = 1.0
    return (matrix.astype(np.float64) / norms).astype(np.float32)


class BruteForceIndex:
    """Exact cosine-similarity search over all stored vectors."""

    def __init__(self, dim: int) -> None:
        if dim <= 0:
            raise ConfigurationError("dim must be positive")
        self.dim = dim
        self._vectors = np.empty((0, dim), dtype=np.float32)
        self._ids = np.empty((0,), dtype=np.int64)

    def __len__(self) -> int:
        return len(self._ids)

    def add(self, vectors: np.ndarray, ids: np.ndarray | None = None) -> None:
        """Add vectors (rows) with optional explicit ids."""
        matrix = _normalize(_as_matrix(vectors, self.dim))
        if ids is None:
            start = len(self._ids)
            new_ids = np.arange(start, start + len(matrix), dtype=np.int64)
        else:
            new_ids = np.asarray(ids, dtype=np.int64)
            if len(new_ids) != len(matrix):
                raise ConfigurationError("ids and vectors must align")
        self._vectors = np.vstack([self._vectors, matrix])
        self._ids = np.concatenate([self._ids, new_ids])

    def search(self, query: np.ndarray, k: int = 5) -> SearchResult:
        """Exact top-k by cosine similarity."""
        if len(self._ids) == 0:
            raise ConfigurationError("index is empty")
        if k <= 0:
            raise ConfigurationError("k must be positive")
        vector = _normalize(_as_matrix(query, self.dim))[0]
        scores = self._vectors @ vector
        k = min(k, len(scores))
        top = np.argpartition(-scores, k - 1)[:k]
        top = top[np.argsort(-scores[top])]
        return SearchResult(ids=self._ids[top], scores=scores[top])


class IVFIndex:
    """Inverted-file index: k-means coarse cells, probe the nearest few.

    Approximate but much faster than brute force on large corpora; recall is
    controlled by ``nprobe``.
    """

    def __init__(self, dim: int, n_cells: int = 16, nprobe: int = 2,
                 seed: int = 0, kmeans_iters: int = 8) -> None:
        if dim <= 0 or n_cells <= 0 or nprobe <= 0 or kmeans_iters <= 0:
            raise ConfigurationError("dim, n_cells, nprobe, kmeans_iters must be positive")
        if nprobe > n_cells:
            raise ConfigurationError("nprobe cannot exceed n_cells")
        self.dim = dim
        self.n_cells = n_cells
        self.nprobe = nprobe
        self._seed = seed
        self._kmeans_iters = kmeans_iters
        self._centroids: np.ndarray | None = None
        self._cells: list[tuple[np.ndarray, np.ndarray]] = []
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def train(self, vectors: np.ndarray) -> None:
        """Fit the coarse quantizer with a few k-means iterations."""
        matrix = _normalize(_as_matrix(vectors, self.dim))
        if len(matrix) < self.n_cells:
            raise ConfigurationError(
                f"need at least {self.n_cells} training vectors, got {len(matrix)}")
        rng = np.random.default_rng(self._seed)
        centroids = matrix[rng.choice(len(matrix), self.n_cells, replace=False)]
        for _ in range(self._kmeans_iters):
            assignment = np.argmax(matrix @ centroids.T, axis=1)
            for cell in range(self.n_cells):
                members = matrix[assignment == cell]
                if len(members):
                    centroids[cell] = members.mean(axis=0)
            centroids = _normalize(centroids)
        self._centroids = centroids
        self._cells = [(np.empty((0, self.dim), dtype=np.float32),
                        np.empty((0,), dtype=np.int64))
                       for _ in range(self.n_cells)]

    def add(self, vectors: np.ndarray, ids: np.ndarray | None = None) -> None:
        """Add vectors to their nearest cells (index must be trained)."""
        if self._centroids is None:
            raise ConfigurationError("train() the index before add()")
        matrix = _normalize(_as_matrix(vectors, self.dim))
        if ids is None:
            new_ids = np.arange(self._size, self._size + len(matrix), dtype=np.int64)
        else:
            new_ids = np.asarray(ids, dtype=np.int64)
            if len(new_ids) != len(matrix):
                raise ConfigurationError("ids and vectors must align")
        assignment = np.argmax(matrix @ self._centroids.T, axis=1)
        for cell in range(self.n_cells):
            mask = assignment == cell
            if not mask.any():
                continue
            old_vecs, old_ids = self._cells[cell]
            self._cells[cell] = (np.vstack([old_vecs, matrix[mask]]),
                                 np.concatenate([old_ids, new_ids[mask]]))
        self._size += len(matrix)

    def search(self, query: np.ndarray, k: int = 5) -> SearchResult:
        """Approximate top-k: scan the ``nprobe`` nearest cells."""
        if self._centroids is None or self._size == 0:
            raise ConfigurationError("index is empty or untrained")
        if k <= 0:
            raise ConfigurationError("k must be positive")
        vector = _normalize(_as_matrix(query, self.dim))[0]
        cell_scores = self._centroids @ vector
        probe = np.argsort(-cell_scores)[:self.nprobe]
        candidate_vecs = []
        candidate_ids = []
        for cell in probe:
            vecs, ids = self._cells[cell]
            if len(ids):
                candidate_vecs.append(vecs)
                candidate_ids.append(ids)
        if not candidate_vecs:
            return SearchResult(ids=np.empty(0, dtype=np.int64),
                                scores=np.empty(0, dtype=np.float32))
        vecs = np.vstack(candidate_vecs)
        ids = np.concatenate(candidate_ids)
        scores = vecs @ vector
        k = min(k, len(scores))
        top = np.argpartition(-scores, k - 1)[:k]
        top = top[np.argsort(-scores[top])]
        return SearchResult(ids=ids[top], scores=scores[top])
