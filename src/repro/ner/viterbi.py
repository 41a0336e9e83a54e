"""Exact first-order Viterbi decoding.

Shared by the CRF and the structured perceptron: both produce a
(T × K) emission-score matrix, a (K × K) transition matrix and a (K,)
start-score vector; decoding is identical.
"""

from __future__ import annotations

import numpy as np


def viterbi_decode(
    emissions: np.ndarray,
    transitions: np.ndarray,
    start: np.ndarray,
) -> list[int]:
    """Highest-scoring tag sequence.

    Parameters
    ----------
    emissions:
        Array of shape (T, K): score of tag k at position t.
    transitions:
        Array of shape (K, K): score of moving from tag i to tag j.
    start:
        Array of shape (K,): score of starting with tag k.

    Returns
    -------
    list[int]
        Tag indices of length T (empty list for T == 0).
    """
    T, K = emissions.shape
    if T == 0:
        return []
    if transitions.shape != (K, K):
        raise ValueError(f"transitions shape {transitions.shape} != ({K}, {K})")
    if start.shape != (K,):
        raise ValueError(f"start shape {start.shape} != ({K},)")

    delta = start + emissions[0]
    backpointers = np.zeros((T, K), dtype=np.int64)
    for t in range(1, T):
        # scores[i, j] = delta[i] + transitions[i, j]
        scores = delta[:, None] + transitions
        backpointers[t] = np.argmax(scores, axis=0)
        delta = scores[backpointers[t], np.arange(K)] + emissions[t]

    path = [int(np.argmax(delta))]
    for t in range(T - 1, 0, -1):
        path.append(int(backpointers[t, path[-1]]))
    path.reverse()
    return path


def viterbi_decode_batch(
    emissions: np.ndarray,
    transitions: np.ndarray,
    start: np.ndarray,
) -> list[list[int]]:
    """Decode a batch of equal-length sequences in lockstep.

    *emissions* has shape (N, T, K): N sequences of the same length T.
    Returns N tag-index paths.  Every step performs the same float64
    additions and first-occurrence argmax the per-sequence
    :func:`viterbi_decode` performs — elementwise ops broadcast per
    sequence, nothing is reduced across sequences — so each returned
    path is bit-identical to ``viterbi_decode(emissions[n], ...)``.
    Used by the columnar chunk pipeline, which buckets a chunk's
    phrases by length and decodes each bucket in one call.
    """
    N, T, K = emissions.shape
    if T == 0:
        return [[] for _ in range(N)]
    if transitions.shape != (K, K):
        raise ValueError(f"transitions shape {transitions.shape} != ({K}, {K})")
    if start.shape != (K,):
        raise ValueError(f"start shape {start.shape} != ({K},)")

    delta = start + emissions[:, 0]  # (N, K)
    backpointers = np.empty((T, N, K), dtype=np.int64)
    for t in range(1, T):
        # scores[n, i, j] = delta[n, i] + transitions[i, j]
        scores = delta[:, :, None] + transitions
        bp = scores.argmax(axis=1)  # (N, K)
        backpointers[t] = bp
        delta = (
            np.take_along_axis(scores, bp[:, None, :], axis=1)[:, 0, :]
            + emissions[:, t]
        )

    # Backtrack every sequence at once: one gather per step.
    paths = np.empty((N, T), dtype=np.int64)
    paths[:, T - 1] = delta.argmax(axis=1)
    rows = np.arange(N)
    for t in range(T - 1, 0, -1):
        paths[:, t - 1] = backpointers[t, rows, paths[:, t]]
    return paths.tolist()
