"""Tests for Viterbi decoding, including brute-force equivalence."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ner.viterbi import viterbi_decode, viterbi_decode_batch


def brute_force(emissions, transitions, start):
    """Enumerate all paths; return the best one."""
    T, K = emissions.shape
    best_path, best_score = None, -np.inf
    for path in itertools.product(range(K), repeat=T):
        score = start[path[0]] + emissions[0, path[0]]
        for t in range(1, T):
            score += transitions[path[t - 1], path[t]] + emissions[t, path[t]]
        if score > best_score:
            best_path, best_score = list(path), score
    return best_path, best_score


def path_score(path, emissions, transitions, start):
    score = start[path[0]] + emissions[0, path[0]]
    for t in range(1, len(path)):
        score += transitions[path[t - 1], path[t]] + emissions[t, path[t]]
    return score


class TestViterbi:
    def test_empty_sequence(self):
        assert viterbi_decode(np.zeros((0, 3)), np.zeros((3, 3)),
                              np.zeros(3)) == []

    def test_single_token(self):
        em = np.array([[1.0, 5.0, 2.0]])
        path = viterbi_decode(em, np.zeros((3, 3)), np.zeros(3))
        assert path == [1]

    def test_transitions_matter(self):
        # Emissions prefer [0, 0] but transition 0->0 is catastrophic.
        em = np.array([[1.0, 0.0], [1.0, 0.0]])
        trans = np.array([[-100.0, 0.0], [0.0, 0.0]])
        path = viterbi_decode(em, trans, np.zeros(2))
        assert path != [0, 0]

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            viterbi_decode(np.zeros((2, 3)), np.zeros((2, 2)), np.zeros(3))
        with pytest.raises(ValueError):
            viterbi_decode(np.zeros((2, 3)), np.zeros((3, 3)), np.zeros(2))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 5), st.integers(2, 4), st.integers(0, 10_000))
    def test_matches_brute_force(self, T, K, seed):
        rng = np.random.default_rng(seed)
        em = rng.normal(size=(T, K))
        trans = rng.normal(size=(K, K))
        start = rng.normal(size=K)
        fast = viterbi_decode(em, trans, start)
        slow, slow_score = brute_force(em, trans, start)
        assert path_score(fast, em, trans, start) == pytest.approx(slow_score)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 8), st.integers(2, 5), st.integers(0, 10_000))
    def test_beats_random_paths(self, T, K, seed):
        rng = np.random.default_rng(seed)
        em = rng.normal(size=(T, K))
        trans = rng.normal(size=(K, K))
        start = rng.normal(size=K)
        best = path_score(viterbi_decode(em, trans, start), em, trans, start)
        for _ in range(20):
            random_path = rng.integers(0, K, size=T).tolist()
            assert best >= path_score(random_path, em, trans, start) - 1e-9


def per_sequence(emissions, transitions, start):
    return [viterbi_decode(em, transitions, start) for em in emissions]


class TestViterbiBatch:
    """The lockstep batch decode equals per-sequence decoding exactly."""

    def test_single_sequence(self):
        rng = np.random.default_rng(0)
        em = rng.normal(size=(1, 6, 4))
        trans, start = rng.normal(size=(4, 4)), rng.normal(size=4)
        assert viterbi_decode_batch(em, trans, start) == per_sequence(
            em, trans, start
        )

    def test_single_position(self):
        rng = np.random.default_rng(1)
        em = rng.normal(size=(5, 1, 3))
        trans, start = rng.normal(size=(3, 3)), rng.normal(size=3)
        paths = viterbi_decode_batch(em, trans, start)
        assert paths == per_sequence(em, trans, start)
        assert all(len(path) == 1 for path in paths)

    def test_empty_sequences(self):
        assert viterbi_decode_batch(
            np.zeros((3, 0, 2)), np.zeros((2, 2)), np.zeros(2)
        ) == [[], [], []]

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            viterbi_decode_batch(
                np.zeros((1, 2, 3)), np.zeros((2, 2)), np.zeros(3)
            )
        with pytest.raises(ValueError):
            viterbi_decode_batch(
                np.zeros((1, 2, 3)), np.zeros((3, 3)), np.zeros(2)
            )

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(1, 6), st.integers(1, 7), st.integers(2, 5),
        st.integers(0, 10_000),
    )
    def test_random_emissions(self, N, T, K, seed):
        rng = np.random.default_rng(seed)
        em = rng.normal(size=(N, T, K))
        trans, start = rng.normal(size=(K, K)), rng.normal(size=K)
        assert viterbi_decode_batch(em, trans, start) == per_sequence(
            em, trans, start
        )

    def test_binary_tags(self):
        rng = np.random.default_rng(2)
        em = rng.normal(size=(8, 5, 2))
        trans, start = rng.normal(size=(2, 2)), rng.normal(size=2)
        assert viterbi_decode_batch(em, trans, start) == per_sequence(
            em, trans, start
        )

    def test_all_zero_ties(self):
        """Every path ties: both decoders pick the first-occurrence
        argmax at every step, so the path is all zeros."""
        em = np.zeros((4, 5, 3))
        paths = viterbi_decode_batch(em, np.zeros((3, 3)), np.zeros(3))
        assert paths == per_sequence(em, np.zeros((3, 3)), np.zeros(3))
        assert paths == [[0] * 5] * 4

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(1, 6), st.integers(1, 6), st.integers(2, 4),
        st.integers(0, 10_000),
    )
    def test_integer_valued_ties(self, N, T, K, seed):
        """Small integer scores make exact ties common along the way."""
        rng = np.random.default_rng(seed)
        em = rng.integers(-1, 2, size=(N, T, K)).astype(float)
        trans = rng.integers(-1, 2, size=(K, K)).astype(float)
        start = rng.integers(-1, 2, size=K).astype(float)
        assert viterbi_decode_batch(em, trans, start) == per_sequence(
            em, trans, start
        )
