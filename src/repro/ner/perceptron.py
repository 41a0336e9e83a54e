"""Averaged structured perceptron tagger.

Collins (2002) structured perceptron with weight averaging: decode the
full sequence with Viterbi, and on mistakes promote gold features /
demote predicted features.  Same feature space and decoder as the CRF,
an order of magnitude faster to train — the pipeline's default tagger.
"""

from __future__ import annotations

import random
from collections import defaultdict

import numpy as np

from repro.ner.corpus import TAGS, TaggedPhrase
from repro.ner.features import (
    EDGE,
    TokenParts,
    compose,
    extract_features,
    token_parts,
)
from repro.ner.viterbi import viterbi_decode, viterbi_decode_batch
from repro.utils import DEFAULT_CACHE_CAP, BoundedCache


class AveragedPerceptronTagger:
    """Structured perceptron with averaging over all updates."""

    def __init__(self, tags: tuple[str, ...] = TAGS, seed: int = 13):
        self._tags = tags
        self._tag_index = {t: i for i, t in enumerate(tags)}
        self._seed = seed
        self._weights: dict[tuple[str, int], float] = defaultdict(float)
        self._transitions = np.zeros((len(tags), len(tags)))
        self._start = np.zeros(len(tags))
        self._trained = False
        # Interned decode-time view of the weights, built by train():
        # feature string -> row id, and a (n_features, K) matrix whose
        # row f holds the weights of feature f for every tag.  None
        # while training (the dict is the live, evolving store).
        self._feature_ids: dict[str, int] | None = None
        self._weight_matrix: np.ndarray | None = None
        # Per-token memo for predict_batch: token -> its TokenParts
        # with every string replaced by its interned id (unknown
        # features dropped), and the edge pads' parts the same way.
        # Rebuilt whenever the interned view is (see _intern_weights).
        self._token_ids: dict[str, TokenParts] = BoundedCache(
            DEFAULT_CACHE_CAP
        )
        self._edge_ids = EDGE

    @property
    def tags(self) -> tuple[str, ...]:
        return self._tags

    def train(
        self,
        phrases: list[TaggedPhrase],
        epochs: int = 5,
    ) -> None:
        """Fit on gold phrases with *epochs* shuffled passes."""
        if not phrases:
            raise ValueError("empty training corpus")
        if epochs <= 0:
            raise ValueError(f"epochs must be positive, got {epochs}")
        rng = random.Random(self._seed)
        K = len(self._tags)
        # The dict is the live store during training; drop any decode
        # view from a previous train() so _emissions tracks updates.
        self._feature_ids = None
        self._weight_matrix = None

        # Accumulators for averaging: total = Σ (value at each step).
        # We use the standard lazy trick: keep last-update timestamps.
        acc_w: dict[tuple[str, int], float] = defaultdict(float)
        ts_w: dict[tuple[str, int], int] = defaultdict(int)
        acc_trans = np.zeros((K, K))
        ts_trans = np.zeros((K, K), dtype=np.int64)
        acc_start = np.zeros(K)
        ts_start = np.zeros(K, dtype=np.int64)
        step = 0

        def bump_w(key: tuple[str, int], delta: float) -> None:
            acc_w[key] += self._weights[key] * (step - ts_w[key])
            ts_w[key] = step
            self._weights[key] += delta

        data = [
            (extract_features(p.tokens), [self._tag_index[t] for t in p.tags])
            for p in phrases
        ]
        for _ in range(epochs):
            order = list(range(len(data)))
            rng.shuffle(order)
            for idx in order:
                feats, gold = data[idx]
                step += 1
                pred = self._decode_indices(feats)
                if pred == gold:
                    continue
                for i, (g, p) in enumerate(zip(gold, pred)):
                    if g != p:
                        for f in feats[i]:
                            bump_w((f, g), +1.0)
                            bump_w((f, p), -1.0)
                # Transition / start updates (full-path contrast).
                acc_start += self._start * (step - ts_start)
                ts_start[:] = step
                self._start[gold[0]] += 1.0
                self._start[pred[0]] -= 1.0
                acc_trans += self._transitions * (step - ts_trans)
                ts_trans[:, :] = step
                for i in range(1, len(gold)):
                    self._transitions[gold[i - 1], gold[i]] += 1.0
                    self._transitions[pred[i - 1], pred[i]] -= 1.0

        # Finalize averages.
        step += 1
        for key, value in self._weights.items():
            acc_w[key] += value * (step - ts_w[key])
        acc_trans += self._transitions * (step - ts_trans)
        acc_start += self._start * (step - ts_start)
        self._weights = defaultdict(
            float, {k: v / step for k, v in acc_w.items() if v}
        )
        self._transitions = acc_trans / step
        self._start = acc_start / step
        self._intern_weights()
        self._trained = True

    def snapshot(self) -> dict:
        """Plain-builtins view of the trained model state.

        The weight dict is the single source of truth: entries are
        listed in insertion order, and :meth:`from_snapshot` re-inserts
        them identically before calling :meth:`_intern_weights` —
        which assigns feature ids by first appearance — so the
        restored interned matrix, and therefore every decode, is
        bit-identical to the original's.  (``ndarray.tolist``
        round-trips float64 exactly.)  Deriving the interned view on
        restore rather than storing it means a snapshot cannot carry a
        matrix that disagrees with its weights.
        """
        if not self._trained:
            raise ValueError("cannot snapshot an untrained tagger")
        return {
            "tags": list(self._tags),
            "seed": self._seed,
            "weights": [
                [feat, tag, value]
                for (feat, tag), value in self._weights.items()
            ],
            "transitions": self._transitions.tolist(),
            "start": self._start.tolist(),
        }

    @classmethod
    def from_snapshot(cls, state: dict) -> "AveragedPerceptronTagger":
        """Rebuild a trained tagger from :meth:`snapshot` output."""
        tagger = cls(tags=tuple(state["tags"]), seed=int(state["seed"]))
        for feat, tag, value in state["weights"]:
            tagger._weights[(feat, int(tag))] = float(value)
        K = len(tagger._tags)
        tagger._transitions = np.asarray(
            state["transitions"], dtype=float
        ).reshape(K, K)
        tagger._start = np.asarray(state["start"], dtype=float).reshape(K)
        tagger._intern_weights()
        tagger._trained = True
        return tagger

    def _intern_weights(self) -> None:
        """Build the interned feature-id / weight-matrix decode view.

        Decoding through the matrix replaces the per-token triple loop
        over ``dict.get((feature, tag))`` with one fancy-indexed row
        sum per token (see :meth:`_emissions`).
        """
        K = len(self._tags)
        feature_ids: dict[str, int] = {}
        for feat, _tag in self._weights:
            if feat not in feature_ids:
                feature_ids[feat] = len(feature_ids)
        matrix = np.zeros((len(feature_ids), K))
        for (feat, tag), weight in self._weights.items():
            matrix[feature_ids[feat], tag] = weight
        self._feature_ids = feature_ids
        self._weight_matrix = matrix
        self._token_ids = BoundedCache(DEFAULT_CACHE_CAP)
        self._edge_ids = self._intern_parts(EDGE)

    def _intern_parts(self, parts: TokenParts) -> TokenParts:
        """*parts* with each feature string replaced by its interned
        id; features the model never weighted are dropped."""
        feature_ids = self._feature_ids
        return TokenParts._make(
            tuple(
                fid
                for f in part
                if (fid := feature_ids.get(f)) is not None
            )
            for part in parts
        )

    def _emissions(self, feats: list[list[str]]) -> np.ndarray:
        """Emission scores, (T, K).

        Vectorized hot path: per token, gather the interned rows of
        its known features and sum them.  NumPy reduces axis 0 of a
        (n, K) block sequentially for K >= 2, so the result is
        bit-identical to the reference dict accumulation (the absent
        (feature, tag) cells hold +0.0, which is addition-neutral);
        ``tests/test_pipeline_parallel.py`` locks this in.  Falls back
        to the dict walk while training (the matrix is stale then).
        """
        matrix = self._weight_matrix
        if matrix is None:
            return self._emissions_reference(feats)
        K = len(self._tags)
        em = np.zeros((len(feats), K))
        feature_ids = self._feature_ids
        for i, token_feats in enumerate(feats):
            ids = [
                fid
                for f in token_feats
                if (fid := feature_ids.get(f)) is not None
            ]
            if ids:
                em[i] = matrix[ids].sum(axis=0)
        return em

    def _emissions_reference(self, feats: list[list[str]]) -> np.ndarray:
        """Reference dict-based emission loop (training + parity tests)."""
        K = len(self._tags)
        em = np.zeros((len(feats), K))
        for i, token_feats in enumerate(feats):
            for f in token_feats:
                for k in range(K):
                    w = self._weights.get((f, k))
                    if w:
                        em[i, k] += w
        return em

    def _decode_indices(self, feats: list[list[str]]) -> list[int]:
        return viterbi_decode(self._emissions(feats), self._transitions, self._start)

    def predict(self, tokens: list[str] | tuple[str, ...]) -> list[str]:
        """Tag a token sequence."""
        if not tokens:
            return []
        feats = extract_features(tokens)
        return [self._tags[i] for i in self._decode_indices(feats)]

    def predict_batch(
        self, token_seqs: list[list[str]]
    ) -> list[list[str]]:
        """Tag many token sequences with one chunk-wide emission pass.

        Extends the :meth:`_emissions` matrix pattern across a whole
        chunk: every token of every sequence contributes its interned
        feature rows to one flat gather, and ``np.add.reduceat`` sums
        each token's contiguous row block in a single call.  reduceat
        reduces axis 0 of each block sequentially exactly like
        ``matrix[ids].sum(axis=0)``, so per-line emissions — and the
        per-line Viterbi decodes over them — are bit-identical to
        :meth:`predict`.  A position's feature ids come from a
        per-token memo (see :func:`repro.ner.features.compose`), and
        equal-length sequences decode together through
        :func:`viterbi_decode_batch`.
        """
        matrix = self._weight_matrix
        if matrix is None:
            return [self.predict(tokens) for tokens in token_seqs]
        token_ids = self._token_ids
        edge = self._edge_ids
        K = len(self._tags)

        # Interned feature ids per position: each distinct token's id
        # parts are interned once, and a position's ids are its
        # neighbourhood's parts concatenated in template order
        # (compose), so they equal the ids of token_features exactly.
        lengths: list[int] = []
        flat_ids: list[int] = []
        ids_per_token: list[int] = []  # interned-feature count per token
        for tokens in token_seqs:
            padded = [edge, edge]
            for token in tokens:
                parts = token_ids.get(token)
                if parts is None:
                    parts = self._intern_parts(token_parts(token))
                    token_ids[token] = parts
                padded.append(parts)
            padded += (edge, edge)
            n = len(padded) - 4
            lengths.append(n)
            for i in range(n):
                ids = compose(padded, i)
                flat_ids += ids
                ids_per_token.append(len(ids))

        em_all = np.zeros((len(ids_per_token), K))
        if flat_ids:
            rows = matrix[np.asarray(flat_ids, dtype=np.intp)]
            counts = np.asarray(ids_per_token, dtype=np.int64)
            # Tokens with no known features keep their zero rows; the
            # remaining blocks are contiguous in *rows*, and reduceat
            # is pointed only at their start offsets (reduceat treats
            # an empty segment as "take the element at the index",
            # which would be wrong — so empty segments never reach it).
            starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
            nonempty = np.nonzero(counts)[0]
            em_all[nonempty] = np.add.reduceat(
                rows, starts[nonempty], axis=0
            )

        # Viterbi in length buckets: phrases of equal length decode in
        # one lockstep batch (bit-identical per phrase — see
        # viterbi_decode_batch).
        out: list[list[str] | None] = [None] * len(token_seqs)
        seq_slices: list = []
        offset = 0
        buckets: dict[int, list[int]] = {}
        for idx, n in enumerate(lengths):
            seq_slices.append(em_all[offset:offset + n])
            offset += n
            if n == 0:
                out[idx] = []
            else:
                buckets.setdefault(n, []).append(idx)
        tags = self._tags
        for members in buckets.values():
            em = np.stack([seq_slices[idx] for idx in members])
            paths = viterbi_decode_batch(em, self._transitions, self._start)
            for idx, path in zip(members, paths):
                out[idx] = [tags[k] for k in path]
        return out

    def tag_phrase(self, tokens: list[str] | tuple[str, ...]) -> TaggedPhrase:
        """Tag tokens and wrap in a :class:`TaggedPhrase`."""
        return TaggedPhrase(tuple(tokens), tuple(self.predict(tokens)))
