"""Per-token feature parts: the composed templates equal the
per-position reference, and the perceptron's batched decode over the
per-token id memo equals per-phrase decoding."""

import pytest
from hypothesis import given, settings, strategies as st

from oracles import token_features_reference
from repro.ner.features import (
    DF_WORDS,
    EDGE,
    SIZE_WORDS,
    STATE_WORDS,
    TEMP_WORDS,
    UNIT_WORDS,
    extract_features,
    token_features,
    token_parts,
)
from repro.ner.perceptron import AveragedPerceptronTagger
from repro.ner.viterbi import viterbi_decode
from repro.recipedb.generator import GeneratorConfig, RecipeGenerator

LEXICON = sorted(UNIT_WORDS | SIZE_WORDS | TEMP_WORDS | DF_WORDS | STATE_WORDS)

tokens = st.one_of(
    st.sampled_from(LEXICON),
    st.sampled_from(LEXICON).map(str.upper),
    st.sampled_from(["1", "2", "12", "2.5", "0.25", "100"]),
    st.sampled_from(["1/2", "3/4", "1/3", "11/2"]),
    st.sampled_from([",", "(", ")", "-", ".", "--", "/"]),
    st.sampled_from(["all-purpose", "extra-large", "hard-boiled", "x-"]),
    st.sampled_from(["Onion", "McCormick", "SaLt", "Cups", "Ed", "ING"]),
    st.sampled_from(["crème", "jalapeño", "½", "Ærø", "—", "°F", "ñ-1"]),
    st.text(max_size=6),
)
sequences = st.lists(tokens, min_size=0, max_size=7)


@pytest.fixture(scope="module")
def trained():
    phrases = [
        item.tagged
        for item in RecipeGenerator(
            config=GeneratorConfig(seed=3)
        ).generate_phrases(250)
    ]
    tagger = AveragedPerceptronTagger()
    tagger.train(phrases, epochs=3)
    return tagger


def reference_decode(tagger, seq):
    """Tags from the dict-walk emissions of the reference features."""
    if not seq:
        return []
    feats = [token_features_reference(seq, i) for i in range(len(seq))]
    emissions = tagger._emissions_reference(feats)
    path = viterbi_decode(emissions, tagger._transitions, tagger._start)
    return [tagger.tags[k] for k in path]


class TestComposedTemplates:
    @settings(max_examples=300, deadline=None)
    @given(sequences)
    def test_token_features_equal_reference(self, seq):
        reference = [
            token_features_reference(seq, i) for i in range(len(seq))
        ]
        assert [token_features(seq, i) for i in range(len(seq))] == reference
        assert extract_features(seq) == reference
        assert extract_features(tuple(seq)) == reference

    def test_parts_by_role(self):
        parts = token_parts("Cups")
        assert parts.own[:2] == ("w=cups", "shape=Xx")
        assert "lex=unit" in parts.own
        assert parts.as_prev == ("w-1=cups", "shape-1=Xx", "prev_lex=unit")
        assert parts.as_next == ("w+1=cups", "next_lex=unit")
        assert parts.as_prev2 == ("w-2=cups",)
        assert parts.as_next2 == ("w+2=cups",)
        assert token_parts("1/2").as_prev[-1] == "prev_is_number"

    def test_edge_parts(self):
        assert token_features(["salt"], 0)[-2:] == ["BOS", "EOS"]
        assert EDGE.as_prev == ("BOS",) and EDGE.as_next == ("EOS",)
        assert EDGE.own == EDGE.as_prev2 == EDGE.as_next2 == ()


class TestBatchedDecode:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(sequences, min_size=1, max_size=6))
    def test_predict_batch_equals_predict_and_reference(self, trained, seqs):
        batched = trained.predict_batch(seqs)
        assert batched == [trained.predict(seq) for seq in seqs]
        assert batched == [reference_decode(trained, seq) for seq in seqs]

    def test_retraining_rebuilds_token_memo(self):
        generator = RecipeGenerator(config=GeneratorConfig(seed=5))
        phrases = [item.tagged for item in generator.generate_phrases(120)]
        seqs = [list(p.tokens) for p in phrases[:40]]
        tagger = AveragedPerceptronTagger()
        tagger.train(phrases[:60], epochs=2)
        tagger.predict_batch(seqs)
        tagger.train(phrases[60:], epochs=2)
        assert tagger.predict_batch(seqs) == [
            tagger.predict(seq) for seq in seqs
        ]
