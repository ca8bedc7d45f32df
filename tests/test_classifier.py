"""Unit tests for the Bloom-filter and exact n-gram classifiers."""

import numpy as np
import pytest

from repro.baselines.hail import HailClassifier
from repro.core.classifier import (
    UNDETERMINED_LANGUAGE,
    BloomNGramClassifier,
    ClassificationResult,
    ExactNGramClassifier,
    undetermined_result,
)
from repro.core.ngram import ngrams_from_text
from repro.hardware.classifier_engine import ParallelMultiLanguageClassifier


class TestClassificationResult:
    def test_scores_normalised(self):
        result = ClassificationResult("en", {"en": 50, "fr": 25}, ngram_count=100)
        assert result.scores == {"en": 0.5, "fr": 0.25}

    def test_scores_empty_document(self):
        result = ClassificationResult("en", {"en": 0, "fr": 0}, ngram_count=0)
        assert result.scores == {"en": 0.0, "fr": 0.0}

    def test_margin(self):
        result = ClassificationResult("en", {"en": 50, "fr": 30, "es": 10}, ngram_count=100)
        assert result.margin == 20

    def test_margin_single_language(self):
        assert ClassificationResult("en", {"en": 50}, 100).margin == 50

    def test_ranking(self):
        result = ClassificationResult("en", {"en": 50, "fr": 30, "es": 70}, ngram_count=100)
        assert [lang for lang, _ in result.ranking()] == ["es", "en", "fr"]


class TestTraining:
    def test_fit_texts(self):
        clf = BloomNGramClassifier(m_bits=4096, k=3, t=200, seed=1)
        clf.fit_texts({"en": ["hello world " * 20], "fr": ["bonjour monde " * 20]})
        assert clf.languages == ["en", "fr"]

    def test_fit_corpus(self, train_corpus):
        clf = BloomNGramClassifier(m_bits=4096, k=3, t=500, seed=1)
        clf.fit(train_corpus)
        assert set(clf.languages) == set(train_corpus.languages)

    def test_fit_profiles(self, profiles):
        clf = BloomNGramClassifier(m_bits=8192, k=4, seed=1)
        clf.fit_profiles(profiles)
        assert set(clf.languages) == set(profiles)
        assert set(clf.filters) == set(profiles)

    def test_empty_profiles_rejected(self):
        clf = BloomNGramClassifier()
        with pytest.raises(ValueError):
            clf.fit_profiles({})

    def test_classify_before_fit_raises(self):
        clf = BloomNGramClassifier()
        with pytest.raises(RuntimeError):
            clf.classify_text("some text")

    def test_memory_accounting(self):
        clf = BloomNGramClassifier(m_bits=4096, k=6)
        assert clf.memory_bits_per_language == 24 * 1024


class TestClassification:
    @pytest.fixture(scope="class")
    def trained(self, profiles):
        clf = BloomNGramClassifier(m_bits=16 * 1024, k=4, t=1500, seed=3)
        clf.fit_profiles(profiles)
        return clf

    def test_classifies_test_documents_correctly(self, trained, test_corpus):
        sample = test_corpus.documents[:20]
        correct = sum(trained.classify_text(d.text).language == d.language for d in sample)
        assert correct >= 18  # conservative configuration: near-perfect on synthetic data

    def test_match_counts_shape(self, trained):
        packed = ngrams_from_text("some neutral text for counting")
        counts = trained.match_counts(packed)
        assert counts.shape == (len(trained.languages),)
        assert (counts >= 0).all() and (counts <= packed.size).all()

    def test_empty_document(self, trained):
        result = trained.classify_text("")
        assert result.language == UNDETERMINED_LANGUAGE
        assert result.ngram_count == 0
        assert all(count == 0 for count in result.match_counts.values())

    def test_document_shorter_than_n_is_undetermined(self, trained):
        result = trained.classify_text("ab")
        assert result.language == UNDETERMINED_LANGUAGE
        assert result.ngram_count == 0

    def test_undetermined_result_helper(self):
        result = undetermined_result(["en", "fr"])
        assert result.language == UNDETERMINED_LANGUAGE
        assert result.match_counts == {"en": 0, "fr": 0}
        assert result.scores == {"en": 0.0, "fr": 0.0}

    def test_all_zero_counts_with_evidence_ties_to_first_language(self, trained):
        # evidence exists (ngrams > 0) but nothing matches any profile: the
        # documented priority-encoder rule picks the first trained language
        packed = np.full(5, (1 << 20) - 1, dtype=np.uint64)
        result = trained.classify_packed(packed)
        assert result.ngram_count == 5
        assert result.language == trained.languages[0]

    def test_classify_packed_matches_classify_text(self, trained, sample_document):
        text = sample_document.text
        packed = trained.extractor.extract(text)
        assert trained.classify_packed(packed).match_counts == trained.classify_text(text).match_counts

    def test_classify_batch(self, trained, test_corpus):
        docs = test_corpus.documents[:5]
        results = trained.classify_batch(d.text for d in docs)
        assert len(results) == 5
        for single, doc in zip(results, docs):
            assert single.match_counts == trained.classify_text(doc.text).match_counts

    def test_deterministic(self, profiles, sample_document):
        a = BloomNGramClassifier(m_bits=8192, k=3, seed=11)
        b = BloomNGramClassifier(m_bits=8192, k=3, seed=11)
        a.fit_profiles(profiles)
        b.fit_profiles(profiles)
        assert (
            a.classify_text(sample_document.text).match_counts
            == b.classify_text(sample_document.text).match_counts
        )

    def test_expected_fpr_uses_profile_size(self, trained):
        assert 0.0 < trained.expected_fpr() < 0.05

    def test_measured_fpr_close_to_expected(self, trained):
        measured = trained.measured_fpr(sample_size=30000, seed=5)
        expected = trained.expected_fpr()
        mean_measured = float(np.mean(list(measured.values())))
        assert mean_measured == pytest.approx(expected, rel=0.5, abs=0.003)

    def test_alternative_hash_family(self, profiles, sample_document):
        clf = BloomNGramClassifier(m_bits=8192, k=4, seed=1, hash_family="tabulation")
        clf.fit_profiles(profiles)
        result = clf.classify_text(sample_document.text)
        assert result.language == sample_document.language

    def test_subsampling_still_classifies(self, profiles, sample_document):
        clf = BloomNGramClassifier(m_bits=16 * 1024, k=4, seed=1, subsample_stride=2)
        clf.fit_profiles(profiles)
        assert clf.classify_text(sample_document.text).language == sample_document.language


class TestExactClassifier:
    @pytest.fixture(scope="class")
    def exact(self, profiles):
        clf = ExactNGramClassifier(t=1500)
        clf.fit_profiles(profiles)
        return clf

    def test_exact_counts_are_true_membership(self, exact, profiles):
        text = "reference membership counting text"
        packed = exact.extractor.extract(text)
        counts = exact.match_counts(packed)
        for index, (language, profile) in enumerate(profiles.items()):
            assert counts[index] == int(profile.contains_many(packed).sum())

    def test_bloom_counts_upper_bound_exact_counts(self, exact, profiles, sample_document):
        """Bloom filters can only add false positives, never lose true matches."""
        bloom = BloomNGramClassifier(m_bits=4096, k=2, seed=2)
        bloom.fit_profiles(profiles)
        packed = exact.extractor.extract(sample_document.text)
        exact_counts = exact.match_counts(packed)
        bloom_counts = bloom.match_counts(packed)
        assert (bloom_counts >= exact_counts).all()

    def test_exact_classification_accuracy(self, exact, test_corpus):
        sample = test_corpus.documents[:20]
        correct = sum(exact.classify_text(d.text).language == d.language for d in sample)
        assert correct >= 19

    def test_untrained_raises(self):
        with pytest.raises(RuntimeError):
            ExactNGramClassifier().classify_text("text")


@pytest.mark.parametrize("text", ["", "ab"])
@pytest.mark.parametrize("engine", ["hail", "hardware"])
def test_zero_ngram_document_is_undetermined_on_every_engine(engine, text, profiles):
    # "ab" is shorter than n=4: like the empty document it yields no n-grams,
    # so no engine may hand the all-zero tie to the first trained language
    if engine == "hail":
        result = HailClassifier(table_bits=16).fit_profiles(profiles).classify_text(text)
    else:
        hardware = ParallelMultiLanguageClassifier()
        hardware.load_profiles_fast(profiles)
        result, _report = hardware.classify_document(text)
    assert result.language == UNDETERMINED_LANGUAGE
    assert result.ngram_count == 0
    assert result.match_counts == {language: 0 for language in profiles}
