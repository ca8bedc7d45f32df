"""Unit tests for the classification result, the Bloom programming object and the exact engine."""

import numpy as np
import pytest

from repro.api import ClassifierConfig, LanguageIdentifier, available_backends
from repro.api.backends import ExactBackend
from repro.core.classifier import (
    UNDETERMINED_LANGUAGE,
    BloomNGramClassifier,
    ClassificationResult,
    result_from_counts,
    undetermined_result,
)
from repro.core.ngram import NGramExtractor, ngrams_from_text
from repro.registry import StreamingTrainer

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
        identifier = LanguageIdentifier(m_bits=4096, k=3, t=200, seed=1)
        identifier.train({"en": ["hello world " * 20], "fr": ["bonjour monde " * 20]})
        assert identifier.languages == ["en", "fr"]

    def test_fit_corpus(self, train_corpus):
        identifier = LanguageIdentifier(m_bits=4096, k=3, t=500, seed=1).train(train_corpus)
        assert set(identifier.languages) == set(train_corpus.languages)

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
            clf.match_counts(ngrams_from_text("some text"))

    def test_memory_accounting(self):
        clf = BloomNGramClassifier(m_bits=4096, k=6)
        assert clf.memory_bits_per_language == 24 * 1024


def test_stride_does_not_thin_training_profiles(train_corpus):
    # subsample_stride applies to the classification stream only: profiles
    # trained at stride 2 are the stride-1 profiles, on the facade and on the
    # streaming trainer alike
    base = ClassifierConfig(t=1500)
    strided = base.replace(subsample_stride=2)
    paths = {
        "facade": lambda config: LanguageIdentifier(config).train(train_corpus).profiles,
        "streaming": lambda config: StreamingTrainer(config).feed(train_corpus).profiles(),
    }
    for path, train in paths.items():
        reference, profiles = train(base), train(strided)
        assert list(profiles) == list(reference), path
        for language, profile in reference.items():
            assert np.array_equal(profiles[language].ngrams, profile.ngrams), (path, language)
            assert np.array_equal(profiles[language].counts, profile.counts), (path, language)


class TestClassification:
    @pytest.fixture(scope="class")
    def trained(self, profiles):
        identifier = LanguageIdentifier(m_bits=16 * 1024, k=4, t=1500, seed=3)
        return identifier.train_profiles(profiles)

    @pytest.fixture(scope="class")
    def engine(self, trained):
        """The identifier's Bloom programming object (per-document count reference)."""
        return trained.backend.classifier

    def test_classifies_test_documents_correctly(self, trained, test_corpus):
        sample = test_corpus.documents[:20]
        correct = sum(trained.classify(d.text).language == d.language for d in sample)
        assert correct >= 18  # conservative configuration: near-perfect on synthetic data

    def test_match_counts_shape(self, engine):
        packed = ngrams_from_text("some neutral text for counting")
        counts = engine.match_counts(packed)
        assert counts.shape == (len(engine.languages),)
        assert (counts >= 0).all() and (counts <= packed.size).all()

    def test_empty_document(self, trained):
        result = trained.classify("")
        assert result.language == UNDETERMINED_LANGUAGE
        assert result.ngram_count == 0
        assert all(count == 0 for count in result.match_counts.values())

    def test_document_shorter_than_n_is_undetermined(self, trained):
        result = trained.classify("ab")
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
        (result,) = trained.backend.classify_batch_results(packed, np.asarray([5]))
        assert result.ngram_count == 5
        assert result.language == trained.languages[0]

    def test_classify_packed_matches_classify_text(self, trained, engine, sample_document):
        # the per-document reference counts, through the one counts -> result
        # rule, give the facade's result
        text = sample_document.text
        packed = trained.extractor.extract(text)
        reference = result_from_counts(engine.languages, engine.match_counts(packed), packed.size)
        assert reference == trained.classify(text)

    def test_classify_batch(self, trained, test_corpus):
        docs = test_corpus.documents[:5]
        results = trained.classify_batch(d.text for d in docs)
        assert len(results) == 5
        for single, doc in zip(results, docs):
            assert single.match_counts == trained.classify(doc.text).match_counts

    def test_deterministic(self, profiles, sample_document):
        a = BloomNGramClassifier(m_bits=8192, k=3, seed=11)
        b = BloomNGramClassifier(m_bits=8192, k=3, seed=11)
        a.fit_profiles(profiles)
        b.fit_profiles(profiles)
        packed = ngrams_from_text(sample_document.text)
        assert np.array_equal(a.match_counts(packed), b.match_counts(packed))

    def test_expected_fpr_uses_profile_size(self, engine):
        assert 0.0 < engine.expected_fpr() < 0.05

    def test_measured_fpr_close_to_expected(self, engine):
        measured = engine.measured_fpr(sample_size=30000, seed=5)
        expected = engine.expected_fpr()
        mean_measured = float(np.mean(list(measured.values())))
        assert mean_measured == pytest.approx(expected, rel=0.5, abs=0.003)

    def test_alternative_hash_family(self, profiles, sample_document):
        identifier = LanguageIdentifier(m_bits=8192, k=4, seed=1, hash_family="tabulation")
        result = identifier.train_profiles(profiles).classify(sample_document.text)
        assert result.language == sample_document.language

    def test_subsampling_still_classifies(self, profiles, sample_document):
        identifier = LanguageIdentifier(m_bits=16 * 1024, k=4, seed=1, subsample_stride=2)
        result = identifier.train_profiles(profiles).classify(sample_document.text)
        assert result.language == sample_document.language


class TestExactClassifier:
    @pytest.fixture(scope="class")
    def exact(self, profiles):
        backend = ExactBackend(ClassifierConfig(t=1500, backend="exact"))
        backend.fit_profiles(profiles)
        return backend

    def test_exact_counts_are_true_membership(self, exact, profiles):
        packed = NGramExtractor(n=4).extract("reference membership counting text")
        counts = exact.match_counts_batch(packed, np.asarray([packed.size]))[0]
        for index, (language, profile) in enumerate(profiles.items()):
            assert counts[index] == int(profile.contains_many(packed).sum())

    def test_bloom_counts_upper_bound_exact_counts(self, exact, profiles, sample_document):
        """Bloom filters can only add false positives, never lose true matches."""
        bloom = BloomNGramClassifier(m_bits=4096, k=2, seed=2)
        bloom.fit_profiles(profiles)
        packed = NGramExtractor(n=4).extract(sample_document.text)
        exact_counts = exact.match_counts_batch(packed, np.asarray([packed.size]))[0]
        bloom_counts = bloom.match_counts(packed)
        assert (bloom_counts >= exact_counts).all()

    def test_exact_classification_accuracy(self, profiles, test_corpus):
        identifier = LanguageIdentifier(backend="exact", t=1500).train_profiles(profiles)
        sample = test_corpus.documents[:20]
        correct = sum(identifier.classify(d.text).language == d.language for d in sample)
        assert correct >= 19

    def test_untrained_raises(self):
        with pytest.raises(RuntimeError):
            LanguageIdentifier(backend="exact").classify("text")


@pytest.mark.parametrize("text", ["", "ab"])
@pytest.mark.parametrize("backend", available_backends())
def test_zero_ngram_document_is_undetermined_on_every_engine(backend, text, profiles):
    # "ab" is shorter than n=4: like the empty document it yields no n-grams,
    # so no engine may hand the all-zero tie to the first trained language
    identifier = LanguageIdentifier(backend=backend, t=1500).train_profiles(profiles)
    for result in (identifier.classify(text), *identifier.classify_batch([text, text])):
        assert result.language == UNDETERMINED_LANGUAGE
        assert result.ngram_count == 0
        assert result.match_counts == {language: 0 for language in profiles}
