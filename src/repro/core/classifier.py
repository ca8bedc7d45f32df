"""The multi-language n-gram classifier (the paper's core contribution, software model).

Given a set of per-language profiles, classification of a document proceeds exactly
as in the HAIL recipe (Section 2), with the profile membership test realised by
Parallel Bloom Filters (Section 3):

1. Convert the document to the 5-bit alphabet and extract its 4-grams.
2. Test every 4-gram against every language's filter; count the matches per language.
3. The language with the highest match count is the classification result.

Two classifiers are provided:

:class:`BloomNGramClassifier`
    Membership via :class:`~repro.core.bloom.ParallelBloomFilter` — bit-exact with
    the hardware engine in :mod:`repro.hardware.classifier_engine` when built with
    the same seed.
:class:`ExactNGramClassifier`
    Membership via exact profile lookup (a software stand-in for HAIL's direct
    memory table).  Used as the accuracy reference to isolate the effect of Bloom
    filter false positives.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.core.bloom import ParallelBloomFilter
from repro.core.fpr import false_positive_rate
from repro.core.ngram import DEFAULT_N, NGramExtractor
from repro.core.profile import DEFAULT_PROFILE_SIZE, LanguageProfile, build_profiles
from repro.hashes.base import HashFamily
from repro.hashes.families import make_hash_family

__all__ = [
    "ClassificationResult",
    "BloomNGramClassifier",
    "ExactNGramClassifier",
    "normalized_separation",
    "result_from_counts",
    "undetermined_result",
    "UNDETERMINED_LANGUAGE",
]

#: the explicit zero-evidence label (ISO 639-2 "undetermined"): returned when a
#: document yields no n-grams at all (empty, or shorter than ``n``), so callers
#: can tell "no evidence" apart from "first language won a genuine tie"
UNDETERMINED_LANGUAGE = "und"


def undetermined_result(
    languages: Iterable[str],
    *,
    ngram_count: int = 0,
    abstain_reason: str | None = None,
) -> "ClassificationResult":
    """The canonical zero-evidence result: ``und`` label, all-zero counts.

    Shared by every classification surface (:func:`result_from_counts`, the
    segmenter's too-short path and the ensemble backend's abstention) so
    abstention logic can rely on one representation of "this document carried
    no usable evidence".  The ensemble passes ``ngram_count``/``abstain_reason`` to say
    *why* it declined to label a document that did carry n-grams.
    """
    return ClassificationResult(
        language=UNDETERMINED_LANGUAGE,
        match_counts={language: 0 for language in languages},
        ngram_count=ngram_count,
        abstain_reason=abstain_reason,
    )


def result_from_counts(
    languages: Sequence[str], counts: np.ndarray, ngram_count: int
) -> "ClassificationResult":
    """The one rule turning per-language counts into a :class:`ClassificationResult`.

    ``counts`` is aligned with ``languages``.  A document that yielded zero
    n-grams (empty, or shorter than ``n``) has no evidence to rank languages
    with and comes back as the explicit :func:`undetermined_result`.  With at
    least one n-gram the highest count wins; ties — all-zero match counts
    included — go to the earliest language in ``languages``, the
    priority-encoder rule the hardware uses.
    """
    if ngram_count == 0:
        return undetermined_result(languages)
    return ClassificationResult(
        language=languages[int(np.argmax(counts))],
        match_counts={lang: int(c) for lang, c in zip(languages, counts)},
        ngram_count=int(ngram_count),
    )


def normalized_separation(top: int, rival: int) -> float:
    """Normalized separation ``(top - rival) / top``, clamped to ``[0, 1]``.

    The one confidence definition shared by whole-document classification
    (:attr:`ClassificationResult.confidence`) and span labelling
    (:class:`repro.segment.types.Span`), so the two surfaces stay comparable:
    0 when the top two scores tie (or nothing matched), 1 when no rival
    matched at all.
    """
    if top <= 0:
        return 0.0
    return max(0.0, (top - rival) / top)


@dataclass
class ClassificationResult:
    """Outcome of classifying one document.

    Attributes
    ----------
    language:
        The predicted language (highest match count; ties broken by language order,
        which mirrors the deterministic priority encoder a hardware design would
        use).  A document yielding no n-grams at all (empty or shorter than
        ``n``) carries no evidence and is labelled
        :data:`UNDETERMINED_LANGUAGE` (``"und"``) with zero confidence instead
        of silently winning the all-zero tie for the first language.
    match_counts:
        Mapping from language to its match counter value.
    ngram_count:
        Number of n-grams tested (document length minus ``n - 1``).
    calibrated_confidence:
        A measured P(correct) in ``[0, 1]`` when the producing backend carries
        fitted calibrators (the ensemble's vote share); ``None`` everywhere
        else — :attr:`confidence` stays the raw separation score.
    abstain_reason:
        Why the ensemble declined to label this document (``"too_short"``,
        ``"low_alpha_rate"``, ``"tie"``); ``None`` for ordinary predictions
        and for the plain zero-evidence ``und``.
    member_votes:
        Per-member vote breakdown ``{member: {"language": ..., "weight": ...}}``
        from the ensemble backend; ``None`` for single-engine results.
    """

    language: str
    match_counts: dict[str, int]
    ngram_count: int
    calibrated_confidence: float | None = None
    abstain_reason: str | None = None
    member_votes: dict[str, dict] | None = None

    @property
    def scores(self) -> dict[str, float]:
        """Match counts normalised by the number of tested n-grams."""
        if self.ngram_count == 0:
            return {lang: 0.0 for lang in self.match_counts}
        return {lang: count / self.ngram_count for lang, count in self.match_counts.items()}

    @property
    def margin(self) -> int:
        """Difference between the two highest match counts (Section 5.1's separation)."""
        counts = sorted(self.match_counts.values(), reverse=True)
        if len(counts) < 2:
            return counts[0] if counts else 0
        return counts[0] - counts[1]

    @property
    def confidence(self) -> float:
        """Normalized separation ``(top - runner_up) / top``, in ``[0, 1]``.

        0 means the top two languages tied (or no n-gram matched anything);
        1 means no other language matched at all.  Unlike :attr:`margin`, the
        value is comparable across document lengths and across backends whose
        counters use different scales (Bloom hits vs fixed-point scores).

        This is a *raw separation score*, not a probability: the classifier is
        right far more often than the value suggests.  To turn it into a
        measured P(correct), fit a
        :class:`repro.eval.calibration.ConfidenceCalibrator` (the evaluation
        matrix of :mod:`repro.eval` does this per backend and reports the
        expected calibration error before and after).
        """
        # single pass for the top two counts: this runs once per document on
        # the serving/analytics hot path, where a full sort is measurable
        # (match counters are non-negative, so 0 is a safe floor)
        top = runner = 0
        for count in self.match_counts.values():
            if count > top:
                runner = top
                top = count
            elif count > runner:
                runner = count
        return normalized_separation(top, runner)

    def ranking(self) -> list[tuple[str, int]]:
        """Languages ordered by decreasing match count."""
        return sorted(self.match_counts.items(), key=lambda kv: (-kv[1], kv[0]))


class _ClassifierBase:
    """Shared training/extraction plumbing for both classifier flavours."""

    def __init__(
        self,
        n: int = DEFAULT_N,
        t: int = DEFAULT_PROFILE_SIZE,
        subsample_stride: int = 1,
        hash_mode: str = "packed",
    ):
        self.n = int(n)
        self.t = int(t)
        self.hash_mode = hash_mode
        self.extractor = NGramExtractor(
            n=self.n, subsample_stride=subsample_stride, mode=hash_mode
        )
        self.profiles: dict[str, LanguageProfile] = {}

    # -- training ------------------------------------------------------------

    @property
    def languages(self) -> list[str]:
        """Languages the classifier has been trained on, in training order."""
        return list(self.profiles)

    def fit(self, corpus) -> "_ClassifierBase":
        """Train from a :class:`repro.corpus.corpus.Corpus` (uses every document in it)."""
        texts_by_language: dict[str, list[str]] = {}
        for doc in corpus:
            texts_by_language.setdefault(doc.language, []).append(doc.text)
        return self.fit_texts(texts_by_language)

    def fit_texts(self, training_texts: Mapping[str, Iterable[str]]) -> "_ClassifierBase":
        """Train from a mapping of language → iterable of training documents."""
        profiles = build_profiles(training_texts, n=self.n, t=self.t, extractor=self.extractor)
        return self.fit_profiles(profiles)

    def fit_profiles(self, profiles: Mapping[str, LanguageProfile]) -> "_ClassifierBase":
        """Train from prebuilt profiles (subclasses program their membership structures)."""
        if not profiles:
            raise ValueError("at least one language profile is required")
        self.profiles = dict(profiles)
        self._program()
        return self

    def _program(self) -> None:  # pragma: no cover - overridden
        raise NotImplementedError

    def _check_trained(self) -> None:
        if not self.profiles:
            raise RuntimeError("classifier has not been trained; call fit() first")

    # -- classification ------------------------------------------------------

    def match_counts(self, packed: np.ndarray) -> np.ndarray:  # pragma: no cover - overridden
        """Per-language match counts for an array of packed n-grams."""
        raise NotImplementedError

    def classify_packed(self, packed: np.ndarray) -> ClassificationResult:
        """Classify a document given its n-gram keys (see :func:`result_from_counts`)."""
        self._check_trained()
        packed = np.asarray(packed, dtype=np.uint64)
        return result_from_counts(self.languages, self.match_counts(packed), packed.size)

    def classify_text(self, text: str | bytes) -> ClassificationResult:
        """Classify a raw document (string or ISO-8859-1 bytes)."""
        return self.classify_packed(self.extractor.extract(text))

    def classify_batch(self, texts: Iterable[str | bytes]) -> list[ClassificationResult]:
        """Classify several documents."""
        return [self.classify_text(t) for t in texts]


class BloomNGramClassifier(_ClassifierBase):
    """Language classifier whose profile membership tests use Parallel Bloom Filters.

    Parameters
    ----------
    m_bits:
        Per-hash bit-vector length (16 Kbit in the paper's most conservative
        configuration; 8 Kbit and 4 Kbit are explored in Table 1).
    k:
        Number of hash functions / bit-vectors per language.
    n, t:
        N-gram order and profile size (4 and 5 000 in the paper).
    hash_family:
        Name of the hash family (``"h3"`` by default) or an explicit
        :class:`~repro.hashes.base.HashFamily` shared by all languages.
    seed:
        Seed for hash-function construction; classifiers built with the same seed
        address identical bit-vector cells (used by the hardware-equivalence tests).
    subsample_stride:
        Optional HAIL-style n-gram subsampling applied at classification time.
    hash_mode:
        N-gram key generation: ``"packed"`` bit-packed windows (n capped at
        12), or ``"rolling"`` 64-bit rolling fingerprints
        (:mod:`repro.core.rolling`) for arbitrarily large n.  The hash family
        then sees 64-bit keys; ``"multiply-shift"`` is the fast choice there.
    """

    def __init__(
        self,
        m_bits: int = 16 * 1024,
        k: int = 4,
        n: int = DEFAULT_N,
        t: int = DEFAULT_PROFILE_SIZE,
        hash_family: str | HashFamily = "h3",
        seed: int = 0,
        subsample_stride: int = 1,
        hash_mode: str = "packed",
    ):
        super().__init__(n=n, t=t, subsample_stride=subsample_stride, hash_mode=hash_mode)
        self.m_bits = int(m_bits)
        self.k = int(k)
        self.seed = int(seed)
        key_bits = self.extractor.key_bits
        if isinstance(hash_family, HashFamily):
            self.hashes = hash_family
        else:
            out_bits = int(np.log2(self.m_bits))
            self.hashes = make_hash_family(
                hash_family, k=self.k, key_bits=key_bits, out_bits=out_bits, seed=seed
            )
        self.filters: dict[str, ParallelBloomFilter] = {}

    # -- programming ---------------------------------------------------------

    def _program(self) -> None:
        self.filters = {}
        for language, profile in self.profiles.items():
            filt = ParallelBloomFilter(
                m_bits=self.m_bits,
                k=self.k,
                key_bits=self.extractor.key_bits,
                hashes=self.hashes,
            )
            filt.add_many(profile.ngrams)
            self.filters[language] = filt

    # -- classification ------------------------------------------------------

    def match_counts(self, packed: np.ndarray) -> np.ndarray:
        """Per-language Bloom-filter match counts (the hardware counters)."""
        self._check_trained()
        packed = np.asarray(packed, dtype=np.uint64)
        counts = np.zeros(len(self.filters), dtype=np.int64)
        if packed.size == 0:
            return counts
        # All languages share the same hash family, so hash once and reuse the
        # addresses for every language's bit-vectors — the same sharing the
        # hardware gets by broadcasting the hashed addresses to every filter.
        addresses = self.hashes.hash_all(packed)  # (k, n)
        for idx, filt in enumerate(self.filters.values()):
            counts[idx] = int(filt.test_addresses(addresses).sum())
        return counts

    # -- introspection -------------------------------------------------------

    @property
    def memory_bits_per_language(self) -> int:
        """Embedded-RAM bits one language occupies (``k * m_bits``)."""
        return self.k * self.m_bits

    def expected_fpr(self) -> float:
        """Analytical false-positive rate for the configured ``(m, k)`` and profile size."""
        n_items = self.t
        if self.profiles:
            n_items = max(len(p) for p in self.profiles.values())
        return false_positive_rate(n_items, self.m_bits, self.k)

    def measured_fpr(self, sample_size: int = 20000, seed: int = 1234) -> dict[str, float]:
        """Empirical false-positive rate per language on random non-member n-grams."""
        self._check_trained()
        rng = np.random.default_rng(seed)
        key_space = 1 << self.extractor.key_bits
        probes = rng.integers(0, key_space, size=sample_size, dtype=np.uint64)
        rates = {}
        for language, filt in self.filters.items():
            profile = self.profiles[language]
            non_members = probes[~profile.contains_many(probes)]
            if non_members.size == 0:
                rates[language] = 0.0
                continue
            hits = filt.contains_many(non_members)
            rates[language] = float(hits.mean())
        return rates


class ExactNGramClassifier(_ClassifierBase):
    """Reference classifier using exact profile membership (no false positives).

    Functionally this is what HAIL's direct-memory lookup computes; it is used to
    separate "errors inherent to the n-gram method" from "errors introduced by
    Bloom-filter false positives" in the Table 1 reproduction.
    """

    def __init__(
        self,
        n: int = DEFAULT_N,
        t: int = DEFAULT_PROFILE_SIZE,
        subsample_stride: int = 1,
        hash_mode: str = "packed",
    ):
        super().__init__(n=n, t=t, subsample_stride=subsample_stride, hash_mode=hash_mode)
        self._sorted_profiles: dict[str, np.ndarray] = {}

    def _program(self) -> None:
        self._sorted_profiles = {
            language: np.sort(profile.ngrams) for language, profile in self.profiles.items()
        }

    def membership_hits(self, packed: np.ndarray):
        """Yield ``(language, hits)`` membership masks for the packed n-grams.

        The single lookup kernel shared by :meth:`match_counts` and the batch
        path of the ``exact`` serving backend.  Languages come out in training
        order; ``hits`` is a boolean array aligned with ``packed``.
        """
        self._check_trained()
        packed = np.asarray(packed, dtype=np.uint64)
        for language, sorted_ngrams in self._sorted_profiles.items():
            if sorted_ngrams.size == 0:
                yield language, np.zeros(packed.size, dtype=bool)
                continue
            positions = np.searchsorted(sorted_ngrams, packed)
            positions = np.clip(positions, 0, sorted_ngrams.size - 1)
            yield language, sorted_ngrams[positions] == packed

    def match_counts(self, packed: np.ndarray) -> np.ndarray:
        self._check_trained()
        packed = np.asarray(packed, dtype=np.uint64)
        counts = np.zeros(len(self._sorted_profiles), dtype=np.int64)
        if packed.size == 0:
            return counts
        for idx, (_language, hits) in enumerate(self.membership_hits(packed)):
            counts[idx] = int(hits.sum())
        return counts
