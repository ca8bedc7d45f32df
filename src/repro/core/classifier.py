"""The multi-language n-gram classifier (the paper's core contribution, software model).

Given a set of per-language profiles, classification of a document proceeds exactly
as in the HAIL recipe (Section 2), with the profile membership test realised by
Parallel Bloom Filters (Section 3):

1. Convert the document to the 5-bit alphabet and extract its 4-grams.
2. Test every 4-gram against every language's filter; count the matches per language.
3. The language with the highest match count is the classification result.

Step 1 and the whole text-to-result path belong to
:class:`repro.api.identifier.LanguageIdentifier`; this module holds the two
ends the engines share:

:func:`result_from_counts`
    Step 3: the one rule turning per-language counts into a
    :class:`ClassificationResult` (zero-n-gram documents are ``und``).
:class:`BloomNGramClassifier`
    Step 2's programming object: one
    :class:`~repro.core.bloom.ParallelBloomFilter` per language, programmed
    from its profile, with a per-document :meth:`~BloomNGramClassifier.match_counts` reference
    that the ``bloom`` backend's batch probe and the hardware engine in
    :mod:`repro.hardware.classifier_engine` are bit-exact with for the same seed.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from repro.core.bloom import ParallelBloomFilter
from repro.core.fpr import false_positive_rate
from repro.core.profile import LanguageProfile
from repro.hashes.base import HashFamily
from repro.hashes.families import make_hash_family

__all__ = [
    "ClassificationResult",
    "BloomNGramClassifier",
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


class BloomNGramClassifier:
    """Per-language Parallel Bloom Filters programmed from language profiles.

    The programming object behind the ``bloom`` backend: :meth:`fit_profiles`
    programs one :class:`~repro.core.bloom.ParallelBloomFilter` per language
    through a shared hash family, and :meth:`match_counts` is the per-document
    reference the batch probe and the hardware engine are checked against.
    Text extraction and result building live in
    :class:`~repro.api.identifier.LanguageIdentifier`.

    Parameters
    ----------
    m_bits:
        Per-hash bit-vector length (16 Kbit in the paper's most conservative
        configuration; 8 Kbit and 4 Kbit are explored in Table 1).
    k:
        Number of hash functions / bit-vectors per language.
    key_bits:
        Width of the n-gram keys the filters are programmed and probed with
        (``n * 5`` for packed keys, 64 for rolling fingerprints; see
        :attr:`repro.api.config.ClassifierConfig.key_bits`).
    hash_family:
        Name of the hash family (``"h3"`` by default) or an explicit
        :class:`~repro.hashes.base.HashFamily` shared by all languages.
    seed:
        Seed for hash-function construction; classifiers built with the same seed
        address identical bit-vector cells (used by the hardware-equivalence tests).
    """

    def __init__(
        self,
        m_bits: int = 16 * 1024,
        k: int = 4,
        key_bits: int = 20,
        hash_family: str | HashFamily = "h3",
        seed: int = 0,
    ):
        self.m_bits = int(m_bits)
        self.k = int(k)
        self.key_bits = int(key_bits)
        self.seed = int(seed)
        if isinstance(hash_family, HashFamily):
            self.hashes = hash_family
        else:
            out_bits = int(np.log2(self.m_bits))
            self.hashes = make_hash_family(
                hash_family, k=self.k, key_bits=self.key_bits, out_bits=out_bits, seed=seed
            )
        self.profiles: dict[str, LanguageProfile] = {}
        self.filters: dict[str, ParallelBloomFilter] = {}

    @property
    def languages(self) -> list[str]:
        """Languages the filters are programmed with, in training order."""
        return list(self.profiles)

    def _check_trained(self) -> None:
        if not self.profiles:
            raise RuntimeError("classifier has not been trained; call fit_profiles() first")

    # -- programming ---------------------------------------------------------

    def fit_profiles(self, profiles: Mapping[str, LanguageProfile]) -> "BloomNGramClassifier":
        """Program one Parallel Bloom Filter per language from prebuilt profiles."""
        if not profiles:
            raise ValueError("at least one language profile is required")
        self.profiles = dict(profiles)
        self.filters = {}
        for language, profile in self.profiles.items():
            filt = ParallelBloomFilter(
                m_bits=self.m_bits, k=self.k, key_bits=self.key_bits, hashes=self.hashes
            )
            filt.add_many(profile.ngrams)
            self.filters[language] = filt
        return self

    # -- counting ------------------------------------------------------------

    def match_counts(self, packed: np.ndarray) -> np.ndarray:
        """Per-language Bloom-filter match counts for one document (the hardware counters)."""
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
        """Analytical false-positive rate for the configured ``(m, k)`` and the largest profile."""
        self._check_trained()
        n_items = max(len(p) for p in self.profiles.values())
        return false_positive_rate(n_items, self.m_bits, self.k)

    def measured_fpr(self, sample_size: int = 20000, seed: int = 1234) -> dict[str, float]:
        """Empirical false-positive rate per language on random non-member n-grams."""
        self._check_trained()
        rng = np.random.default_rng(seed)
        key_space = 1 << self.key_bits
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
