"""Backend adapters: every classifier flavour behind the one :class:`Backend` contract.

Five engines are registered:

``bloom``
    The paper's design — per-language Parallel Bloom Filters
    (:class:`repro.core.classifier.BloomNGramClassifier`).  Persists its
    bit-vectors so a loaded model answers without re-programming.
``exact``
    The no-false-positive reference — exact profile membership
    (:class:`repro.core.classifier.ExactNGramClassifier`).
``hw-sim``
    The cycle-approximate FPGA datapath
    (:class:`repro.hardware.classifier_engine.ParallelMultiLanguageClassifier`),
    bit-exact with ``bloom`` for the same seed but also accounting clock cycles.
``mguesser``
    An mguesser-style frequency scorer over the packed n-gram pipeline: each
    language scores a document by the summed training-set frequency of its
    n-grams.  Scores are fixed-point integers (1e-6 units) so the backend shares
    the integer counter semantics of the hardware.
``hail``
    The competing HAIL design — a direct-lookup SRAM table with per-bucket
    language bitmaps (:class:`repro.baselines.hail.HailClassifier`).

All adapters consume the same per-language :class:`~repro.core.profile.LanguageProfile`
objects and hash / look up a whole batch at once in ``match_counts_batch``
wherever the underlying structure allows it.

``bloom`` and ``hw-sim`` share one probe: each n-gram is hashed once and each
of its ``k`` addresses gathers one packed row of every language's bit at that
address (:mod:`repro.core.bloom`); the ANDed rows are unpacked to the
``(languages, n_ngrams)`` hit matrix that per-language segment sums reduce to
per-document counts.  ``hail`` unpacks its SRAM bitmaps the same way.
"""

from __future__ import annotations

from collections.abc import Mapping

import numpy as np

from repro.api.config import ClassifierConfig
from repro.api.registry import Backend, register_backend
from repro.baselines.hail import HailClassifier
from repro.core.bloom import (
    ParallelBloomFilter,
    pack_language_rows,
    probe_language_rows,
    unpack_language_rows,
)
from repro.core.classifier import BloomNGramClassifier, ExactNGramClassifier
from repro.core.ngram import segment_sums
from repro.core.profile import LanguageProfile
from repro.hardware.classifier_engine import ParallelMultiLanguageClassifier

__all__ = [
    "BloomBackend",
    "ExactBackend",
    "HardwareSimBackend",
    "MguesserBackend",
    "HailBackend",
]

#: fixed-point scale of the mguesser backend's frequency scores
MGUESSER_SCORE_SCALE = 1_000_000

#: n-grams hashed per step of the batch path; sized so the hash temporaries
#: (~9 arrays of 8 bytes per key) stay cache-resident instead of streaming
#: multi-megabyte intermediates through DRAM
BATCH_CHUNK_NGRAMS = 1 << 16


def _language_hits(rows: np.ndarray, hashes, packed: np.ndarray, n_languages: int) -> np.ndarray:
    """``(languages, n_ngrams)`` membership from address-major language rows.

    Per chunk, every n-gram is hashed once, its ``k`` addresses each gather one
    packed language row, and the ANDed rows are unpacked into the result.
    """
    hits = np.empty((n_languages, packed.size), dtype=bool)
    for start in range(0, packed.size, BATCH_CHUNK_NGRAMS):
        addresses = hashes.hash_all(packed[start : start + BATCH_CHUNK_NGRAMS])
        unpack_language_rows(
            probe_language_rows(rows, addresses),
            n_languages,
            out=hits[:, start : start + addresses.shape[1]],
        )
    return hits


@register_backend("bloom")
class BloomBackend(Backend):
    """The paper's Parallel-Bloom-Filter classifier."""

    def __init__(self, config: ClassifierConfig):
        super().__init__(config)
        self.classifier = BloomNGramClassifier(
            m_bits=config.m_bits,
            k=config.k,
            n=config.n,
            t=config.t,
            hash_family=config.hash_family,
            seed=config.seed,
            subsample_stride=config.subsample_stride,
            hash_mode=config.resolved_hash_mode,
        )
        self._stacked_bits: np.ndarray | None = None
        self._rows: np.ndarray | None = None

    def fit_profiles(self, profiles: Mapping[str, LanguageProfile]) -> None:
        self.classifier.fit_profiles(profiles)
        self.profiles = self.classifier.profiles
        self._stacked_bits = self._rows = None

    def _stacked_bit_vectors(self) -> np.ndarray:
        """All languages' bit-vectors as one ``(k, languages, m_bits)`` matrix.

        The flat/shared-memory artifact layout, and the source the probe's
        language rows are packed from.
        """
        if getattr(self, "_stacked_bits", None) is None:
            self._stacked_bits = np.stack(
                [filt.bit_vectors for filt in self.classifier.filters.values()], axis=1
            )
        return self._stacked_bits

    def _language_rows(self) -> np.ndarray:
        """The probe's gather target (:func:`~repro.core.bloom.pack_language_rows`).

        Built on first use and dropped whenever the filters are replaced.
        """
        if self._rows is None:
            self._rows = pack_language_rows(self._stacked_bit_vectors())
        return self._rows

    def ngram_hits(self, packed: np.ndarray) -> np.ndarray:
        """Boolean ``(languages, n_ngrams)`` membership matrix, one hash pass.

        Each n-gram is hashed exactly once and each of its ``k`` addresses
        gathers one packed language row (``ceil(languages / 8)`` bytes) — the
        same address broadcast :meth:`~repro.core.bloom.ParallelBloomFilter.test_addresses`
        gives the per-document path, read address-major.  Chunking keeps the
        hash temporaries cache-resident.  This matrix is both the batch path's
        intermediate and the windowed segmentation scorer's input.
        """
        self._check_trained()
        packed = np.asarray(packed, dtype=np.uint64)
        n_languages = len(self.classifier.filters)
        if packed.size == 0:
            return np.zeros((n_languages, 0), dtype=bool)
        return _language_hits(self._language_rows(), self.classifier.hashes, packed, n_languages)

    def match_counts_batch(self, packed: np.ndarray, lengths: np.ndarray) -> np.ndarray:
        self._check_trained()
        lengths = np.asarray(lengths, dtype=np.int64)
        n_languages = len(self.classifier.filters)
        out = np.zeros((lengths.size, n_languages), dtype=np.int64)
        if packed.size == 0:
            return out
        # Each n-gram of the batch is hashed exactly once and the addresses are
        # reused across every document *and* every language (ngram_hits);
        # per-document totals fall out of the shared segment reduction.
        hits = self.ngram_hits(packed)
        for column in range(n_languages):
            out[:, column] = segment_sums(hits[column], lengths)
        return out

    # -- persistence ---------------------------------------------------------

    def export_state(self) -> dict[str, np.ndarray]:
        state: dict[str, np.ndarray] = {}
        for language, filt in self.classifier.filters.items():
            payload = filt.to_arrays()
            state[f"bits:{language}"] = payload["bits"]
            state[f"n_items:{language}"] = np.asarray([payload["n_items"]], dtype=np.int64)
        return state

    def import_state(
        self, profiles: Mapping[str, LanguageProfile], state: Mapping[str, np.ndarray]
    ) -> None:
        required = {f"bits:{language}" for language in profiles} | {
            f"n_items:{language}" for language in profiles
        }
        present = {key for key in state if key.startswith(("bits:", "n_items:"))}
        if present != required:
            # Incomplete or mismatched state: rebuild deterministically instead.
            self.fit_profiles(profiles)
            return
        self.profiles = self.classifier.profiles = dict(profiles)
        self._stacked_bits = self._rows = None
        self.classifier.filters = {}
        for language in profiles:
            payload = {
                "kind": "parallel",
                "m_bits": self.config.m_bits,
                "k": self.config.k,
                "key_bits": self.config.key_bits,
                "bits": state[f"bits:{language}"],
                "n_items": int(np.asarray(state[f"n_items:{language}"])[0]),
            }
            self.classifier.filters[language] = ParallelBloomFilter.from_arrays(
                payload, hashes=self.classifier.hashes
            )

    # -- zero-copy sharing ---------------------------------------------------

    def export_shared_state(self) -> dict[str, np.ndarray]:
        """The flat/shared-memory layout: unpacked stacked bit-vectors.

        ``stacked_bits`` is the ``(k, languages, m_bits)`` matrix (one byte
        per bit) the probe's language rows are packed from, in
        training-language order; ``n_items`` carries each language's
        programmed-key count.  Stored unpacked (8x the packed ``.npz`` size)
        precisely so a read-only mmap/shared-memory buffer can back the live
        filters with zero copies.
        """
        self._check_trained()
        stacked = self._stacked_bit_vectors()
        return {
            "stacked_bits": np.ascontiguousarray(stacked).view(np.uint8),
            "n_items": np.asarray(
                [filt.n_items for filt in self.classifier.filters.values()], dtype=np.int64
            ),
        }

    def import_shared_state(
        self, profiles: Mapping[str, LanguageProfile], state: Mapping[str, np.ndarray]
    ) -> None:
        """Adopt :meth:`export_shared_state` arrays as live filter state, zero-copy.

        Each language's filter becomes a ``(k, m_bits)`` view into the stacked
        matrix, so when the arrays are buffer-backed (mmap / shared memory) the
        filters own no bit storage of their own — every replica process reads
        one physical copy.  Only the probe's packed language rows (about 1/8
        of the matrix's size) are built per process.
        Incomplete or mismatched state falls back to a deterministic rebuild
        from the profiles, exactly like :meth:`import_state`.
        """
        stacked = state.get("stacked_bits")
        n_items = state.get("n_items")
        expected_shape = (self.config.k, len(profiles), self.config.m_bits)
        if (
            stacked is None
            or n_items is None
            or np.asarray(stacked).shape != expected_shape
            or np.asarray(stacked).dtype not in (np.dtype(bool), np.dtype(np.uint8))
            or np.asarray(n_items).shape != (len(profiles),)
        ):
            self.fit_profiles(profiles)
            return
        stacked = np.asarray(stacked)
        bits = stacked if stacked.dtype == np.dtype(bool) else stacked.view(bool)
        n_items = np.asarray(n_items, dtype=np.int64)
        self.profiles = self.classifier.profiles = dict(profiles)
        self._stacked_bits = bits
        self._rows = None
        self.classifier.filters = {}
        for index, language in enumerate(profiles):
            payload = {
                "kind": "parallel",
                "m_bits": self.config.m_bits,
                "k": self.config.k,
                "key_bits": self.config.key_bits,
                "bits": bits[:, index, :],
                "n_items": int(n_items[index]),
            }
            self.classifier.filters[language] = ParallelBloomFilter.from_arrays(
                payload, hashes=self.classifier.hashes, copy=False
            )

    def describe(self) -> dict:
        info = super().describe()
        info["memory_bits_per_language"] = self.classifier.memory_bits_per_language
        info["expected_fpr"] = self.classifier.expected_fpr() if self.profiles else None
        info["shared_bit_vectors"] = (
            self._stacked_bits is not None and not self._stacked_bits.flags.writeable
        )
        return info


@register_backend("exact")
class ExactBackend(Backend):
    """Exact profile membership — the accuracy reference without false positives."""

    def __init__(self, config: ClassifierConfig):
        super().__init__(config)
        self.classifier = ExactNGramClassifier(
            n=config.n,
            t=config.t,
            subsample_stride=config.subsample_stride,
            hash_mode=config.resolved_hash_mode,
        )

    def fit_profiles(self, profiles: Mapping[str, LanguageProfile]) -> None:
        self.classifier.fit_profiles(profiles)
        self.profiles = self.classifier.profiles

    def match_counts_batch(self, packed: np.ndarray, lengths: np.ndarray) -> np.ndarray:
        self._check_trained()
        lengths = np.asarray(lengths, dtype=np.int64)
        out = np.zeros((lengths.size, len(self.languages)), dtype=np.int64)
        if packed.size == 0:
            return out
        # One searchsorted over the whole batch per language; per-document
        # totals fall out of the shared segment reduction.
        for column, (_language, hits) in enumerate(self.classifier.membership_hits(packed)):
            out[:, column] = segment_sums(hits, lengths)
        return out

    def ngram_hits(self, packed: np.ndarray) -> np.ndarray:
        self._check_trained()
        packed = np.asarray(packed, dtype=np.uint64)
        if packed.size == 0:
            return np.zeros((len(self.languages), 0), dtype=bool)
        return np.stack(
            [hits for _language, hits in self.classifier.membership_hits(packed)]
        )


@register_backend("hw-sim")
class HardwareSimBackend(Backend):
    """Cycle-approximate FPGA engine (4 copies × dual-ported filters, 8 n-grams/clock)."""

    def __init__(self, config: ClassifierConfig):
        super().__init__(config)
        if config.hash_family != "h3":
            raise ValueError(
                "the hw-sim backend models the paper's H3 hash hardware; "
                f"hash_family={config.hash_family!r} is not supported"
            )
        if config.resolved_hash_mode != "packed":
            raise ValueError(
                "the hw-sim backend models the paper's packed-key datapath; "
                'rolling fingerprints are a software extension (use backend="bloom")'
            )
        self.engine = ParallelMultiLanguageClassifier(
            m_bits=config.m_bits,
            k=config.k,
            key_bits=config.key_bits,
            seed=config.seed,
            n=config.n,
        )

    def fit_profiles(self, profiles: Mapping[str, LanguageProfile]) -> None:
        if not profiles:
            raise ValueError("at least one language profile is required")
        self.engine.load_profiles_fast(profiles)
        self.profiles = dict(profiles)

    def match_counts_batch(self, packed: np.ndarray, lengths: np.ndarray) -> np.ndarray:
        """Counts from the datapath model, one ``process_document`` run per document."""
        self._check_trained()
        packed = np.asarray(packed, dtype=np.uint64)
        lengths = np.asarray(lengths, dtype=np.int64)
        languages = self.languages
        out = np.zeros((lengths.size, len(languages)), dtype=np.int64)
        start = 0
        for row, length in enumerate(lengths.tolist()):
            report = self.engine.process_document(packed[start : start + length])
            out[row] = [report.match_counts[language] for language in languages]
            start += length
        return out

    def ngram_hits(self, packed: np.ndarray) -> np.ndarray:
        """Functional per-n-gram membership from the RAM snapshots, one hash pass.

        Packs the first engine copy's bit-vector snapshots (every copy is
        programmed identically) into language rows and runs the bloom
        backend's probe on them, so the result is bit-exact with the
        cycle-accurate datapath but skips the per-cycle simulation — without
        this override the generic fallback would run one full
        ``process_document`` simulation per n-gram.  No cycles are accounted.
        """
        self._check_trained()
        packed = np.asarray(packed, dtype=np.uint64)
        if packed.size == 0:
            return np.zeros((len(self.languages), 0), dtype=bool)
        engines = self.engine.units[0].engines.values()
        stacked = np.stack(
            [np.stack([vector.snapshot() for vector in engine.vectors]) for engine in engines],
            axis=1,
        )
        return _language_hits(
            pack_language_rows(stacked), self.engine.hashes, packed, len(self.languages)
        )

    def describe(self) -> dict:
        info = super().describe()
        info["ngrams_per_clock"] = self.engine.ngrams_per_clock
        info["copies"] = self.engine.copies
        return info


@register_backend("mguesser")
class MguesserBackend(Backend):
    """Mguesser-style frequency scoring over the packed n-gram pipeline.

    Each language weights its profile n-grams by normalised training frequency;
    a document's score is the summed weight of its n-grams (with multiplicity),
    reported as fixed-point integers in units of ``1 / MGUESSER_SCORE_SCALE``.
    """

    def __init__(self, config: ClassifierConfig):
        super().__init__(config)
        self._sorted_ngrams: dict[str, np.ndarray] = {}
        self._weights: dict[str, np.ndarray] = {}

    def fit_profiles(self, profiles: Mapping[str, LanguageProfile]) -> None:
        if not profiles:
            raise ValueError("at least one language profile is required")
        self._sorted_ngrams = {}
        self._weights = {}
        for language, profile in profiles.items():
            order = np.argsort(profile.ngrams)
            total = float(profile.counts.sum()) or 1.0
            self._sorted_ngrams[language] = profile.ngrams[order]
            self._weights[language] = profile.counts[order].astype(np.float64) / total
        self.profiles = dict(profiles)

    def _weights_of(self, language: str, packed: np.ndarray) -> np.ndarray:
        sorted_ngrams = self._sorted_ngrams[language]
        weights = self._weights[language]
        positions = np.searchsorted(sorted_ngrams, packed)
        positions = np.clip(positions, 0, max(sorted_ngrams.size - 1, 0))
        if sorted_ngrams.size == 0:
            return np.zeros(packed.size, dtype=np.float64)
        member = sorted_ngrams[positions] == packed
        return np.where(member, weights[positions], 0.0)

    def match_counts_batch(self, packed: np.ndarray, lengths: np.ndarray) -> np.ndarray:
        self._check_trained()
        lengths = np.asarray(lengths, dtype=np.int64)
        out = np.zeros((lengths.size, len(self.languages)), dtype=np.int64)
        if packed.size == 0:
            return out
        packed = np.asarray(packed, dtype=np.uint64)
        ends = np.cumsum(lengths)
        starts = ends - lengths
        for column, language in enumerate(self.languages):
            weights = self._weights_of(language, packed)
            # Sum each document's slice on its own so its rounded score does
            # not depend on which other documents share the batch.
            for row in range(lengths.size):
                score = float(weights[starts[row] : ends[row]].sum())
                out[row, column] = int(round(score * MGUESSER_SCORE_SCALE))
        return out

    def ngram_hits(self, packed: np.ndarray) -> np.ndarray:
        self._check_trained()
        packed = np.asarray(packed, dtype=np.uint64)
        if packed.size == 0:
            return np.zeros((len(self.languages), 0), dtype=np.int64)
        out = np.zeros((len(self.languages), packed.size), dtype=np.int64)
        for row, language in enumerate(self.languages):
            out[row] = np.round(
                self._weights_of(language, packed) * MGUESSER_SCORE_SCALE
            ).astype(np.int64)
        return out

    def describe(self) -> dict:
        info = super().describe()
        info["score_scale"] = MGUESSER_SCORE_SCALE
        return info


@register_backend("hail")
class HailBackend(Backend):
    """The competing HAIL design: one SRAM lookup per n-gram, language bitmaps."""

    #: log2 of the SRAM hash-table bucket count (the real board's SRAM is generous)
    TABLE_BITS = 20

    def __init__(self, config: ClassifierConfig):
        super().__init__(config)
        self.classifier = HailClassifier(
            table_bits=self.TABLE_BITS,
            n=config.n,
            t=config.t,
            seed=config.seed,
            hash_mode=config.resolved_hash_mode,
        )

    def fit_profiles(self, profiles: Mapping[str, LanguageProfile]) -> None:
        self.classifier.fit_profiles(profiles)
        self.profiles = dict(profiles)

    def match_counts_batch(self, packed: np.ndarray, lengths: np.ndarray) -> np.ndarray:
        self._check_trained()
        return self.classifier.match_counts_batch(packed, lengths)

    def ngram_hits(self, packed: np.ndarray) -> np.ndarray:
        self._check_trained()
        return self.classifier.ngram_hits(packed)

    def describe(self) -> dict:
        info = super().describe()
        info["table_bits"] = self.TABLE_BITS
        info["table_fill_ratio"] = self.classifier.table_fill_ratio
        return info
