"""Multi-language classifier engines (Figure 2a and the parallel composition).

Two levels of replication give the paper its throughput:

* :class:`MultipleLanguageClassifier` — one Bloom filter per language, all probed in
  parallel; dual-ported RAM lets it test **two** n-grams per clock (Section 3.2).
* :class:`ParallelMultiLanguageClassifier` — several copies (4 in the paper) of the
  multiple-language classifier operating on consecutive n-grams of the input
  stream, so **8** n-grams are tested per clock; an adder tree merges the per-copy
  match counters when the document ends (Section 3.3).

The engines are functional (they produce real match counts and classifications,
bit-exact with :class:`repro.core.classifier.BloomNGramClassifier` for the same
seed) *and* they keep cycle counts so the timing model can turn a document stream
into clock cycles.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from repro.core.alphabet import AlphabetConverter
from repro.core.classifier import ClassificationResult, result_from_counts
from repro.core.ngram import DEFAULT_N, NGramExtractor
from repro.core.profile import LanguageProfile
from repro.hardware.bloom_engine import HardwareBloomFilter
from repro.hardware.memory import RAMKind
from repro.hashes.base import HashFamily
from repro.hashes.h3 import H3Family

__all__ = ["MultipleLanguageClassifier", "ParallelMultiLanguageClassifier", "EngineReport"]


@dataclass
class EngineReport:
    """Cycle/throughput accounting for one processed document or stream."""

    ngrams: int
    cycles: int
    match_counts: dict[str, int]

    def throughput_bytes_per_cycle(self) -> float:
        """Input bytes consumed per clock cycle (1 byte per n-gram in steady state)."""
        return self.ngrams / self.cycles if self.cycles else 0.0


class MultipleLanguageClassifier:
    """``p`` parallel per-language Bloom filters sharing a dual-ported test datapath.

    Parameters
    ----------
    m_bits, k, key_bits, seed, ram_kind:
        Bloom filter configuration (all languages use the same configuration, as in
        the hardware where the classifier is replicated per language).
    lanes:
        N-grams tested per clock by this module (2 with dual-ported embedded RAM).
    hashes:
        Optional explicit hash family shared by every language's filter.
    """

    def __init__(
        self,
        m_bits: int = 16 * 1024,
        k: int = 4,
        key_bits: int = 20,
        seed: int = 0,
        lanes: int = 2,
        ram_kind: RAMKind = RAMKind.M4K,
        hashes: HashFamily | None = None,
    ):
        self.m_bits = int(m_bits)
        self.k = int(k)
        self.key_bits = int(key_bits)
        self.lanes = int(lanes)
        self.ram_kind = ram_kind
        out_bits = int(math.log2(self.m_bits))
        if hashes is None:
            hashes = H3Family(k=self.k, key_bits=self.key_bits, out_bits=out_bits, seed=seed)
        self.hashes = hashes
        self.engines: dict[str, HardwareBloomFilter] = {}
        self.cycles = 0

    # ------------------------------------------------------------ programming

    @property
    def languages(self) -> list[str]:
        return list(self.engines)

    def program_profiles(self, profiles: Mapping[str, LanguageProfile]) -> int:
        """Program every language profile; returns total programming cycles.

        Profiles are programmed sequentially, as in the hardware initialisation
        (Section 3.2: "At initialization the n-gram profiles are programmed
        sequentially for each language").
        """
        total_cycles = 0
        self.engines = {}
        for language, profile in profiles.items():
            engine = HardwareBloomFilter(
                m_bits=self.m_bits,
                k=self.k,
                key_bits=self.key_bits,
                hashes=self.hashes,
                ram_kind=self.ram_kind,
                lanes=self.lanes,
                name=f"{language}",
            )
            total_cycles += engine.program_profile(profile.ngrams)
            self.engines[language] = engine
        return total_cycles

    def load_profiles_fast(self, profiles: Mapping[str, LanguageProfile]) -> None:
        """Program profiles through the vectorized software filter (no cycle accounting)."""
        from repro.core.bloom import ParallelBloomFilter

        self.engines = {}
        for language, profile in profiles.items():
            soft = ParallelBloomFilter(
                m_bits=self.m_bits, k=self.k, key_bits=self.key_bits, hashes=self.hashes
            )
            soft.add_many(profile.ngrams)
            engine = HardwareBloomFilter(
                m_bits=self.m_bits,
                k=self.k,
                key_bits=self.key_bits,
                hashes=self.hashes,
                ram_kind=self.ram_kind,
                lanes=self.lanes,
                name=f"{language}",
            )
            engine.load_from_software(soft)
            self.engines[language] = engine

    def reset_counters(self) -> None:
        """Clear match counters (between documents) without touching the profiles."""
        for engine in self.engines.values():
            engine.match_counter = 0

    # ------------------------------------------------------------ testing

    def _check_programmed(self) -> None:
        if not self.engines:
            raise RuntimeError("no profiles programmed; call program_profiles() first")

    def test_cycle(self, ngrams: np.ndarray) -> dict[str, list[bool]]:
        """Test up to ``lanes`` n-grams against every language in one clock cycle."""
        self._check_programmed()
        self.cycles += 1
        return {language: engine.test_lanes(ngrams) for language, engine in self.engines.items()}

    def process_stream(self, packed: np.ndarray, cycle_accurate: bool = False) -> EngineReport:
        """Run a packed n-gram stream through the classifier.

        ``cycle_accurate=True`` drives the dual-ported datapath one cycle at a time
        (slow, used by tests); the default uses the vectorized functional path with
        identical results and the same cycle count.
        """
        self._check_programmed()
        packed = np.asarray(packed, dtype=np.uint64)
        self.reset_counters()
        if cycle_accurate:
            cycles = 0
            for start in range(0, packed.size, self.lanes):
                self.test_cycle(packed[start : start + self.lanes])
                cycles += 1
            counts = {lang: engine.match_counter for lang, engine in self.engines.items()}
            return EngineReport(ngrams=int(packed.size), cycles=cycles, match_counts=counts)
        cycles = int(math.ceil(packed.size / self.lanes)) if packed.size else 0
        counts = {}
        for language, engine in self.engines.items():
            matches, _ = engine.test_stream_fast(packed)
            counts[language] = matches
        self.cycles += cycles
        return EngineReport(ngrams=int(packed.size), cycles=cycles, match_counts=counts)

    # ------------------------------------------------------------ introspection

    @property
    def m4k_blocks_used(self) -> int:
        """Physical RAM blocks consumed by all languages of this module."""
        return sum(engine.m4k_blocks_used for engine in self.engines.values())


class ParallelMultiLanguageClassifier:
    """Several :class:`MultipleLanguageClassifier` copies working on one input stream.

    With ``copies = 4`` and dual-ported filters the composite tests 8 n-grams per
    clock — the configuration of every throughput number in the paper.  The adder
    tree that merges the per-copy counters after the final n-gram is modelled by
    :meth:`_merge_counts` (it costs ``ceil(log2(copies))`` pipeline cycles, which is
    negligible and included in the per-document cycle count).
    """

    def __init__(
        self,
        m_bits: int = 16 * 1024,
        k: int = 4,
        key_bits: int = 20,
        seed: int = 0,
        copies: int = 4,
        lanes_per_copy: int = 2,
        ram_kind: RAMKind = RAMKind.M4K,
        n: int = DEFAULT_N,
    ):
        if copies <= 0:
            raise ValueError("copies must be positive")
        self.copies = int(copies)
        self.lanes_per_copy = int(lanes_per_copy)
        self.n = int(n)
        self.extractor = NGramExtractor(n=self.n, converter=AlphabetConverter())
        # One shared hash family: the hardware replicates the hash logic per copy but
        # programs identical functions so every copy implements the same filter.
        out_bits = int(math.log2(int(m_bits)))
        self.hashes = H3Family(k=int(k), key_bits=int(key_bits), out_bits=out_bits, seed=seed)
        self.units = [
            MultipleLanguageClassifier(
                m_bits=m_bits,
                k=k,
                key_bits=key_bits,
                lanes=lanes_per_copy,
                ram_kind=ram_kind,
                hashes=self.hashes,
            )
            for _ in range(self.copies)
        ]
        self.m_bits = int(m_bits)
        self.k = int(k)
        self.adder_tree_latency = max(1, math.ceil(math.log2(self.copies))) if self.copies > 1 else 0

    # ------------------------------------------------------------ programming

    @property
    def ngrams_per_clock(self) -> int:
        """N-grams accepted per clock cycle (8 in the paper's configuration)."""
        return self.copies * self.lanes_per_copy

    @property
    def languages(self) -> list[str]:
        return self.units[0].languages if self.units else []

    def program_profiles(self, profiles: Mapping[str, LanguageProfile]) -> int:
        """Program every copy with the same profiles; returns total programming cycles.

        Copies are programmed sequentially over the single DMA/command interface, so
        the programming cost scales with ``copies`` (this is part of why the paper
        amortises programming over large runs).
        """
        total = 0
        for unit in self.units:
            total += unit.program_profiles(profiles)
        return total

    def load_profiles_fast(self, profiles: Mapping[str, LanguageProfile]) -> None:
        """Vectorized profile load for all copies (no cycle accounting)."""
        for unit in self.units:
            unit.load_profiles_fast(profiles)

    # ------------------------------------------------------------ classification

    def process_document(self, packed: np.ndarray, cycle_accurate: bool = False) -> EngineReport:
        """Process one document's packed n-grams and return merged counters + cycles."""
        if not self.units or not self.units[0].engines:
            raise RuntimeError("no profiles programmed; call program_profiles() first")
        packed = np.asarray(packed, dtype=np.uint64)
        # Deal consecutive n-grams round-robin-by-block to the copies: copy j receives
        # the j-th slice of each group of (copies * lanes) n-grams.  Any partition
        # yields the same total counts; this one mirrors the hardware's wiring.
        per_copy_reports = []
        group = self.ngrams_per_clock
        if packed.size == 0:
            counts = {lang: 0 for lang in self.languages}
            return EngineReport(ngrams=0, cycles=self.adder_tree_latency, match_counts=counts)
        lanes = self.lanes_per_copy
        for j, unit in enumerate(self.units):
            # columns j*lanes .. j*lanes+lanes-1 of each group
            take = np.zeros(packed.size, dtype=bool)
            offsets = np.arange(packed.size) % group
            take |= (offsets >= j * lanes) & (offsets < (j + 1) * lanes)
            per_copy_reports.append(unit.process_stream(packed[take], cycle_accurate=cycle_accurate))
        counts = self._merge_counts(per_copy_reports)
        cycles = max(report.cycles for report in per_copy_reports) + self.adder_tree_latency
        return EngineReport(ngrams=int(packed.size), cycles=cycles, match_counts=counts)

    def _merge_counts(self, reports) -> dict[str, int]:
        """The adder tree: sum per-copy counters language by language."""
        merged: dict[str, int] = {}
        for report in reports:
            for language, count in report.match_counts.items():
                merged[language] = merged.get(language, 0) + count
        return merged

    def classify_document(self, text: str | bytes) -> tuple[ClassificationResult, EngineReport]:
        """End-to-end classification of a raw document through the hardware model."""
        packed = self.extractor.extract(text)
        report = self.process_document(packed)
        languages = self.languages
        counts = [report.match_counts[language] for language in languages]
        result = result_from_counts(languages, np.asarray(counts), report.ngrams)
        return result, report

    # ------------------------------------------------------------ introspection

    @property
    def m4k_blocks_used(self) -> int:
        """Physical RAM blocks consumed by the whole composite (all copies)."""
        return sum(unit.m4k_blocks_used for unit in self.units)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"ParallelMultiLanguageClassifier(m_bits={self.m_bits}, k={self.k}, "
            f"copies={self.copies}, ngrams_per_clock={self.ngrams_per_clock})"
        )
