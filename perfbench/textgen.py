"""The synthetic document generator, frozen for the benchmark's inputs.

The parts of ``repro.corpus.generator`` the workloads use, as they stood when
the benchmark was defined, with the same arithmetic so a seed yields the same
texts: Zipf-distributed words from a per-language vocabulary, arranged into
sentences and paragraphs.  A change to the program's generator therefore never
changes the workload a seed stands for.  Edit it only to redefine the
benchmark.
"""

from __future__ import annotations

import numpy as np

from languages import LANGUAGES, PAPER_LANGUAGES, LanguageSpec, get_language

_VOCAB_SEED = 0x5EED_0001
_CONTENT_WORDS = 2400
_RELATED_BLEND = 0.18
_BOILERPLATE_FRACTION = 0.15
_BOILERPLATE_EXTRA_BLEND = 0.27
_ZIPF_EXPONENT = 1.05


def _code_material(code: str) -> int:
    return sum((i + 1) * b for i, b in enumerate(code.encode("utf-8")))


def _vocabulary(spec: LanguageSpec) -> list[str]:
    """Function words, then content words built from the syllable inventory."""
    rng = np.random.default_rng((_VOCAB_SEED * 1_000_003 + _code_material(spec.code)) % (2**63))
    syllables = np.asarray(spec.syllables, dtype=object)
    suffixes = np.asarray(spec.suffixes if spec.suffixes else ("",), dtype=object)
    low, high = spec.word_syllables
    words = list(spec.common_words)
    seen: set[str] = set()
    content = 0
    while content < _CONTENT_WORDS:
        word = "".join(rng.choice(syllables, size=int(rng.integers(low, high + 1))).tolist())
        if rng.random() < 0.45:
            word += str(rng.choice(suffixes))
        if len(word) < 3 or word in seen:
            continue
        seen.add(word)
        words.append(word)
        content += 1
    return words


def _zipf(size: int) -> np.ndarray:
    weights = 1.0 / np.arange(1, size + 1, dtype=np.float64) ** _ZIPF_EXPONENT
    return weights / weights.sum()


class DocumentGenerator:
    """Documents of one language; content depends only on ``(language, seed, index)``."""

    def __init__(self, code: str, seed: int = 0, related_blend: float = _RELATED_BLEND):
        self.spec = get_language(code)
        self.seed = int(seed)
        self.related_blend = float(related_blend)
        vocabulary = _vocabulary(self.spec)
        self._vocab = np.asarray(vocabulary, dtype=object)
        self._probs = _zipf(len(vocabulary))
        self._related = None
        if self.spec.related and self.related_blend > 0.0 and self.spec.related in LANGUAGES:
            related = _vocabulary(get_language(self.spec.related))
            self._related = np.asarray(related, dtype=object)
            self._related_probs = _zipf(len(related))

    def _words(self, n_words: int, rng: np.random.Generator, blend: float) -> list[str]:
        own = rng.choice(self._vocab, size=n_words, p=self._probs)
        if self._related is not None and blend > 0.0:
            borrow = rng.random(n_words) < blend
            n_borrow = int(borrow.sum())
            if n_borrow:
                own[borrow] = rng.choice(self._related, size=n_borrow, p=self._related_probs)
        return own.tolist()

    def generate_document(self, n_words: int = 1300, index: int = 0) -> str:
        """About ``n_words`` words in sentences of 6-18 words and paragraphs of 3-7."""
        rng = np.random.default_rng(
            (self.seed * 2_000_003 + index * 97 + _code_material(self.spec.code)) % (2**63)
        )
        blend = self.related_blend
        if self._related is not None and rng.random() < _BOILERPLATE_FRACTION:
            blend = min(0.95, self.related_blend + _BOILERPLATE_EXTRA_BLEND)
        words = self._words(n_words, rng, blend) if n_words > 0 else []
        sentences: list[str] = []
        position = 0
        while position < len(words):
            length = int(rng.integers(6, 19))
            chunk = words[position : position + length]
            position += length
            if rng.random() < 0.08:
                chunk.insert(int(rng.integers(0, len(chunk))), str(int(rng.integers(1, 2000))))
            sentence = " ".join(chunk)
            sentences.append(sentence[0].upper() + sentence[1:] + ".")
        paragraphs: list[str] = []
        start = 0
        while start < len(sentences):
            size = int(rng.integers(3, 8))
            paragraphs.append(" ".join(sentences[start : start + size]))
            start += size
        return "\n\n".join(paragraphs)


def corpus(docs_per_language: int, words_per_document: int, seed: int) -> list[list[str]]:
    """``[language, text]`` documents of the paper's languages, language by language.

    Lengths are jittered by up to 30% around ``words_per_document``.
    """
    documents = []
    for lang_index, code in enumerate(PAPER_LANGUAGES):
        generator = DocumentGenerator(code, seed=seed + 7919 * lang_index)
        rng = np.random.default_rng(generator.seed ^ 0xD0C5)
        for index in range(docs_per_language):
            jitter = 1.0 + 0.3 * (2.0 * rng.random() - 1.0)
            n_words = max(20, int(words_per_document * jitter))
            documents.append([code, generator.generate_document(n_words, index)])
    return documents


def mixed_documents(count: int, seed: int, segments_range: tuple[int, int],
                    words_per_segment: int) -> list[dict]:
    """Code-switched documents: ``{"text", "segments": [[start, end, language], ...]}``.

    Each document splices 2 or more single-language stretches (lengths jittered
    by up to 25%, no sibling blending); a language is never followed by itself
    or its confusable sibling.  The separator space belongs to the segment
    before it, so the segments tile the text.
    """
    codes = PAPER_LANGUAGES
    generators = {code: DocumentGenerator(code, seed=seed, related_blend=0.0) for code in codes}

    def successors(previous: str) -> list[str]:
        banned = {previous, get_language(previous).related}
        banned.update(code for code in codes if get_language(code).related == previous)
        return [code for code in codes if code not in banned]

    low, high = segments_range
    documents = []
    for index in range(count):
        rng = np.random.default_rng((seed * 3_000_017 + index * 101) % (2**63))
        picked: list[str] = []
        for _ in range(int(rng.integers(low, high + 1))):
            candidates = successors(picked[-1]) if picked else list(codes)
            picked.append(str(rng.choice(np.asarray(candidates, dtype=object))))
        pieces = []
        for position, code in enumerate(picked):
            jitter = 1.0 + 0.25 * (2.0 * rng.random() - 1.0)
            n_words = max(20, int(words_per_segment * jitter))
            pieces.append(generators[code].generate_document(n_words, index * (high + 1) + position))
        segments = []
        offset = 0
        for position, (code, piece) in enumerate(zip(picked, pieces)):
            length = len(piece) + (1 if position < len(pieces) - 1 else 0)
            segments.append([offset, offset + length, code])
            offset += length
        documents.append({"text": " ".join(pieces), "segments": segments})
    return documents
