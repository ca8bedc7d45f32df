"""Seeded workload inputs, generated outside all timing and cached on disk per seed,
and the reference answers every workload checks against.

Every workload trains on the same split: the first ``TRAIN_DOCS_PER_LANGUAGE``
paper-length documents per language of the synthetic JRC-Acquis-like corpus
for the seed.  Held-out, mixed and request documents come from generator
seeds offset from the training seed, so no evaluated text is a training text.
The texts come from ``textgen.py``, the benchmark's frozen copy of the
program's generator, so a seed names the same inputs at every commit.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

import textgen

#: paper-length documents: ~1 300 words, ~7.7 KB
WORDS_PER_DOCUMENT = 1300
TRAIN_DOCS_PER_LANGUAGE = 8
HELD_OUT_DOCS_PER_LANGUAGE = 24

MIXED_DOCUMENTS = 150
MIXED_SEGMENTS = (2, 4)
WORDS_PER_SEGMENT = 200

#: ~240-byte single-document requests
REQUEST_WORDS = 40
REQUEST_REPEAT_PROBABILITY = 1 / 3
#: a repeat re-sends one of this many most recent requests; well inside the
#: default 1024-entry result cache, so the hit ratio stays at the repeat share
#: however far a closed loop gets instead of decaying as old entries are evicted
REQUEST_REPEAT_HORIZON = 256
WARMUP_REQUESTS = 64
CLOSED_LOOP_REQUESTS = 16000
OPEN_LOOP_RATE = 60.0

_HELD_OUT_SEED_OFFSET = 1_000_003
_MIXED_SEED_OFFSET = 2_000_029
_REQUEST_SEED_OFFSET = 3_000_017


def _source_digest() -> str:
    """Digest of the generator sources, so a cache never outlives the code that made it."""
    digest = hashlib.blake2b(digest_size=8)
    here = Path(__file__).resolve().parent
    for name in ("inputs.py", "textgen.py", "languages.py"):
        digest.update((here / name).read_bytes())
    return digest.hexdigest()


def _cached(root: Path, name: str, build):
    cache = root / ".perfbench" / "inputs" / f"{name}-{_source_digest()}.json"
    if cache.is_file():
        return json.loads(cache.read_text(encoding="utf-8"))
    payload = build()
    cache.parent.mkdir(parents=True, exist_ok=True)
    partial = cache.with_suffix(".tmp")
    partial.write_text(json.dumps(payload), encoding="utf-8")
    partial.replace(cache)
    return payload


def training_split(root: Path, seed: int) -> dict[str, list[str]]:
    """``language -> texts`` training split shared by every workload."""

    def build():
        split: dict[str, list[str]] = {}
        for language, text in textgen.corpus(TRAIN_DOCS_PER_LANGUAGE, WORDS_PER_DOCUMENT, seed):
            split.setdefault(language, []).append(text)
        return split

    return _cached(root, f"train-{seed}", build)


def corpus_long(root: Path, seed: int) -> list[list[str]]:
    """Held-out paper-length ``[language, text]`` documents, languages interleaved."""
    def build():
        documents = textgen.corpus(HELD_OUT_DOCS_PER_LANGUAGE, WORDS_PER_DOCUMENT,
                                   seed + _HELD_OUT_SEED_OFFSET)
        order = np.random.default_rng(seed).permutation(len(documents))
        return [documents[int(i)] for i in order]

    return _cached(root, f"corpus_long-{seed}", build)


def segment_mixed(root: Path, seed: int) -> list[dict]:
    """Code-switched documents: ``{"text", "segments": [[start, end, language], ...]}``."""
    def build():
        return textgen.mixed_documents(MIXED_DOCUMENTS, seed + _MIXED_SEED_OFFSET,
                                       MIXED_SEGMENTS, WORDS_PER_SEGMENT)

    return _cached(root, f"segment_mixed-{seed}", build)


def texts(workload: str, documents: list) -> list[str]:
    """The document texts of a ``corpus_long`` or ``segment_mixed`` input set."""
    if workload == "corpus_long":
        return [text for _language, text in documents]
    return [document["text"] for document in documents]


def _request_sequence(generators, rng, count: int, first_index: int) -> list[list[str]]:
    """``count`` ``[language, text]`` requests; about a third repeat a recent one."""
    languages = sorted(generators)
    sequence: list[list[str]] = []
    for position in range(count):
        if sequence and rng.random() < REQUEST_REPEAT_PROBABILITY:
            horizon = min(len(sequence), REQUEST_REPEAT_HORIZON)
            sequence.append(sequence[len(sequence) - 1 - int(rng.integers(horizon))])
            continue
        language = languages[int(rng.integers(len(languages)))]
        jitter = 1.0 + 0.25 * (2.0 * rng.random() - 1.0)
        text = generators[language].generate_document(
            n_words=max(8, int(REQUEST_WORDS * jitter)), index=first_index + position
        )
        sequence.append([language, text])
    return sequence


def serve_http(root: Path, seed: int, open_loop_seconds: float) -> dict:
    """Warm-up, closed-loop and open-loop request sequences plus open-loop due times."""
    n_open = int(round(OPEN_LOOP_RATE * open_loop_seconds))

    def build():
        generators = {
            code: textgen.DocumentGenerator(code, seed=seed + _REQUEST_SEED_OFFSET)
            for code in textgen.PAPER_LANGUAGES
        }
        rng = np.random.default_rng(seed + _REQUEST_SEED_OFFSET)
        warmup = _request_sequence(generators, rng, WARMUP_REQUESTS, 0)
        closed = _request_sequence(generators, rng, CLOSED_LOOP_REQUESTS, 100_000)
        open_loop = _request_sequence(generators, rng, n_open, 200_000)
        # Poisson arrivals: exponential gaps at the fixed rate
        due = np.cumsum(rng.exponential(1.0 / OPEN_LOOP_RATE, size=n_open))
        return {
            "warmup": warmup,
            "closed": closed,
            "open": open_loop,
            "open_due_s": due.tolist(),
        }

    return _cached(root, f"serve_http-{seed}-{n_open}", build)


def repeat_share(sequence: list[list[str]]) -> float:
    """Share of requests whose text appeared earlier in the same sequence."""
    seen: set[str] = set()
    repeats = 0
    for _language, text in sequence:
        repeats += text in seen
        seen.add(text)
    return repeats / len(sequence) if sequence else 0.0


# ---------------------------------------------------------------- reference answers

#: documents per reference ``classify_batch`` call; differs from the batch sizes
#: the workloads use, so batching cannot hide a difference
REFERENCE_BATCH = 16


def answer_fields(answer) -> tuple:
    """``(language, match_counts, ngram_count)`` of a result or of its JSON payload."""
    if isinstance(answer, dict):
        return answer.get("language"), answer.get("match_counts"), answer.get("ngram_count")
    return answer.language, answer.match_counts, answer.ngram_count


def same_answer(answer, reference) -> bool:
    return answer_fields(answer) == answer_fields(reference)


def reference_answers(identifier, texts: list[str]) -> list:
    """``classify_batch`` answers for ``texts``, ``REFERENCE_BATCH`` per call."""
    answers = []
    for start in range(0, len(texts), REFERENCE_BATCH):
        answers.extend(identifier.classify_batch(texts[start : start + REFERENCE_BATCH]))
    return answers
