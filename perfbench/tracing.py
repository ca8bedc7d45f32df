"""Span recording around the public calls of each layer, from outside the program.

:func:`instrument` swaps a timing wrapper in for each layer's public entry
point (class attribute or module-level name at its call site) and restores the
originals on exit, so the traced code path is the shipped one plus one
``perf_counter`` pair per call.  Spans are kept in memory; :meth:`Tracer.dump`
writes them out when the run ends.
"""

from __future__ import annotations

import contextlib
import json
import threading
import time
from collections import Counter, defaultdict

import numpy as np


class Tracer:
    """In-memory span store.

    Each span is ``[name, start, end, parent, request_id, counts]``: ``parent``
    is the index of the enclosing span on the same thread (``-1`` at the top)
    and ``counts`` the work counters recorded while it was the innermost open
    span.  Times are ``time.perf_counter()`` readings, which on Linux share one
    monotonic clock across processes, so spans from a server process and its
    load generator can be windowed together.
    """

    def __init__(self, spans: list | None = None):
        self.spans: list[list] = [] if spans is None else spans
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str):
        stack = self._stack()
        record = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1, None, None]
        with self._lock:
            stack.append(len(self.spans))
            self.spans.append(record)
        try:
            yield
        finally:
            stack.pop()
            record[2] = time.perf_counter()

    def add(self, name: str, start: float, end: float, request_id: str | None = None) -> None:
        """Record an already-timed top-level span (e.g. one HTTP request)."""
        with self._lock:
            self.spans.append([name, start, end, -1, request_id, None])

    def count(self, name: str, amount: int) -> None:
        """Add ``amount`` to counter ``name`` on the innermost open span."""
        record = self.spans[self._stack()[-1]]
        if record[5] is None:
            record[5] = Counter()
        record[5][name] += int(amount)

    @property
    def counts(self) -> Counter:
        total: Counter = Counter()
        for record in self.spans:
            if record[5]:
                total.update(record[5])
        return total

    # ------------------------------------------------------------ reductions

    def window(self, intervals: list[tuple[float, float]]) -> "Tracer":
        """The spans whose top-level ancestor began inside one of ``intervals``."""
        keep: dict[int, int] = {}
        spans: list[list] = []
        for index, (name, s, e, parent, request_id, counts) in enumerate(self.spans):
            if parent < 0 and not any(start <= s < end for start, end in intervals):
                continue
            if parent >= 0 and parent not in keep:
                continue
            keep[index] = len(spans)
            spans.append([name, s, e, keep[parent] if parent >= 0 else -1, request_id, counts])
        return Tracer(spans)

    def total(self, name: str) -> float:
        """Summed duration of every span called ``name``."""
        return sum((r[2] - r[1] for r in self.spans if r[0] == name), 0.0)

    def self_times(self) -> dict[str, float]:
        """Per span name: duration minus the time its direct children cover."""
        child_time: dict[int, float] = defaultdict(float)
        for _name, start, end, parent, _rid, _counts in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for index, (name, start, end, _parent, _rid, _counts) in enumerate(self.spans):
            out[name] += (end - start) - child_time[index]
        return dict(out)

    def total_under(self, name: str, ancestor: str) -> float:
        """Summed duration of ``name`` spans that have an ``ancestor`` span above them."""
        total = 0.0
        for name_, start, end, parent, _rid, _counts in self.spans:
            if name_ != name:
                continue
            while parent >= 0:
                if self.spans[parent][0] == ancestor:
                    total += end - start
                    break
                parent = self.spans[parent][3]
        return total

    def covered(self, start: float, end: float) -> float:
        """Seconds of ``[start, end]`` inside at least one span (interval union)."""
        intervals = sorted(
            (max(r[1], start), min(r[2], end)) for r in self.spans if r[2] > start and r[1] < end
        )
        covered = 0.0
        cursor = start
        for s, e in intervals:
            if e > cursor:
                covered += e - max(s, cursor)
                cursor = e
        return covered

    def dump(self, path) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, request_id, counts in self.spans:
                record = {"name": name, "start": start, "end": end, "parent": parent,
                          "request_id": request_id, "counts": dict(counts or {})}
                handle.write(json.dumps(record) + "\n")

    @classmethod
    def load(cls, path) -> "Tracer":
        spans = []
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                r = json.loads(line)
                spans.append([r["name"], r["start"], r["end"], r["parent"], r["request_id"],
                              Counter(r["counts"]) or None])
        return cls(spans)


def _wrap(tracer: Tracer, name: str, function, after=None):
    def traced(*args, **kwargs):
        with tracer.span(name):
            result = function(*args, **kwargs)
            if after is not None:
                after(result, *args, **kwargs)
        return result

    traced.__wrapped__ = function
    return traced


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Wrap every layer's public calls with spans and counters for the block.

    Layers and their spans:

    * ``core.ngram`` — ``NGramExtractor.extract`` → ``extract`` (alphabet
      encode + pack/roll); counts ``extract.ngrams``.
    * ``hashes`` — ``HashFamily.hash_all`` → ``hash``; counts ``hash.keys``.
    * ``api.backends`` — ``BloomBackend.ngram_hits`` → ``probe`` (its self
      time excludes the ``hash`` child); counts ``probe.bytes_gathered`` as
      k × languages × n-grams of the ``(k, L, m)`` bool layout.
    * reduce — ``segment_sums`` at its call site in ``api.backends``.
    * ``api.identifier`` — ``LanguageIdentifier.classify_batch`` →
      ``identifier``; counts calls and documents.
    * ``core.profile``/``core.bloom`` — ``build_profiles`` (call site in
      ``api.identifier``) → ``train.profile``; ``BloomBackend.fit_profiles``
      → ``train.program``.
    * ``api.persistence`` — ``load_model`` → ``persist.load``.
    * ``segment`` — ``LanguageIdentifier.segment`` → ``segment``;
      ``WindowedScorer.score`` → ``segment.score``; ``viterbi_labels`` (call
      site in ``segment.segmenter``) → ``segment.smooth``; counts windows.
    """
    from repro.api import backends, identifier, persistence
    from repro.core.ngram import NGramExtractor
    from repro.hashes.base import HashFamily
    from repro.segment import segmenter, windows

    def count_ngrams(result, *_args, **_kwargs):
        tracer.count("extract.ngrams", result.size)

    def count_keys(_result, _self, keys, *_args, **_kwargs):
        tracer.count("hash.keys", np.asarray(keys).size)

    def count_gather(result, self, *_args, **_kwargs):
        n_languages, n_ngrams = result.shape
        tracer.count("probe.bytes_gathered", self.config.k * n_languages * n_ngrams)

    def count_windows(result, *_args, **_kwargs):
        tracer.count("segment.windows", result.window_count)

    classify_batch = identifier.LanguageIdentifier.classify_batch

    def traced_classify_batch(self, texts, *args, **kwargs):
        texts = list(texts)
        with tracer.span("identifier"):
            results = classify_batch(self, texts, *args, **kwargs)
            tracer.count("identifier.calls", 1)
            tracer.count("identifier.docs", len(texts))
        return results

    patches = [
        (NGramExtractor, "extract", "extract", count_ngrams),
        (HashFamily, "hash_all", "hash", count_keys),
        (backends.BloomBackend, "ngram_hits", "probe", count_gather),
        (backends, "segment_sums", "reduce", None),
        (identifier, "build_profiles", "train.profile", None),
        (backends.BloomBackend, "fit_profiles", "train.program", None),
        (persistence, "load_model", "persist.load", None),
        (identifier.LanguageIdentifier, "segment", "segment", count_windows),
        (windows.WindowedScorer, "score", "segment.score", None),
        (segmenter, "viterbi_labels", "segment.smooth", None),
    ]
    replacements = [
        (owner, attr, _wrap(tracer, name, getattr(owner, attr), after))
        for owner, attr, name, after in patches
    ]
    replacements.append(
        (identifier.LanguageIdentifier, "classify_batch", traced_classify_batch)
    )
    originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _r in replacements]
    try:
        for owner, attr, replacement in replacements:
            setattr(owner, attr, replacement)
        yield tracer
    finally:
        for owner, attr, original in originals:
            setattr(owner, attr, original)


def kernel_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer busy times and counts of the kernel chain from one traced block."""
    self_times = tracer.self_times()
    counts = tracer.counts
    calls = counts["identifier.calls"]
    return {
        "extract.busy_s": tracer.total("extract"),
        "extract.ngrams": counts["extract.ngrams"],
        "hash.busy_s": tracer.total("hash"),
        "hash.keys": counts["hash.keys"],
        "probe.busy_s": self_times.get("probe", 0.0),
        "probe.bytes_gathered": counts["probe.bytes_gathered"],
        "reduce.busy_s": tracer.total("reduce"),
        "identifier.self_s": self_times.get("identifier", 0.0),
        "identifier.calls": calls,
        "identifier.docs_per_call": counts["identifier.docs"] / calls if calls else 0.0,
        "segment.hits_s": tracer.total_under("probe", "segment"),
        "segment.score_s": self_times.get("segment.score", 0.0),
        "segment.smooth_s": tracer.total("segment.smooth"),
        "segment.windows": counts["segment.windows"],
    }
