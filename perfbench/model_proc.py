"""The process that holds the model: set-up, then (optionally) one in-process workload.

Started cold by ``run.py``.  Set-up trains profiles from the training split,
programs the Bloom filters, writes the flat artifact and reloads it, then prints
one ``{"ready": ...}`` line.  With ``--mode run`` it goes on to measure
``corpus_long`` or ``segment_mixed`` against the reloaded model and prints one
result line.  Reference answers come from the identifier as trained, before the
save/load round trip, and are computed outside the timed region.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from inputs import reference_answers, same_answer  # noqa: E402
from inputs import texts as texts_of  # noqa: E402
from tracing import Tracer, instrument, kernel_metrics  # noqa: E402


def emit(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


def setup(train: dict, artifact: Path, traced: bool):
    from repro import ClassifierConfig, LanguageIdentifier
    from repro.core.fpr import false_positive_rate

    tracer = Tracer()
    with instrument(tracer) if traced else contextlib.nullcontext():
        trained = LanguageIdentifier(ClassifierConfig()).train(train)
        path = trained.save(artifact, format="flat")
        loaded = LanguageIdentifier.load(path)
    ready = {"ready": True}
    if traced:
        config = loaded.config
        filters = list(loaded.backend.classifier.filters.values())
        ready["layers"] = {
            "train.profile_s": tracer.total("train.profile"),
            "train.program_s": tracer.total("train.program"),
            "persist.load_s": tracer.total("persist.load"),
            "persist.model_bytes": path.stat().st_size,
            "bloom.fill_ratio_mean": statistics.fmean(f.fill_ratio for f in filters),
            "bloom.fpr_predicted": statistics.fmean(
                false_positive_rate(f.n_items, config.m_bits, config.k) for f in filters
            ),
        }
    return trained, loaded, ready


# ---------------------------------------------------------------- corpus_long


def corpus_pass(identifier, texts: list[str]) -> list:
    return list(identifier.classify_stream(texts))


def run_corpus_long(trained, loaded, documents, seconds: float) -> dict:
    """``classify_stream`` over the held-out documents, cycled until the deadline.

    Each answer is checked as it arrives and then dropped, so the process's
    peak memory is the model's and the kernel's, not the answers kept.
    """
    texts = texts_of("corpus_long", documents)
    sizes = [len(text.encode("utf-8")) for text in texts]
    batch = loaded.config.stream_batch_size
    reference = reference_answers(trained, texts)
    loaded.classify_batch(texts[:batch])  # warm-up: lazy stacked bit-vectors, caches

    deadline = time.perf_counter() + seconds

    def feed():
        position = 0
        while position < len(texts) or time.perf_counter() < deadline:
            for _ in range(batch):
                yield texts[position % len(texts)]
                position += 1

    attempted = failed = correct_labels = 0
    latencies = []
    batch_bytes = []
    mark = time.perf_counter()
    for position, result in enumerate(loaded.classify_stream(feed(), batch_size=batch)):
        index = position % len(texts)
        if position % batch == 0:
            now = time.perf_counter()
            latencies.append(now - mark)
            batch_bytes.append(sum(sizes[(position + i) % len(texts)] for i in range(batch)))
        attempted += 1
        failed += not same_answer(result, reference[index])
        # the first pass covers every document once, in order
        correct_labels += position < len(texts) and result.language == documents[index][0]
        if position % batch == batch - 1:
            mark = time.perf_counter()

    return {
        "attempted": attempted,
        "failed": failed,
        "sizes": batch_bytes,
        "latencies_s": latencies,
        "accuracy": correct_labels / len(texts),
    }


# ---------------------------------------------------------------- segment_mixed


def segment_pass(identifier, texts: list[str]) -> list:
    return [identifier.segment(text) for text in texts]


def _tiles(result, length: int) -> bool:
    cursor = 0
    for span in result.spans:
        if span.start != cursor or span.end <= span.start:
            return False
        cursor = span.end
    return cursor == length


def _correct_chars(result, segments) -> int:
    correct = 0
    for span in result.spans:
        for start, end, language in segments:
            if language == span.language:
                correct += max(0, min(end, span.end) - max(start, span.start))
    return correct


def run_segment_mixed(trained, loaded, documents, seconds: float) -> dict:
    """``LanguageIdentifier.segment`` per document, cycled until the deadline.

    Each answer is checked against the trained identifier's and then dropped.
    """
    texts = texts_of("segment_mixed", documents)
    sizes = [len(text.encode("utf-8")) for text in texts]
    reference = segment_pass(trained, texts)
    segment_pass(loaded, texts[:8])  # warm-up: cached segmenter, stacked bit-vectors

    latencies = []
    processed = []
    failed = correct_chars = 0
    deadline = time.perf_counter() + seconds
    position = 0
    while position < len(texts) or time.perf_counter() < deadline:
        index = position % len(texts)
        start = time.perf_counter()
        result = loaded.segment(texts[index])
        latencies.append(time.perf_counter() - start)
        processed.append(sizes[index])
        failed += result != reference[index] or not _tiles(result, len(texts[index]))
        if position < len(texts):
            correct_chars += _correct_chars(result, documents[index]["segments"])
        position += 1

    return {
        "attempted": position,
        "failed": failed,
        "sizes": processed,
        "latencies_s": latencies,
        "accuracy": correct_chars / sum(len(text) for text in texts),
    }


# ---------------------------------------------------------------- traced rounds


PASSES = {"corpus_long": corpus_pass, "segment_mixed": segment_pass}


def run_traced(loaded, workload: str, documents, seconds: float) -> dict:
    """Paired rounds of one untraced and one traced pass over the fixed input set.

    Counts are per pass, so they repeat exactly for a seed; times are medians
    over rounds.  The order inside a round alternates so neither side always
    runs on a warmer cache.  A traced answer that differs from the untraced
    answer of the same round counts as failed.
    """
    run_pass = PASSES[workload]
    same = same_answer if workload == "corpus_long" else (lambda a, b: a == b)
    texts = texts_of(workload, documents)
    run_pass(loaded, texts[:8])
    rounds = []
    failed = 0
    deadline = time.perf_counter() + seconds
    while not rounds or time.perf_counter() < deadline:
        tracer = Tracer()
        window = {}
        answers = {}
        for traced in (False, True) if len(rounds) % 2 == 0 else (True, False):
            with instrument(tracer) if traced else contextlib.nullcontext():
                start = time.perf_counter()
                answers[traced] = run_pass(loaded, texts)
                window[traced] = (start, time.perf_counter())
        failed += sum(not same(a, b) for a, b in zip(answers[True], answers[False]))
        (start, end), (plain_start, plain_end) = window[True], window[False]
        layers = kernel_metrics(tracer)
        layers["trace.unattributed_share"] = 1.0 - tracer.covered(start, end) / (end - start)
        # share of untraced throughput lost to tracing (same input, same round)
        layers["trace.overhead_share"] = 1.0 - (plain_end - plain_start) / (end - start)
        rounds.append(layers)
    summary = {name: statistics.median(r[name] for r in rounds) for name in rounds[0]}
    return {"layers": summary, "rounds": len(rounds), "attempted": len(rounds) * len(texts),
            "failed": failed, "tracer": tracer}


# ---------------------------------------------------------------- entry point


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--train", type=Path, required=True)
    parser.add_argument("--artifact", type=Path, required=True)
    parser.add_argument("--mode", choices=("setup", "run"), default="setup")
    parser.add_argument("--workload", choices=sorted(PASSES))
    parser.add_argument("--inputs", type=Path)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans-out", type=Path)
    args = parser.parse_args(argv)

    train = json.loads(args.train.read_text(encoding="utf-8"))
    trained, loaded, ready = setup(train, args.artifact, traced=bool(args.trace))
    emit(ready)
    if args.mode == "setup":
        return 0

    documents = json.loads(args.inputs.read_text(encoding="utf-8"))
    if args.trace:
        outcome = run_traced(loaded, args.workload, documents, args.seconds)
        tracer = outcome.pop("tracer")
        if args.spans_out is not None:
            tracer.dump(args.spans_out)
    elif args.workload == "corpus_long":
        outcome = run_corpus_long(trained, loaded, documents, args.seconds)
    else:
        outcome = run_segment_mixed(trained, loaded, documents, args.seconds)
    outcome["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    emit(outcome)
    return 0


if __name__ == "__main__":
    sys.exit(main())
