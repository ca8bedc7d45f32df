"""The repository's benchmark: one seeded workload, every metric by name and unit.

Usage (from the repository root)::

    python3 perfbench/run.py --workload corpus_long --seed 1 --seconds 30 --trace 0

Workloads (reasons in ``BENCHMARK.json``):

``corpus_long``
    offline ``classify_stream`` over held-out paper-length documents;
``serve_http``
    ~240-byte single-document requests over HTTP keep-alive to ``repro serve``;
``segment_mixed``
    ``LanguageIdentifier.segment`` over code-switched documents.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same
inputs with the layers' public calls wrapped in spans (``tracing.py``) and
prints the per-layer metrics instead.  Inputs come from ``--seed`` and are
generated (or read from the ``.perfbench/inputs`` cache) before any timing.
Every answer is checked: against the gold language, and against
``classify_batch`` (or, for segmentation, the trained identifier) on the same
input.  A mismatch or a refused request counts as failed and makes the exit
status 1.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
from serve_load import readline_within  # noqa: E402

WORKLOADS = ("corpus_long", "serve_http", "segment_mixed")

#: cold set-ups per run; ``setup_s`` is their median
SETUP_REPEATS = 7

#: throughput is a median over windows of this many seconds of work, so a
#: transient stall from a neighbour on a shared host moves one window, not the
#: run: groups of sequential operations (in-process workloads) and bins of
#: completed requests (closed loop, where requests overlap)
RATE_WINDOW_S = 1.0
CLOSED_WINDOW_S = 0.25

#: tail percentile per workload, fixed: the highest with at least 10 samples
#: beyond it at a ``--seconds 30`` run on a 2-core x86 VM (corpus_long ~200
#: batches: p95; serve_http 1 080 open-loop requests: p99), except
#: segment_mixed (~10 000 documents), where every percentile above p98 is set
#: by a dozen host stalls and spread 0.13-0.70 across seeds against 0.07 at p95.
#: Reported in ``details``, not as a bounded metric: on a shared 2-vCPU host
#: the serve_http tail spread 0.19-0.78 across ten seeds at every percentile
#: from p80 up, because the host stalls the virtual CPUs for up to ~10 ms
TAIL_PERCENTILE = {"corpus_long": 95.0, "segment_mixed": 95.0, "serve_http": 99.0}

#: accuracy below this is a wrong answer, not a slow one
ACCURACY_FLOOR = {"corpus_long": 0.9, "segment_mixed": 0.85, "serve_http": 0.8}

#: share of --seconds each serve_http phase runs; the open-loop schedule is the
#: same traced and untraced
CLOSED_LOOP_SHARE = 0.4
OPEN_LOOP_SHARE = 0.6

#: alternations of closed-loop and open-loop slices in one serve_http run
SERVE_CYCLES = 4



def _child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONUNBUFFERED="1")


def _cpu_sets() -> tuple[set[int], set[int]]:
    """``(generator, model)`` CPU sets: one core each when there are two or more.

    The benchmark process (input generation, HTTP load generator) and the
    process holding the model then never compete for a core, and neither
    migrates.  With a single core both share it.
    """
    allowed = sorted(os.sched_getaffinity(0))
    if len(allowed) < 2:
        return set(allowed), set(allowed)
    return {allowed[0]}, {allowed[-1]}


GENERATOR_CPUS, MODEL_CPUS = _cpu_sets()


def _on_model_cpus() -> None:
    os.sched_setaffinity(0, MODEL_CPUS)


def _read_line(process: subprocess.Popen, timeout: float) -> dict:
    """The next JSON line a child prints, or an error if it exits or stalls."""
    line = readline_within(process, timeout)
    if not line:
        raise RuntimeError(f"child {process.args[:3]} produced no result")
    return json.loads(line)


class ModelChild:
    """``model_proc.py`` started cold; records the seconds until it is ready."""

    def __init__(self, train: Path, artifact: Path, extra: list[str]):
        command = [sys.executable, str(HERE / "model_proc.py"),
                   "--train", str(train), "--artifact", str(artifact), *extra]
        began = time.perf_counter()
        self.process = subprocess.Popen(command, stdout=subprocess.PIPE, env=_child_env(),
                                        cwd=ROOT, preexec_fn=_on_model_cpus)
        try:
            self.ready = _read_line(self.process, timeout=120.0)
        except BaseException:
            self.close()
            raise
        self.setup_s = time.perf_counter() - began

    def result(self, timeout: float) -> dict:
        try:
            return _read_line(self.process, timeout)
        finally:
            self.close()

    def close(self) -> None:
        """Wait for the child to exit; kill it only if it does not."""
        if self.process.poll() is None:
            try:
                self.process.wait(timeout=30.0)
            except subprocess.TimeoutExpired:
                self.process.kill()
        self.process.communicate()


def _write_json(path: Path, payload) -> Path:
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


def _percentile_ms(values: list[float], q: float) -> float:
    return float(np.percentile(np.asarray(values), q)) * 1e3


def _tail(workload: str, latencies: list[float]) -> dict:
    """The workload's fixed tail percentile of ``latencies``, with its sample counts."""
    q = TAIL_PERCENTILE[workload]
    return {"latency_tail_ms": _percentile_ms(latencies, q), "tail_percentile": q,
            "tail_samples_beyond": int(len(latencies) * (100 - q) / 100)}


def _grouped_mb_s(latencies: list[float], sizes: list[int]) -> float:
    """Median MB/s over consecutive groups of sequential operations lasting ``RATE_WINDOW_S``."""
    rates = []
    group_bytes = group_s = 0.0
    for latency, size in zip(latencies, sizes):
        group_bytes += size
        group_s += latency
        if group_s >= RATE_WINDOW_S:
            rates.append(group_bytes / group_s)
            group_bytes = group_s = 0.0
    return float(np.median(rates or [group_bytes / group_s])) / 1e6


def _closed_mb_s(slices: list[dict], sequence: list) -> float:
    """Median MB/s over the ``CLOSED_WINDOW_S`` windows lying wholly inside each closed-loop slice.

    Concurrent requests are binned by when they completed.
    """
    rates = []
    for closed in slices:
        full = max(1, int(closed["seconds"] // CLOSED_WINDOW_S))
        completed = np.zeros(full)
        for index, _status, _payload, _due, _sent, done, _rid in closed["answers"]:
            window = int((done - closed["began"]) // CLOSED_WINDOW_S)
            if window < full:
                completed[window] += len(sequence[index][1].encode("utf-8"))
        rates.extend(completed)
    return float(np.median(rates)) / 1e6 / CLOSED_WINDOW_S


def _median_layers(dicts: list[dict]) -> dict:
    return {name: statistics.median(d[name] for d in dicts) for name in dicts[0]}


# ---------------------------------------------------------------- in-process workloads


def run_in_process(workload: str, seed: int, seconds: float, traced: bool, work: Path,
                   trace_out: Path) -> dict:
    train = _write_json(work / "train.json", inputs.training_split(ROOT, seed))
    documents = (inputs.corpus_long if workload == "corpus_long" else inputs.segment_mixed)(
        ROOT, seed
    )
    documents_path = _write_json(work / "documents.json", documents)
    sizes = [len(t.encode("utf-8")) for t in inputs.texts(workload, documents)]
    details = {"documents": len(sizes), "bytes": sum(sizes),
               "mean_document_bytes": sum(sizes) / len(sizes)}

    run_args = ["--mode", "run", "--workload", workload, "--inputs", str(documents_path),
                "--seconds", str(seconds), "--trace", str(int(traced))]
    if traced:
        run_args += ["--spans-out", str(trace_out)]
    children = []
    for repeat in range(SETUP_REPEATS):
        last = repeat == SETUP_REPEATS - 1
        extra = run_args if last else ["--mode", "setup", "--trace", str(int(traced))]
        child = ModelChild(train, work / f"model-{repeat}.bin", extra)
        children.append(child)
        if not last:
            child.close()
    outcome = children[-1].result(timeout=3 * seconds + 120.0)

    if traced:
        layers = dict(outcome["layers"])
        layers.update(_median_layers([c.ready["layers"] for c in children]))
        details["traced_rounds"] = outcome["rounds"]
        return {"layers": layers, "attempted": outcome["attempted"],
                "failed": outcome["failed"], "correct": outcome["failed"] == 0,
                "details": details}

    latencies = outcome["latencies_s"]
    details.update(_tail(workload, latencies))
    details.update({"operations": len(latencies),
                    "accuracy_floor": ACCURACY_FLOOR[workload]})
    metrics = {
        "setup_s": statistics.median(c.setup_s for c in children),
        "throughput_mb_s": _grouped_mb_s(latencies, outcome["sizes"]),
        "latency_p50_ms": _percentile_ms(latencies, 50.0),
        "accuracy": outcome["accuracy"],
        "ok_share": 1.0 - outcome["failed"] / outcome["attempted"],
        "peak_rss_mb": outcome["peak_rss_mb"],
    }
    correct = outcome["failed"] == 0 and outcome["accuracy"] >= ACCURACY_FLOOR[workload]
    return {"metrics": metrics, "attempted": outcome["attempted"],
            "failed": outcome["failed"], "correct": correct, "details": details}


# ---------------------------------------------------------------- serve_http


def _server_deltas(open_slices: list[dict]) -> dict:
    """Stage sums, batch sizes and cache lookups the server recorded in the open slices."""
    from repro.obs import PIPELINE_STAGES

    stages = dict.fromkeys((*PIPELINE_STAGES, "request"), 0.0)
    sizes: dict[int, int] = {}
    hits = lookups = 0
    for opened in open_slices:
        before, after = opened["metrics"]
        for stage in stages:
            old = before["stage_latency_seconds"].get(stage, {"sum": 0.0})["sum"]
            stages[stage] += after["stage_latency_seconds"].get(stage, {"sum": 0.0})["sum"] - old
        for size, count in after["batch_size_histogram"].items():
            sizes[int(size)] = (sizes.get(int(size), 0) + count
                                - before["batch_size_histogram"].get(size, 0))
        slice_hits = (after["cache_hits_total"].get("classify", 0)
                      - before["cache_hits_total"].get("classify", 0))
        hits += slice_hits
        lookups += slice_hits + (after["cache_misses_total"].get("classify", 0)
                                 - before["cache_misses_total"].get("classify", 0))
    batches = sum(sizes.values())
    return {
        "stages": stages,
        "batch_size_mean": sum(s * c for s, c in sizes.items()) / batches if batches else 0.0,
        "cache_hit_ratio": hits / lookups if lookups else 0.0,
    }


def _check_answers(answers, sequence, reference) -> tuple[int, int, int]:
    """(failed, gold-correct, bytes) over ``(index, status, payload, ...)`` answers."""
    failed = correct = n_bytes = 0
    for index, status, payload, *_times in answers:
        language, text = sequence[index]
        if status != 200 or not inputs.same_answer(payload, reference[text]):
            failed += 1
        correct += status == 200 and payload.get("language") == language
        n_bytes += len(text.encode("utf-8"))
    return failed, correct, n_bytes


def _classify_batch_mb_s(identifier, texts: list[str]) -> float:
    """Single-process ``classify_batch`` MB/s on the given documents, 64 per call."""
    identifier.classify_batch(texts[:64])
    began = time.perf_counter()
    for start in range(0, len(texts), 64):
        identifier.classify_batch(texts[start : start + 64])
    elapsed = time.perf_counter() - began
    return sum(len(t.encode("utf-8")) for t in texts) / 1e6 / elapsed


def run_serve(seed: int, seconds: float, traced: bool, work: Path, trace_out: Path) -> dict:
    """Closed-loop throughput and open-loop latency against ``repro serve``.

    Untraced: after the set-ups, ``SERVE_CYCLES`` alternations of a
    closed-loop slice and an open-loop slice on the last set-up's server.
    Traced: a closed loop on that (untraced) server for half the closed time,
    then the same alternation with the closed half left on a traced server;
    the two closed-loop rates give the tracing overhead.
    """
    import serve_load
    from repro import LanguageIdentifier
    from repro.obs import PIPELINE_STAGES
    from repro.serve import ServeConfig
    from tracing import Tracer, kernel_metrics

    train = _write_json(work / "train.json", inputs.training_split(ROOT, seed))
    requests = inputs.serve_http(ROOT, seed, OPEN_LOOP_SHARE * seconds)
    warmup, closed_seq, open_seq = requests["warmup"], requests["closed"], requests["open"]
    closed_seconds = CLOSED_LOOP_SHARE * seconds

    setup_times = []
    setup_layers = []
    server = None
    phases = {}
    try:
        for repeat in range(SETUP_REPEATS):
            began = time.perf_counter()
            artifact = work / f"model-{repeat}.bin"
            child = ModelChild(train, artifact, ["--mode", "setup", "--trace", str(int(traced))])
            child.close()
            if traced:
                setup_layers.append(child.ready["layers"])
            server = serve_load.ServerProcess(ROOT, artifact, cpus=MODEL_CPUS)
            server.wait_healthy()
            setup_times.append(time.perf_counter() - began)
            if repeat < SETUP_REPEATS - 1:
                server.stop()

        phases["warmup"] = [serve_load.open_loop(server.port, warmup, [0.0] * len(warmup))]
        if traced:
            phases["closed_untraced"] = [
                serve_load.closed_loop(server.port, closed_seq, closed_seconds / 2)
            ]
            server.stop()
            # the same server, now with every layer call wrapped in spans
            server = serve_load.ServerProcess(ROOT, artifact, cpus=MODEL_CPUS,
                                              spans_out=trace_out)
            server.wait_healthy()
            serve_load.open_loop(server.port, warmup, [0.0] * len(warmup))
            closed_seconds /= 2
        phases["closed"], phases["open"] = serve_load.interleaved(
            server, closed_seq, open_seq, requests["open_due_s"], closed_seconds, SERVE_CYCLES
        )
        final = server.metrics()
        peak_rss_mb = server.peak_rss_mb()
    finally:
        if server is not None:
            server.stop()

    sequences = {"warmup": warmup, "closed": closed_seq, "closed_untraced": closed_seq,
                 "open": open_seq}
    answers = {name: [a for part in parts for a in part["answers"]]
               for name, parts in phases.items()}
    # the served artifact, loaded in this process
    served = LanguageIdentifier.load(artifact)
    distinct = sorted({text for _l, text in warmup + closed_seq + open_seq})
    reference = dict(zip(distinct, inputs.reference_answers(served, distinct)))
    checked = {name: _check_answers(answers[name], sequences[name], reference)
               for name in phases}
    attempted = sum(len(a) for a in answers.values())
    failed = sum(f for f, _c, _b in checked.values())
    rejected = sum(final[key] for key in ("rejected_overload", "rejected_too_large",
                                          "errors_total"))
    latencies = [done - due for _i, _s, _p, due, _sent, done, _r in answers["open"]]
    lags = [lag for part in phases["open"] for lag in part["lags_s"]]
    closed_indices = [a[0] for a in answers["closed"]]
    details = {
        # repro serve runs with the defaults
        "serve_config": repr(ServeConfig()),
        "connections": serve_load.CONNECTIONS,
        "open_loop_rate_per_s": inputs.OPEN_LOOP_RATE,
        "cycles": SERVE_CYCLES,
        "phases": {
            name: {"sent": len(answers[name]),
                   "succeeded": sum(a[1] == 200 for a in answers[name]),
                   "failed": checked[name][0]}
            for name in phases
        },
        "open_loop_documents": len(open_seq),
        "open_loop_bytes": checked["open"][2],
        "mean_document_bytes": checked["open"][2] / len(open_seq),
        "repeat_share_open": inputs.repeat_share(open_seq),
        "repeat_share_closed": inputs.repeat_share([closed_seq[i] for i in closed_indices]),
        "closed_loop_wrapped": phases["closed"][-1]["next"] > len(closed_seq),
        **_tail("serve_http", latencies),
        "gen_lag_p99_ms": _percentile_ms(lags, 99.0),
        "server_rejected": rejected,
        "accuracy_floor": ACCURACY_FLOOR["serve_http"],
    }
    answered = len(answers["closed"]) + len(answers["open"])
    accuracy = (checked["closed"][1] + checked["open"][1]) / answered
    correct = failed == 0 and rejected == 0 and accuracy >= ACCURACY_FLOOR["serve_http"]
    closed_mb_s = _closed_mb_s(phases["closed"], closed_seq)

    if not traced:
        metrics = {
            "setup_s": statistics.median(setup_times),
            "throughput_mb_s": closed_mb_s,
            "latency_p50_ms": _percentile_ms(latencies, 50.0),
            "accuracy": accuracy,
            "ok_share": 1.0 - failed / attempted,
            "peak_rss_mb": peak_rss_mb,
        }
        return {"metrics": metrics, "attempted": attempted, "failed": failed,
                "correct": correct, "details": details}

    windows = [(part["began"], part["ended"]) for part in phases["open"]]
    server_spans = Tracer.load(trace_out).window(windows)
    client = Tracer()
    for _i, _s, _p, _due, sent, done, request_id in answers["open"]:
        client.add("http.request", sent, done, request_id)
    # one clock for both processes; the merged store is used for interval coverage only
    everything = Tracer(client.spans + server_spans.spans)
    covered = sum(everything.covered(began, ended) for began, ended in windows)
    wall = sum(ended - began for began, ended in windows)
    server_side = _server_deltas(phases["open"])
    round_trips = sum(done - sent for _i, _s, _p, _due, sent, done, _r in answers["open"])
    untraced_mb_s = _closed_mb_s(phases["closed_untraced"], closed_seq)
    untraced_texts = [closed_seq[a[0]][1] for a in answers["closed_untraced"]]
    layers = kernel_metrics(server_spans)
    layers.update({f"serve.{stage}_s": server_side["stages"][stage]
                   for stage in PIPELINE_STAGES})
    layers.update({
        "serve.batch_size_mean": server_side["batch_size_mean"],
        "serve.cache_hit_ratio": server_side["cache_hit_ratio"],
        "serve.rejected": rejected,
        "serve.http_other_s": round_trips - server_side["stages"]["request"],
        "serve.framework_efficiency":
            untraced_mb_s / _classify_batch_mb_s(served, untraced_texts),
        "gen.lag_p99_ms": details["gen_lag_p99_ms"],
        "gen.repeat_share": details["repeat_share_open"],
        "trace.unattributed_share": 1.0 - covered / wall,
        "trace.overhead_share": 1.0 - closed_mb_s / untraced_mb_s,
    })
    layers.update(_median_layers(setup_layers))
    return {"layers": layers, "attempted": attempted, "failed": failed,
            "correct": correct, "details": details}


# ---------------------------------------------------------------- entry point


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one seeded benchmark workload.")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program sources at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    os.sched_setaffinity(0, GENERATOR_CPUS)
    traced = bool(args.trace)
    state = ROOT / ".perfbench"
    work = state / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    (state / "traces").mkdir(parents=True, exist_ok=True)
    trace_out = state / "traces" / f"{args.workload}-{args.seed}.jsonl"
    try:
        if args.workload == "serve_http":
            outcome = run_serve(args.seed, args.seconds, traced, work, trace_out)
        else:
            outcome = run_in_process(args.workload, args.seed, args.seconds, traced, work,
                                     trace_out)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    values = outcome["layers"] if traced else outcome["metrics"]
    # per-layer metrics of a layer this workload never calls read 0
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in wanted}
    names = {m["name"] for m in wanted}
    unknown = set(values) - names
    missing = set() if traced else names - set(values)
    if unknown or missing:
        raise KeyError(f"metrics outside BENCHMARK.json: {sorted(unknown)}; "
                       f"not measured: {sorted(missing)}")
    print(json.dumps({"details": outcome["details"]}))
    print(json.dumps({"correct": outcome["correct"], "attempted": outcome["attempted"],
                      "failed": outcome["failed"], "metrics": metrics}))
    return 0 if outcome["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
