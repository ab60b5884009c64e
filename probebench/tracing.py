"""Spans around the calls into each layer's public functions.

The traced run wraps module attributes and class methods that the
program looks up at call time (``_run_chunk`` imports the bitpacked
functions inside its body; ``repro.service.app`` calls its module-level
``stream_probes`` name and its own methods), so wrapping them from the
benchmark's files records every call without touching the program.

A span records its name, start, end, parent span and free-form ``attrs``
(job id, bytes written, chunks merged).  Spans stay in memory and are
written out once at the end.  A layer's self time is its spans' duration
minus the time their child spans cover; children nest on one thread, so
that is the sum of the children's durations.
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path


#: Span-derived per-layer metrics: name -> (span name, field, unit).
SPAN_METRICS = {
    "bitpacked.sample_packed.self_s": ("bitpacked.sample_packed", "self_s", "s"),
    "bitpacked.pack_matrix.self_s": ("bitpacked.pack_matrix", "self_s", "s"),
    "bitpacked.run_packed.self_s": ("bitpacked.run_packed", "self_s", "s"),
    "distributions.sample_matrix.self_s": ("distributions.sample_matrix", "self_s", "s"),
    "batched.batched_or_sequential_run.self_s": (
        "batched.batched_or_sequential_run", "self_s", "s"
    ),
    "engine.stream_probes.self_s": ("engine.stream_probes", "self_s", "s"),
    "engine.chunks": ("engine.stream_probes", "chunks", "count"),
    "engine.trials": ("engine.stream_probes", "trials", "count"),
    "checkpoint.save_engine_checkpoint.calls": (
        "checkpoint.save_engine_checkpoint", "calls", "count"
    ),
    "checkpoint.save_engine_checkpoint.self_s": (
        "checkpoint.save_engine_checkpoint", "self_s", "s"
    ),
    "checkpoint.save_engine_checkpoint.bytes": (
        "checkpoint.save_engine_checkpoint", "bytes", "B"
    ),
    "service.JobJournal.write.calls": ("service.JobJournal.write", "calls", "count"),
    "service.JobJournal.write.self_s": ("service.JobJournal.write", "self_s", "s"),
    "service.submit.self_s": ("service.submit", "self_s", "s"),
    "service.ResultCache.get.self_s": ("service.ResultCache.get", "self_s", "s"),
    "service.ResultCache.put.self_s": ("service.ResultCache.put", "self_s", "s"),
}

#: Per-layer metrics the service client derives itself: name -> unit.
#: They read 0 on the in-process workloads, which have no such layer.
CLIENT_METRICS = {
    "service.queue_wait_s": "s",
    "http.wait_s": "s",
    "http.polls_per_job": "count",
    "service.hit_latency_p50_s": "s",
    "service.disk_mb": "MB",
}


class Tracer:
    """Collects spans from any number of threads of one process."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        stack = self._local.__dict__.setdefault("stack", [])
        record = {
            "name": name,
            "start": time.monotonic(),
            "end": None,
            "parent": stack[-1] if stack else None,
            "attrs": {},
        }
        with self._lock:
            record["index"] = len(self.spans)
            self.spans.append(record)
        stack.append(record["index"])
        try:
            yield record
        finally:
            stack.pop()
            record["end"] = time.monotonic()

    def wrap(self, owner, attr: str, name: str, after=None) -> None:
        """Replace ``owner.attr`` (a module function or a class method) by
        a wrapper that records a span; ``after(record, args, kwargs,
        result)`` may add attributes once the call returns."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = original(*args, **kwargs)
                if after is not None:
                    after(record, args, kwargs, result)
                return result

        setattr(owner, attr, traced)
        self._undo.append((owner, attr, original))

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def dump(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.spans))


def self_times(spans: list[dict]) -> dict[str, dict]:
    """Per span name: ``calls``, ``self_s`` and the sum of numeric attrs."""
    child_time: dict[int, float] = defaultdict(float)
    for span in spans:
        if span["parent"] is not None and span["end"] is not None:
            child_time[span["parent"]] += span["end"] - span["start"]
    totals: dict[str, dict] = defaultdict(lambda: defaultdict(float))
    for span in spans:
        if span["end"] is None:
            continue
        total = totals[span["name"]]
        total["calls"] += 1
        total["self_s"] += span["end"] - span["start"] - child_time[span["index"]]
        for key, value in span["attrs"].items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                total[key] += value
    return totals


def layer_units() -> dict[str, str]:
    """Every per-layer metric with its unit, in report order."""
    units = {name: unit for name, (_, _, unit) in SPAN_METRICS.items()}
    units.update(CLIENT_METRICS)
    return units


def span_metrics(totals: dict[str, dict], rounds: int) -> dict[str, float]:
    """:data:`SPAN_METRICS` per round of the workload."""
    return {
        metric: totals.get(span, {}).get(field, 0.0) / rounds
        for metric, (span, field, _) in SPAN_METRICS.items()
    }


def install_engine_wrappers(tracer: Tracer) -> None:
    """Spans for the estimation layers: sampling, packing, kernels, the
    engine's drive loop and its checkpoint writes."""
    from repro.core import batched, bitpacked, checkpoint, distributions, engine

    def stream_result(record, args, kwargs, result):
        record["attrs"].update(
            chunks=result.chunks,
            trials=result.n_trials_used,
            job=_job_of(kwargs.get("checkpoint_path")),
        )

    def checkpoint_bytes(record, args, kwargs, result):
        record["attrs"]["bytes"] = os.path.getsize(result)

    tracer.wrap(bitpacked, "sample_packed", "bitpacked.sample_packed")
    tracer.wrap(bitpacked, "pack_matrix", "bitpacked.pack_matrix")
    tracer.wrap(bitpacked, "run_packed", "bitpacked.run_packed")
    tracer.wrap(
        distributions.ColoringSource, "sample_matrix", "distributions.sample_matrix"
    )
    tracer.wrap(
        batched, "batched_or_sequential_run", "batched.batched_or_sequential_run"
    )
    tracer.wrap(
        checkpoint,
        "save_engine_checkpoint",
        "checkpoint.save_engine_checkpoint",
        after=checkpoint_bytes,
    )
    tracer.wrap(engine, "stream_probes", "engine.stream_probes", after=stream_result)


def install_service_wrappers(tracer: Tracer) -> None:
    """Spans for the service layers, on top of the engine's.  The service
    and the sweep runner hold their own ``stream_probes`` names, so those
    are wrapped as well."""
    from repro.core import engine
    from repro.experiments import sweep
    from repro.service import app, cache, jobs

    install_engine_wrappers(tracer)
    # The engine wrapper is in place now; the service's and the sweep
    # runner's imported names must point at it too.
    app.stream_probes = engine.stream_probes
    sweep.stream_probes = engine.stream_probes

    def submitted(record, args, kwargs, result):
        status, body = result
        record["attrs"]["job"] = body.get("id") if status == 202 else None

    def sweep_started(record, args, kwargs, result):
        record["attrs"]["job"] = _job_of(kwargs.get("checkpoint_path"))

    # ``ProbeService._execute`` imports ``run_sweep`` at call time, so it
    # gets this wrapper.
    tracer.wrap(sweep, "run_sweep", "sweep.run_sweep", after=sweep_started)
    tracer.wrap(app.ProbeService, "submit", "service.submit", after=submitted)
    tracer.wrap(jobs.JobJournal, "write", "service.JobJournal.write")
    tracer.wrap(cache.ResultCache, "get", "service.ResultCache.get")
    tracer.wrap(cache.ResultCache, "put", "service.ResultCache.put")
    tracer.wrap(app._Handler, "do_GET", "http.handler")
    tracer.wrap(app._Handler, "do_POST", "http.handler")


def _job_of(checkpoint_path) -> str | None:
    """The service names engine checkpoints after their job id."""
    if checkpoint_path is None:
        return None
    return Path(checkpoint_path).name.split(".")[0]
