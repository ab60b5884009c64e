"""The ``service`` workload: ``repro-probe serve`` in its own process and
one closed-loop HTTP/1.1 client on one keep-alive connection.

The server runs with one worker thread and engine ``jobs=1`` on a fresh
data directory.  Each round sends the same mix of requests (seeds differ
per round, derived from ``--seed``):

* six estimate misses over small systems, 5-15 ms of engine work each
  (kept below one 40 ms stall, see below, so every miss takes the same
  number of round trips on a slow host too); two use a small
  ``chunk_size``, so per-chunk checkpoint writes are a visible share, and
  one stops on ``target_ci``;
* three repeats of this round's misses, answered from the result cache;
* one small sweep.

The client sends its next request only when the previous one has
completed, and polls ``GET /jobs/<id>`` every ``POLL_INTERVAL_S`` until a
job is done.  Every response on a keep-alive connection currently waits
about 40 ms (the server writes headers and body in two sends; Nagle's
algorithm holds the body until the client's delayed ACK).  The client
stays on keep-alive on purpose, so that fixing this moves the latencies.
"""

from __future__ import annotations

import http.client
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

from probebench.checks import (
    compare_counters,
    compare_estimate,
    compare_sweep,
    parse_prometheus,
    percentile,
)
from probebench.refkernel import reference_seconds
from probebench.tracing import self_times, span_metrics

ROOT = Path(__file__).resolve().parent.parent

MISSES = (
    {"system": "maj", "size": 101, "p": 0.5, "trials": 2000},
    {"system": "tree", "size": 5, "p": 0.3, "trials": 3000},
    {"system": "hqs", "size": 3, "p": 0.5, "trials": 1024, "chunk_size": 256},
    {"system": "triang", "size": 10, "p": 0.5, "randomized": True,
     "trials": 750, "chunk_size": 250},
    {"system": "maj", "size": 51, "p": 0.5, "randomized": True,
     "distribution": "majority_hard", "trials": 2000},
    {"system": "tree", "size": 4, "p": 0.5, "target_ci": 0.5, "chunk_size": 500},
)
SWEEP = {"system": "maj", "sizes": [21, 41], "ps": [0.3, 0.5], "trials": 1000}

#: Request order of one round: ("miss", i), ("sweep", 0), or ("hit", i) —
#: a repeat of this round's miss ``i``, answered from the result cache.
ROUND = (
    ("miss", 0), ("miss", 1), ("hit", 0),
    ("miss", 2), ("miss", 3), ("hit", 2),
    ("miss", 4), ("miss", 5), ("hit", 4),
    ("sweep", 0),
)

POLL_INTERVAL_S = 0.002
SETUP_SPAWNS = 5
TIMEOUT_S = 60.0


class ServerProcess:
    """One ``repro-probe serve`` child on a fresh data directory."""

    def __init__(self, data_dir: Path, spans: Path | None) -> None:
        self.data_dir = data_dir
        data_dir.mkdir(parents=True)
        serve = ["serve", "--data-dir", str(data_dir), "--port", "0",
                 "--workers", "1", "--engine-jobs", "1"]
        if spans is None:
            command = [sys.executable, "-m", "repro.cli", *serve]
        else:
            command = [sys.executable, str(ROOT / "probebench" / "serve_traced.py"),
                       str(spans), *serve]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
        )
        self.log = open(data_dir.parent / f"{data_dir.name}.log", "wb")
        self.process = subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=self.log, env=env, text=True
        )
        self.requests = 0

    def wait_ready(self) -> None:
        """Block until the bound address is announced and /readyz says 200."""
        line = self.process.stdout.readline()
        if not line.startswith("serving on http://"):
            raise RuntimeError(f"server did not start (exit {self.process.poll()}): {line!r}")
        host_port = line.split("http://", 1)[1].split()[0]
        self.host, port = host_port.rsplit(":", 1)
        self.port = int(port)
        deadline = time.monotonic() + TIMEOUT_S
        while time.monotonic() < deadline:
            connection = http.client.HTTPConnection(self.host, self.port, timeout=TIMEOUT_S)
            try:
                connection.request("GET", "/readyz")
                status = connection.getresponse().status
                self.requests += 1
            finally:
                connection.close()
            if status == 200:
                return
            time.sleep(0.005)
        raise RuntimeError("server never became ready")

    def peak_rss_mb(self) -> float:
        status = Path(f"/proc/{self.process.pid}/status").read_text()
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        """SIGTERM (graceful drain), then wait; kill if it hangs."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()
        self.log.close()


class Client:
    """The closed-loop client: one keep-alive connection, timed requests."""

    def __init__(self, server: ServerProcess) -> None:
        self.server = server
        self.connection = http.client.HTTPConnection(
            server.host, server.port, timeout=TIMEOUT_S
        )
        self.request_seconds = 0.0

    def call(self, method: str, path: str, body: dict | None = None):
        payload = None if body is None else json.dumps(body)
        headers = {} if body is None else {"Content-Type": "application/json"}
        begin = time.monotonic()
        self.connection.request(method, path, payload, headers)
        response = self.connection.getresponse()
        data = response.read()
        self.request_seconds += time.monotonic() - begin
        self.server.requests += 1
        return response.status, data

    def submit_and_wait(self, path: str, body: dict):
        """POST, then poll until done; returns (status, view, polls)."""
        status, data = self.call("POST", path, body)
        view = json.loads(data)
        polls = 0
        while status == 202 and view.get("state") not in ("done", "failed"):
            time.sleep(POLL_INTERVAL_S)
            code, data = self.call("GET", f"/jobs/{view.get('id')}")
            view = json.loads(data)
            polls += 1
            if code != 200:
                status = code
        return status, view, polls

    def close(self) -> None:
        self.connection.close()


def request_body(kind: str, index: int, seed: int, round_index: int, position: int) -> dict:
    if kind == "sweep":
        return dict(SWEEP, seed=_seed(seed, round_index, position))
    return dict(MISSES[index], seed=_seed(seed, round_index, position))


def _seed(seed: int, round_index: int, position: int) -> int:
    return (seed << 40) | (round_index << 8) | position


def run(seed: int, seconds: float, trace: bool) -> dict:
    """Run the workload; returns the report dict that ``run.py`` prints."""
    scratch = ROOT / ".probebench_tmp" / f"service-{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    spans_path = scratch / "spans.json" if trace else None
    server = None
    try:
        setups = []
        for index in range(SETUP_SPAWNS):
            before = reference_seconds()
            begin = time.monotonic()
            server = ServerProcess(scratch / f"data{index}", spans_path)
            server.wait_ready()
            elapsed = time.monotonic() - begin
            setups.append((elapsed, (before + reference_seconds()) / 2.0))
            if index < SETUP_SPAWNS - 1:
                server.stop()
        report = _drive(server, seed, seconds)
        report["setup_samples"] = setups
        client = Client(server)
        _, text = client.call("GET", "/metrics")
        client.close()
        served = parse_prometheus(text.decode())
        report["peak_rss_mb"] = server.peak_rss_mb()
        server.stop()
        report["disk_mb"] = _tree_bytes(server.data_dir) / 1e6
        report["problems"] += _check_counters(served, report, server.requests)
        report["problems"] += _check_results(report)
        if trace:
            report["layers"] = _layers(json.loads(spans_path.read_text()), report)
        return report
    finally:
        if server is not None:
            server.stop()
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:  # another run still uses it
            pass


def _drive(server: ServerProcess, seed: int, seconds: float) -> dict:
    client = Client(server)
    misses, hits, sweeps, problems = [], [], [], []
    rounds = failed = 0
    window_start = time.monotonic()
    while rounds == 0 or time.monotonic() - window_start < seconds:
        answers = {}
        for position, (kind, index) in enumerate(ROUND):
            if kind == "hit":
                first = answers.get(("miss", index))
                if first is None:  # its miss failed; so does the repeat
                    failed += 1
                    continue
                body = first["body"]
                begin = time.monotonic()
                status, data = client.call("POST", "/estimate", body)
                latency = time.monotonic() - begin
                view = json.loads(data)
                if status != 200 or not view.get("cached"):
                    problems.append(f"repeat of {body} was not a cache hit ({status})")
                hits.append({"body": body, "latency": latency, "view": view,
                             "first": first["view"]})
                continue
            body = request_body(kind, index, seed, rounds, position)
            path = "/sweep" if kind == "sweep" else "/estimate"
            begin = time.monotonic()
            status, view, polls = client.submit_and_wait(path, body)
            latency = time.monotonic() - begin
            record = {"body": body, "latency": latency, "view": view, "polls": polls}
            if status not in (200, 202) or view.get("state") != "done":
                failed += 1
                print(f"   {path} {body} ended {status} {view.get('state')}")
                continue
            (sweeps if kind == "sweep" else misses).append(record)
            answers[kind, index] = record
        rounds += 1
    window_end = time.monotonic()
    client.close()
    return {
        "rounds": rounds,
        "attempted": rounds * len(ROUND),
        "misses": misses,
        "hits": hits,
        "sweeps": sweeps,
        "problems": problems,
        "failed": failed,
        "window": (window_start, window_end),
        "client_request_s": client.request_seconds,
    }


def _trials(record: dict, kind: str) -> int:
    statistics = record["view"]["result"]["statistics"]
    if kind == "sweep":
        return sum(cell["n_trials_used"] for cell in statistics["cells"])
    return statistics["n_trials_used"]


def summarize(report: dict) -> dict:
    """End-to-end metrics of the service workload (raw wall-clock)."""
    seconds = report["window"][1] - report["window"][0]
    misses, hits, sweeps = report["misses"], report["hits"], report["sweeps"]
    latencies = [record["latency"] for record in misses]
    trials = sum(_trials(r, "miss") for r in misses) + sum(_trials(r, "sweep") for r in sweeps)
    return {
        "job_latency_p50_s": percentile(latencies, 0.5),
        "job_latency_p90_s": percentile(latencies, 0.9),
        "hit_latency_p50_s": percentile([record["latency"] for record in hits], 0.5),
        "jobs_per_s": (len(misses) + len(hits) + len(sweeps)) / seconds,
        "trials_per_s": trials / seconds,
    }


def _check_counters(served: dict, report: dict, requests: int) -> list[str]:
    jobs = len(report["misses"]) + len(report["sweeps"])
    trials = sum(_trials(r, "miss") for r in report["misses"])
    trials += sum(_trials(r, "sweep") for r in report["sweeps"])
    return compare_counters(served, {
        "repro_cache_hits_total": len(report["hits"]),
        "repro_cache_misses_total": jobs,
        "repro_jobs_submitted_total": jobs,
        "repro_jobs_done_total": jobs,
        "repro_jobs_failed_total": 0,
        "repro_jobs_rejected_total": 0,
        "repro_request_errors_total": 0,
        "repro_requests_total": requests,
        "repro_trials_total": trials,
    })


def _check_results(report: dict) -> list[str]:
    """Every job against a direct engine call; every hit against its miss."""
    from repro.algorithms import default_deterministic_algorithm, default_randomized_algorithm
    from repro.core.distributions import build_source
    from repro.core.engine import stream_probes
    from repro.experiments.sweep import run_sweep
    from repro.systems import build_system

    problems = []
    for record in report["misses"]:
        body = record["body"]
        system = build_system(body["system"], body["size"])
        randomized = body.get("randomized", False)
        algorithm = (default_randomized_algorithm if randomized
                     else default_deterministic_algorithm)(system)
        source = build_source(body.get("distribution", "bernoulli"), system, body["p"])
        direct = stream_probes(
            algorithm, source, trials=body.get("trials"), target_ci=body.get("target_ci"),
            chunk_size=body.get("chunk_size"), seed=body["seed"], backend="numpy",
        )
        problems += compare_estimate(
            f"job {record['view']['id']}", record["view"]["result"]["statistics"], direct
        )
    for record in report["sweeps"]:
        body = record["body"]
        direct = run_sweep(body["system"], body["sizes"], body["ps"],
                           trials=body["trials"], seed=body["seed"], backend="numpy")
        problems += compare_sweep(
            f"sweep {record['view']['id']}", record["view"]["result"]["statistics"], direct
        )
    for record in report["hits"]:
        if record["view"].get("result") != record["first"]["result"]:
            problems.append(f"cache hit for {record['body']} changed the first answer")
    return problems


def _tree_bytes(directory: Path) -> int:
    return sum(
        os.path.getsize(os.path.join(folder, name))
        for folder, _, names in os.walk(directory)
        for name in names
    )


def _layers(spans: list[dict], report: dict) -> dict[str, float]:
    """Per-layer metrics from the server's spans inside the timed window."""
    start, end = report["window"]
    inside = [span for span in spans if start <= span["start"] and span["end"] is not None
              and span["end"] <= end]
    totals = self_times(inside)
    engine_start = {}
    for span in inside:
        job = span["attrs"].get("job")
        if job and span["name"] in ("engine.stream_probes", "sweep.run_sweep"):
            engine_start[job] = min(engine_start.get(job, span["start"]), span["start"])
    queue_wait = sum(
        engine_start[span["attrs"]["job"]] - span["end"]
        for span in inside
        if span["name"] == "service.submit" and span["attrs"].get("job") in engine_start
    )
    handler_total = sum(
        span["end"] - span["start"] for span in inside if span["name"] == "http.handler"
    )
    polled = len(report["misses"]) + len(report["sweeps"])
    polls = sum(record["polls"] for record in report["misses"] + report["sweeps"])
    layers = span_metrics(totals, report["rounds"])
    layers.update({
        "service.queue_wait_s": queue_wait / report["rounds"],
        "http.wait_s": (report["client_request_s"] - handler_total) / report["rounds"],
        "http.polls_per_job": polls / polled,
        "service.hit_latency_p50_s": summarize(report)["hit_latency_p50_s"],
        "service.disk_mb": report["disk_mb"],
    })
    return layers
