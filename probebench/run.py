"""Run the benchmark of the estimation engine and the probe service.

Usage, from the repository root::

    python3 probebench/run.py --workload estimate-packed --seed 1 --seconds 20 --trace 0
    python3 probebench/run.py --workload all

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs the
same workload with spans around each layer and prints the per-layer
metrics instead.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
the lines before it are a readable report.  See ``probebench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from probebench import estimate, service  # noqa: E402 - needs the path above
from probebench.checks import percentile  # noqa: E402
from probebench.refkernel import R_NOMINAL, normalized, reference_seconds  # noqa: E402
from probebench.tracing import (  # noqa: E402
    CLIENT_METRICS,
    Tracer,
    install_engine_wrappers,
    layer_units,
    self_times,
    span_metrics,
)

WORKLOADS = ("estimate-packed", "estimate-randomized", "service")

#: End-to-end metrics and their units.
END_TO_END = {
    "setup_s": "s",
    "trials_per_s": "1/s",
    "job_latency_p50_s": "s",
    "job_latency_p90_s": "s",
    "jobs_per_s": "1/s",
    "peak_rss_mb": "MB",
}

#: Metrics reported in normalized time on the in-process workloads, where
#: the repeated runs showed a narrower spread that way.  The service's
#: latencies are set by the kernel's delayed-ACK timer and are steadier
#: raw; only its set-up, a process start, is normalized.
NORMALIZED = (
    "setup_s", "trials_per_s", "job_latency_p50_s", "job_latency_p90_s", "jobs_per_s"
)
SERVICE_NORMALIZED = ("setup_s",)

RATES = ("trials_per_s", "jobs_per_s")

#: Fresh interpreters timed for the in-process ``setup_s``.
SETUP_RUNS = 5


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.workload == "all":
        return run_all(args)
    if args.workload == "service":
        report = run_service(args.seed, args.seconds, bool(args.trace))
    else:
        report = run_in_process(args.workload, args.seed, args.seconds, bool(args.trace))
    print_report(args.workload, report, bool(args.trace))
    print(json.dumps(result_line(report, bool(args.trace))))
    return 0


def run_in_process(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    for _ in range(3):
        reference_seconds()
    setups = [_setup_in_child(workload) for _ in range(SETUP_RUNS)]
    pairs = estimate.setup(workload)
    tracer = Tracer() if trace else None
    if tracer is not None:
        install_engine_wrappers(tracer)
    try:
        rounds, ops, failures, problems = estimate.timed_rounds(
            workload, pairs, seed, seconds
        )
    finally:
        if tracer is not None:
            tracer.restore()
    problems += estimate.verify(workload, pairs)
    trials = sum(op_trials for _, op_trials, _, _ in ops)
    forms = {}
    for form, times, setup in (
        ("raw", [t for *_, t, _ in ops], [t for t, _ in setups]),
        ("normalized", [normalized(t, r) for *_, t, r in ops],
         [normalized(t, r) for t, r in setups]),
    ):
        forms[form] = {
            "setup_s": statistics.median(setup),
            "trials_per_s": trials / sum(times),
            "job_latency_p50_s": percentile(times, 0.5),
            "job_latency_p90_s": percentile(times, 0.9),
            "jobs_per_s": len(ops) / sum(times),
        }
    forms["raw"]["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )
    report = _report(forms, NORMALIZED, rounds, len(ops) + failures, failures)
    references = [r for *_, r in ops]
    report.update(problems=problems, setup_samples=[t for t, _ in setups],
                  r_run=statistics.median(references))
    report["cases"] = {
        case.label: percentile([normalized(t, r) for c, _, t, r in ops if c is case], 0.5)
        for case in estimate.CASES[workload]
    }
    if tracer is not None:
        report["layers"] = span_metrics(self_times(tracer.spans), rounds)
        report["layers"].update(dict.fromkeys(CLIENT_METRICS, 0.0))
    return report


def run_service(seed: int, seconds: float, trace: bool) -> dict:
    references = [reference_seconds() for _ in range(10)]
    served = service.run(seed, seconds, trace)
    references += [reference_seconds() for _ in range(10)]
    scale = R_NOMINAL / statistics.median(references)
    raw = service.summarize(served)
    forms = {
        "raw": dict(raw, peak_rss_mb=served["peak_rss_mb"]),
        "normalized": {name: value / scale if name in RATES else value * scale
                       for name, value in raw.items()},
    }
    setups = served["setup_samples"]
    forms["raw"]["setup_s"] = statistics.median([t for t, _ in setups])
    forms["normalized"]["setup_s"] = statistics.median([normalized(t, r) for t, r in setups])
    report = _report(forms, SERVICE_NORMALIZED, served["rounds"], served["attempted"],
                     served["failed"])
    report.update(problems=served["problems"], setup_samples=[t for t, _ in setups],
                  r_run=statistics.median(references), disk_mb=served["disk_mb"])
    if trace:
        report["layers"] = served["layers"]
    return report


def _report(forms, normalized, rounds, attempted, failed) -> dict:
    """Each metric in its reported form, and the other form of every time
    and rate for the noise study."""
    metrics = {name: forms["normalized" if name in normalized else "raw"][name]
               for name in forms["raw"]}
    alternative = {name: forms["raw" if name in normalized else "normalized"][name]
                   for name in forms["normalized"]}
    return {"metrics": metrics, "alternative": alternative, "rounds": rounds,
            "attempted": attempted, "failed": failed}


def _setup_in_child(workload: str) -> tuple[float, float]:
    """One set-up in a fresh interpreter: ``(seconds, reference)``, the
    reference being the mean kernel time just before and after it."""
    before = reference_seconds()
    output = subprocess.run(
        [sys.executable, str(ROOT / "probebench" / "setup_probe.py"), workload],
        check=True, capture_output=True, text=True, timeout=170,
    ).stdout
    return float(output.split()[-1]), (before + reference_seconds()) / 2.0


def result_line(report: dict, trace: bool) -> dict:
    if trace:
        metrics = {name: {"value": report["layers"][name], "unit": unit}
                   for name, unit in layer_units().items()}
    else:
        metrics = {name: {"value": report["metrics"][name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    return {
        "correct": not report["problems"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }


def print_report(workload: str, report: dict, trace: bool) -> None:
    print(f"== {workload}: {report['rounds']} rounds, {report['attempted']} operations "
          f"attempted, {report['failed']} failed; R_run {report['r_run'] * 1e3:.3f} ms")
    print(f"   setup samples (s): {', '.join(f'{s:.3f}' for s in report['setup_samples'])}")
    for name in (*END_TO_END, "hit_latency_p50_s"):
        if name not in report["metrics"]:
            continue
        normalized_names = SERVICE_NORMALIZED if workload == "service" else NORMALIZED
        shown = "normalized" if name in normalized_names else "raw"
        line = f"   {name:<20} {report['metrics'][name]:>14.6g} {END_TO_END.get(name, 's'):<4} {shown}"
        if name in report["alternative"]:
            hidden = "raw" if shown == "normalized" else "normalized"
            line += f"   ({hidden}: {report['alternative'][name]:.6g})"
        print(line)
    if "disk_mb" in report:
        print(f"   {'disk_mb':<20} {report['disk_mb']:>14.6g} MB")
    if workload == "estimate-randomized":
        time_to_ci = report["metrics"]["job_latency_p50_s"]
        print(f"   time_to_ci_s (= job_latency_p50_s) {time_to_ci:.6g} s")
    for label, seconds in report.get("cases", {}).items():
        print(f"   case {label:<14} median op {seconds * 1e3:9.2f} ms (normalized)")
    if trace:
        for name, unit in layer_units().items():
            print(f"   layer {name:<42} {report['layers'][name]:>14.6g} {unit}")
    for problem in report["problems"]:
        print(f"   CHECK FAILED: {problem}")
    sys.stdout.flush()


def run_all(args) -> int:
    """Every workload in its own process; one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        completed = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True,
        )
        sys.stdout.write(completed.stdout.rsplit("\n", 2)[0] + "\n")
        if completed.returncode != 0:
            sys.stderr.write(completed.stderr)
            return completed.returncode
        result = json.loads(completed.stdout.strip().splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
