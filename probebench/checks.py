"""Output checks and the small statistics the report needs.

Statistical checks compare an estimate with an exact value from
:mod:`probebench.reference`.  They run on a fixed seed, so their outcome
is the same on every run of the same code; with ``Z_CRIT = 4`` a correct
program fails one such check with probability ``FALSE_ALARM`` (6.3e-5,
two-sided normal tail), while a mean shifted by 5 standard errors fails
it with probability 0.84 on any one seed.

The service checks compare what the service returned with a direct
engine call made by the benchmark: the same parameters must give the
same statistics, byte for byte once wall-clock fields are dropped.
"""

from __future__ import annotations

import json
import math

Z_CRIT = 4.0
FALSE_ALARM = math.erfc(Z_CRIT / math.sqrt(2.0))

#: Result fields that record how a run went (time, recovery), not what it
#: computed; they differ between two runs of the same job.
TIMING_KEYS = ("seconds", "retries_used", "pool_respawns", "worker_reassignments")


def check_mean(label: str, mean: float, std: float, count: int, exact: float) -> list[str]:
    """Problems (empty when fine) with ``mean`` against the exact mean."""
    stderr = std / math.sqrt(count)
    if stderr == 0.0:
        if math.isclose(mean, exact, rel_tol=1e-12, abs_tol=1e-9):
            return []
        return [f"{label}: zero-variance mean {mean!r} != exact {exact!r}"]
    z = (mean - exact) / stderr
    if abs(z) <= Z_CRIT:
        return []
    return [
        f"{label}: mean {mean:.4f} is {z:+.2f} standard errors from the "
        f"exact {exact:.4f} (limit {Z_CRIT})"
    ]


def check_red_fraction(label: str, red: int, count: int, exact: float) -> list[str]:
    """Problems with the red-witness count against the exact probability.

    Where the input forces the witness color (probability exactly 0 or 1)
    the count must be exactly 0 or ``count``.
    """
    if exact in (0.0, 1.0):
        expected = round(exact * count)
        if red == expected:
            return []
        return [f"{label}: {red}/{count} red witnesses, the input forces {expected}"]
    stderr = math.sqrt(exact * (1.0 - exact) / count)
    z = (red / count - exact) / stderr
    if abs(z) <= Z_CRIT:
        return []
    return [
        f"{label}: red fraction {red / count:.5f} is {z:+.2f} standard errors "
        f"from the exact {exact:.5f} (limit {Z_CRIT})"
    ]


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated ``q``-quantile (``0 <= q <= 1``) of ``values``."""
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def _plain(value):
    """``value`` as JSON would carry it (tuples become lists, floats exact)."""
    return json.loads(json.dumps(value))


def compare_estimate(label: str, job_statistics: dict, direct) -> list[str]:
    """A served estimate's statistics against a direct ``StreamResult``."""
    problems = []
    for key, served in sorted(job_statistics.items()):
        expected = _plain(getattr(direct, key, None))
        if _plain(served) != expected:
            problems.append(f"{label}: {key} served {served!r}, direct call gave {expected!r}")
    return problems


def strip_timing(payload):
    """``payload`` without the keys in :data:`TIMING_KEYS`, recursively."""
    if isinstance(payload, dict):
        return {k: strip_timing(v) for k, v in payload.items() if k not in TIMING_KEYS}
    if isinstance(payload, list):
        return [strip_timing(item) for item in payload]
    return payload


def compare_sweep(label: str, job_statistics: dict, direct) -> list[str]:
    """A served sweep's statistics against a direct ``SweepResult``."""
    expected = _plain(strip_timing(direct.to_dict()))
    if _plain(job_statistics) == expected:
        return []
    keys = sorted(
        key
        for key in set(expected) | set(job_statistics)
        if _plain(job_statistics.get(key)) != expected.get(key)
    )
    return [f"{label}: sweep statistics differ from the direct call in {keys}"]


def compare_counters(served: dict[str, float], expected: dict[str, float]) -> list[str]:
    """``/metrics`` counters against the client's own counts."""
    return [
        f"/metrics {name} = {served.get(name)!r}, the client counted {value!r}"
        for name, value in expected.items()
        if served.get(name) != value
    ]


def parse_prometheus(text: str) -> dict[str, float]:
    """``name value`` lines of a Prometheus text page (comments skipped)."""
    values = {}
    for line in text.splitlines():
        if line and not line.startswith("#"):
            name, value = line.rsplit(" ", 1)
            values[name] = float(value)
    return values
