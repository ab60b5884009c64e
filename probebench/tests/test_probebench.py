"""The benchmark's own tests: exact references, checks, and smoke runs.

Run with ``python3 -m pytest probebench/tests -q`` from the repository
root (``src`` and the root are put on the path here).
"""

from __future__ import annotations

import itertools
import json
import math
import random
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from probebench import checks, reference  # noqa: E402
from probebench.run import END_TO_END, WORKLOADS  # noqa: E402
from probebench.tracing import CLIENT_METRICS, SPAN_METRICS  # noqa: E402
from repro.algorithms import (  # noqa: E402
    IRProbeHQS,
    ProbeCW,
    ProbeHQS,
    ProbeMaj,
    ProbeTree,
    RProbeCW,
    RProbeMaj,
    RProbeTree,
)
from repro.core.coloring import Coloring  # noqa: E402
from repro.systems import HQS, MajoritySystem, TreeSystem, TriangSystem  # noqa: E402

PS = (0.5, 0.3, 0.1)


# -- exact references against the scalar path, by enumeration ---------------------


def _colorings(n: int):
    """Every coloring of ``{1..n}`` with its red count."""
    for mask in range(1 << n):
        red = [i + 1 for i in range(n) if mask >> i & 1]
        yield Coloring(n, red), len(red)


def _enumerated_law(algorithm, ps):
    """Exact (mean, red probability) per ``p`` of a deterministic
    algorithm, from all 2^n colorings run through ``run_on``."""
    n = algorithm.system.n
    sums = {p: [0.0, 0.0] for p in ps}
    for coloring, reds in _colorings(n):
        run = algorithm.run_on(coloring)
        for p in ps:
            weight = p**reds * (1.0 - p) ** (n - reds)
            sums[p][0] += weight * run.probes
            sums[p][1] += weight * (not run.witness.is_green)
    return sums


def _assert_law(sums, formula):
    for p, (mean, red) in sums.items():
        exact = formula(p)
        assert mean == pytest.approx(exact.mean, rel=1e-12), p
        assert red == pytest.approx(exact.red, rel=1e-12, abs=1e-15), p


@pytest.mark.parametrize("n", [3, 7, 11, 15])
def test_majority_walk_matches_enumeration(n):
    sums = _enumerated_law(ProbeMaj(MajoritySystem(n)), PS)
    _assert_law(sums, lambda p: reference.majority_walk(n, p))


def test_majority_walk_at_the_paper_size():
    # The exact mean, not Proposition 3.2's asymptotic n - sqrt(n) = 969.36.
    assert reference.majority_walk(1001, 0.5).mean == pytest.approx(976.750, abs=5e-4)


@pytest.mark.parametrize("height", [1, 2, 3])
def test_probe_tree_matches_enumeration(height):
    sums = _enumerated_law(ProbeTree(TreeSystem(height)), PS)
    _assert_law(sums, lambda p: reference.probe_tree(height, p))
    assert reference.probe_tree(9, 0.5).mean == pytest.approx(113.33, abs=5e-3)


@pytest.mark.parametrize("height", [1, 2])
def test_probe_hqs_matches_enumeration(height):
    sums = _enumerated_law(ProbeHQS(HQS(height)), PS)
    _assert_law(sums, lambda p: reference.probe_hqs(height, p))
    assert reference.probe_hqs(6, 0.5).mean == pytest.approx(2.5**6)


@pytest.mark.parametrize("depth", [2, 3, 4, 5])
def test_probe_cw_matches_enumeration(depth):
    sums = _enumerated_law(ProbeCW(TriangSystem(depth)), PS)
    _assert_law(sums, lambda p: reference.probe_cw(reference.triang_widths(depth), p))


@pytest.mark.parametrize("n", [5, 9, 15])
def test_majority_exact_count_matches_enumeration(n):
    for reds in (0, 2, (n + 1) // 2, n - 1):
        placements = list(itertools.combinations(range(1, n + 1), reds))
        runs = [ProbeMaj(MajoritySystem(n)).run_on(Coloring(n, red)) for red in placements]
        exact = reference.majority_exact_count(n, reds)
        assert sum(run.probes for run in runs) / len(runs) == pytest.approx(exact.mean)
        assert sum(not run.witness.is_green for run in runs) == exact.red * len(runs)


class ScriptedRandom(random.Random):
    """Replays one path of an algorithm's random choices and records the
    branching, so every path can be enumerated with its probability."""

    def __init__(self, script):
        super().__init__(0)
        self.script = list(script)
        self.branching = []

    def _choose(self, options: int) -> int:
        step = len(self.branching)
        self.branching.append(options)
        return self.script[step] if step < len(self.script) else 0

    def randrange(self, stop):
        return self._choose(stop)

    def shuffle(self, items):
        orders = list(itertools.permutations(items))
        items[:] = orders[self._choose(len(orders))]


def _expected_over_randomness(algorithm, coloring):
    """Exact (E[probes], P[red witness]) over every path of ``rng``."""
    mean = red = 0.0
    script: list[int] = []
    while True:
        rng = ScriptedRandom(script)
        run = algorithm.run_on(coloring, rng=rng)
        weight = 1.0 / math.prod(rng.branching)
        mean += weight * run.probes
        red += weight * (not run.witness.is_green)
        script = rng.script[: len(rng.branching)] + [0] * (
            len(rng.branching) - len(rng.script)
        )
        # Odometer over the branch choices, last choice fastest.
        while script and script[-1] + 1 == rng.branching[len(script) - 1]:
            script.pop()
        if not script:
            return mean, red
        script[-1] += 1


def _randomized_law(algorithm, weighted_colorings):
    mean = red = 0.0
    for coloring, weight in weighted_colorings:
        m, r = _expected_over_randomness(algorithm, coloring)
        mean += weight * m
        red += weight * r
    return mean, red


def _iid(n, p):
    return [(c, p**reds * (1 - p) ** (n - reds)) for c, reds in _colorings(n)]


@pytest.mark.parametrize("height", [1, 2])
def test_r_probe_tree_matches_enumeration(height):
    system = TreeSystem(height)
    for p in PS:
        mean, red = _randomized_law(RProbeTree(system), _iid(system.n, p))
        exact = reference.r_probe_tree(height, p)
        assert (mean, red) == pytest.approx((exact.mean, exact.red), rel=1e-12)
    # Theorem 4.8 input: one green per bottom trio, green above.
    trios = [(v, *system.children(v)) for v in range(1, system.n + 1)
             if system.depth_of(v) == height - 1]
    hard = []
    for greens in itertools.product(*trios):
        red = {v for trio in trios for v in trio} - set(greens)
        hard.append((Coloring(system.n, red), 1.0 / 3 ** len(trios)))
    mean, red = _randomized_law(RProbeTree(system), hard)
    exact = reference.r_probe_tree_hard(height)
    assert (mean, red) == pytest.approx((exact.mean, exact.red), rel=1e-12)


def test_r_probe_cw_matches_enumeration():
    system = TriangSystem(3)
    widths = reference.triang_widths(3)
    for p in PS:
        mean, red = _randomized_law(RProbeCW(system), _iid(system.n, p))
        exact = reference.r_probe_cw(widths, p)
        assert (mean, red) == pytest.approx((exact.mean, exact.red), rel=1e-12)
    rows = [sorted(row) for row in system.rows]
    hard = [(Coloring(system.n, set(range(1, system.n + 1)) - set(greens)),
             1.0 / math.prod(len(row) for row in rows))
            for greens in itertools.product(*rows)]
    mean, red = _randomized_law(RProbeCW(system), hard)
    assert (mean, red) == pytest.approx((reference.r_probe_cw_hard(widths).mean, 0.0))
    grouped = [(Coloring(system.n, [e for row, down in zip(rows, mask) if down for e in row]),
                0.5 ** len(rows)) for mask in itertools.product((0, 1), repeat=len(rows))]
    mean, red = _randomized_law(RProbeCW(system), grouped)
    exact = reference.r_probe_cw_row_groups(widths, 0.5)
    assert (mean, red) == pytest.approx((exact.mean, exact.red))


def test_r_probe_maj_matches_enumeration():
    system = MajoritySystem(5)
    mean, red = _randomized_law(RProbeMaj(system), _iid(5, 0.3))
    exact = reference.majority_walk(5, 0.3)
    assert (mean, red) == pytest.approx((exact.mean, exact.red), rel=1e-12)
    hard = [(Coloring(5, red), 0.1) for red in itertools.combinations(range(1, 6), 3)]
    mean, red = _randomized_law(RProbeMaj(system), hard)
    exact = reference.majority_exact_count(5, 3)
    assert (mean, red) == pytest.approx((exact.mean, exact.red), rel=1e-12)


@pytest.mark.parametrize("height", [2, 3])
def test_ir_probe_hqs_matches_the_scalar_path(height):
    # Enumerating IR's random paths is too slow even at n = 9, so the
    # scalar path is sampled (fixed seed; false-alarm rate checks.FALSE_ALARM).
    system = HQS(height)
    algorithm = IRProbeHQS(system)
    rng = random.Random(7)
    runs = []
    for _ in range(20000):
        coloring = Coloring(system.n, [e for e in range(1, system.n + 1) if rng.random() < 0.5])
        runs.append(algorithm.run_on(coloring, rng=rng).probes)
    mean = sum(runs) / len(runs)
    std = math.sqrt(sum((r - mean) ** 2 for r in runs) / (len(runs) - 1))
    exact = reference.ir_probe_hqs(height, 0.5)
    assert checks.check_mean("IRProbeHQS", mean, std, len(runs), exact.mean) == []


# -- the checks themselves ---------------------------------------------------------


def test_statistical_check_rejects_a_mean_shifted_by_five_standard_errors():
    exact, std, count = 976.75, 18.4, 8192
    stderr = std / math.sqrt(count)
    assert checks.check_mean("maj", exact + 3 * stderr, std, count, exact) == []
    assert checks.check_mean("maj", exact + 5 * stderr, std, count, exact) != []
    assert checks.check_mean("maj", exact - 5 * stderr, std, count, exact) != []
    assert checks.check_mean("const", 45.0, 0.0, 100, 45.0) == []
    assert checks.check_mean("const", 45.5, 0.0, 100, 45.0) != []


def test_red_fraction_check_is_exact_where_the_input_forces_the_color():
    assert checks.check_red_fraction("hard", 4096, 4096, 1.0) == []
    assert checks.check_red_fraction("hard", 4095, 4096, 1.0) != []
    count = 10000
    shift = 5 * math.sqrt(0.25 / count) * count
    assert checks.check_red_fraction("iid", 5000, count, 0.5) == []
    assert checks.check_red_fraction("iid", round(5000 + shift), count, 0.5) != []


def test_service_check_rejects_a_result_that_differs_from_the_direct_call():
    from repro.core.engine import stream_probes
    from repro.experiments.sweep import run_sweep
    from repro.service.jobs import estimate_result_payload, sweep_result_payload

    direct = stream_probes(ProbeMaj(MajoritySystem(21)), p=0.5, trials=500, seed=3)
    served = json.loads(json.dumps(estimate_result_payload(direct)["statistics"]))
    assert checks.compare_estimate("job", served, direct) == []
    for key, wrong in (("mean", served["mean"] + 1e-9), ("histogram", served["histogram"][::-1]),
                       ("witness_red", served["witness_red"] + 1)):
        assert checks.compare_estimate("job", dict(served, **{key: wrong}), direct) != []

    sweep = run_sweep("maj", [5], [0.5], trials=200, seed=4)
    served = json.loads(json.dumps(sweep_result_payload(sweep)["statistics"]))
    assert checks.compare_sweep("sweep", served, sweep) == []
    served["cells"][0]["mean"] += 1.0
    assert checks.compare_sweep("sweep", served, sweep) != []


# -- smoke runs of the command ---------------------------------------------------


def _run(workload: str, trace: int) -> dict:
    completed = subprocess.run(
        [sys.executable, str(ROOT / "probebench" / "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", "0.1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170, cwd=ROOT,
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_prints_every_end_to_end_metric(workload):
    result = _run(workload, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert set(result["metrics"]) == set(END_TO_END)
    assert all(metric["value"] > 0 for metric in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_smoke_run_prints_every_per_layer_metric(workload):
    result = _run(workload, trace=1)
    assert result["correct"] is True
    assert set(result["metrics"]) == set(SPAN_METRICS) | set(CLIENT_METRICS)
    values = {name: metric["value"] for name, metric in result["metrics"].items()}
    assert values["engine.trials"] > 0
    if workload == "estimate-packed":
        assert values["bitpacked.sample_packed.self_s"] > 0
        assert values["bitpacked.pack_matrix.self_s"] > 0
    if workload == "estimate-randomized":
        assert values["batched.batched_or_sequential_run.self_s"] > 0
    if workload == "service":
        assert values["checkpoint.save_engine_checkpoint.calls"] > 0
        assert values["http.polls_per_job"] >= 1
