"""The two in-process workloads: ``estimate-packed`` and ``estimate-randomized``.

Both call :func:`repro.core.engine.stream_probes` in the benchmark
process, one call per operation, in whole rounds over a fixed list of
cases.  Nothing here imports numpy or repro at module level, so
``setup_probe.py`` can time the import of repro itself.

``estimate-packed`` runs the four deterministic paper algorithms with a
fixed trial count and backend ``auto`` (bitpacked without numba).  Input
sampling dominates it, so word-native sampling shows here.  Its two
non-i.i.d. cases cost about the same and are the slowest, so the 90th
percentile of operation times falls inside their cluster, not on the
edge between two cases' times.

``estimate-randomized`` runs the randomized paper algorithms in
``target_ci`` mode; only numpy kernels serve them.  Each tolerance is
``1.96 sigma / sqrt(2.5 * CHUNK)`` for the case's standard deviation, so
the stopping rule is met in the middle of the third chunk, about 10% in
CI width from either chunk boundary: nearly every run stops after exactly
three chunks (one for the zero-variance case), whatever the seed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from probebench import reference
from probebench.checks import check_mean, check_red_fraction

#: Trials per packed operation: two default-size chunks, and the smallest
#: count for which backend ``auto`` picks a packed backend.
PACKED_TRIALS = 8192

#: Chunk size of the randomized ``target_ci`` runs.
CHUNK = 512

#: Fixed seed of the statistical verification runs, and their trial counts.
VERIFY_SEED = 20010801
VERIFY_TRIALS = {"estimate-packed": 32768, "estimate-randomized": 8192}

WIDTHS = reference.triang_widths(45)


@dataclass(frozen=True)
class Case:
    """One (system, algorithm family, input distribution) operation."""

    label: str
    system: str
    size: int
    distribution: str
    p: float
    exact: reference.Exact
    randomized: bool = False
    #: 95% CI half-width of a ``target_ci`` run; ``None`` = fixed trials.
    tolerance: float | None = None


PACKED_CASES = (
    Case("maj-p0.5", "maj", 1001, "bernoulli", 0.5, reference.majority_walk(1001, 0.5)),
    Case("maj-p0.25", "maj", 1001, "bernoulli", 0.25, reference.majority_walk(1001, 0.25)),
    Case("tree-p0.5", "tree", 9, "bernoulli", 0.5, reference.probe_tree(9, 0.5)),
    Case("tree-p0.25", "tree", 9, "bernoulli", 0.25, reference.probe_tree(9, 0.25)),
    Case("hqs-p0.5", "hqs", 6, "bernoulli", 0.5, reference.probe_hqs(6, 0.5)),
    Case("hqs-p0.25", "hqs", 6, "bernoulli", 0.25, reference.probe_hqs(6, 0.25)),
    Case("cw-p0.5", "triang", 45, "bernoulli", 0.5, reference.probe_cw(WIDTHS, 0.5)),
    Case("cw-p0.25", "triang", 45, "bernoulli", 0.25, reference.probe_cw(WIDTHS, 0.25)),
    # Not i.i.d.: sample_packed falls back to packing the source's matrix.
    # Exactly k + 1 = 501 reds (Theorem 4.2), and exactly round(p n) = 250.
    Case("maj-hard", "maj", 1001, "majority_hard", 0.5,
         reference.majority_exact_count(1001, 501)),
    Case("maj-count", "maj", 1001, "fixed_count", 0.25,
         reference.majority_exact_count(1001, 250)),
)

RANDOMIZED_CASES = (
    Case("rmaj-p0.5", "maj", 1001, "bernoulli", 0.5,
         reference.majority_walk(1001, 0.5), True, 1.0),
    Case("rmaj-hard", "maj", 1001, "majority_hard", 0.5,
         reference.majority_exact_count(1001, 501), True, 0.078),
    Case("rcw-p0.5", "triang", 45, "bernoulli", 0.5,
         reference.r_probe_cw(WIDTHS, 0.5), True, 0.50),
    Case("rcw-hard", "triang", 45, "cw_hard", 0.5,
         reference.r_probe_cw_hard(WIDTHS), True, 2.8),
    # Whole rows fail together: the bottom row decides at a fixed cost.
    Case("rcw-rows", "triang", 45, "correlated_groups", 0.5,
         reference.r_probe_cw_row_groups(WIDTHS, 0.5), True, 0.5),
    Case("rtree-p0.5", "tree", 9, "bernoulli", 0.5,
         reference.r_probe_tree(9, 0.5), True, 5.2),
    Case("rtree-hard", "tree", 9, "tree_hard", 0.5,
         reference.r_probe_tree_hard(9), True, 0.58),
    Case("irhqs-p0.5", "hqs", 6, "bernoulli", 0.5,
         reference.ir_probe_hqs(6, 0.5), True, 3.3),
    # 27-element blocks (the height-3 subtrees) fail together; the witness
    # color is exact, the mean has no closed form here.
    Case("irhqs-blocks", "hqs", 6, "correlated_groups", 0.5,
         reference.Exact(None, 1.0 - reference.hqs_green(3, 0.5)), True, 1.6),
)

CASES = {"estimate-packed": PACKED_CASES, "estimate-randomized": RANDOMIZED_CASES}


def build(case: Case):
    """The (algorithm, source) pair of a case, through repro's registries."""
    from repro.algorithms import (
        default_deterministic_algorithm,
        default_randomized_algorithm,
    )
    from repro.core.distributions import build_source
    from repro.systems import build_system

    system = build_system(case.system, case.size)
    if case.randomized:
        algorithm = default_randomized_algorithm(system)
    else:
        algorithm = default_deterministic_algorithm(system)
    return algorithm, build_source(case.distribution, system, case.p)


def run_op(case: Case, pair, seed: int):
    """One operation: a fixed-trials or ``target_ci`` engine run."""
    from repro.core import engine

    algorithm, source = pair
    if case.tolerance is None:
        return engine.stream_probes(
            algorithm, source, trials=PACKED_TRIALS, seed=seed, backend="auto"
        )
    return engine.stream_probes(
        algorithm, source, target_ci=case.tolerance, chunk_size=CHUNK, seed=seed
    )


def setup(workload: str) -> list:
    """Import repro, build every case and run one warm-up operation each."""
    import repro  # noqa: F401 - the import is part of set-up

    pairs = [build(case) for case in CASES[workload]]
    for index, (case, pair) in enumerate(zip(CASES[workload], pairs)):
        run_op(case, pair, seed=index)
    return pairs


def op_seed(seed: int, round_index: int, case_index: int) -> int:
    """Distinct input stream of every operation, derived from ``--seed``."""
    return (seed << 40) | (round_index << 8) | case_index


def timed_rounds(workload: str, pairs, seed: int, seconds: float):
    """Whole rounds of every case until ``seconds`` have passed.

    Returns ``(rounds, ops, failures, problems)`` with one ``(case,
    trials, seconds, reference)`` per operation that returned, where
    ``reference`` is the mean reference-kernel time just before and after
    the operation.  Each result is checked at once and then dropped, so
    the benchmark's own memory does not grow with the number of rounds.
    """
    from probebench.refkernel import reference_seconds

    cases = CASES[workload]
    ops, problems = [], []
    rounds = failures = 0
    before = reference_seconds()
    started = time.perf_counter()
    while rounds == 0 or time.perf_counter() - started < seconds:
        for index, (case, pair) in enumerate(zip(cases, pairs)):
            begin = time.perf_counter()
            try:
                result = run_op(case, pair, op_seed(seed, rounds, index))
            except Exception as error:  # counted, reported, and the run goes on
                failures += 1
                result = error
            elapsed = time.perf_counter() - begin
            after = reference_seconds()
            if isinstance(result, Exception):
                print(f"   operation {case.label} failed: {result!r}")
            else:
                ops.append((case, result.n_trials_used, elapsed, (before + after) / 2.0))
                problems += check_op(case, result)
            before = after
        rounds += 1
    return rounds, ops, failures, problems


def check_op(case: Case, result) -> list[str]:
    """Exact invariants every timed operation must meet, on any seed."""
    label = f"{case.label} (seed-dependent op)"
    problems = []
    if sum(result.histogram) != result.n_trials_used:
        problems.append(f"{label}: histogram holds {sum(result.histogram)} trials")
    if case.tolerance is None:
        if result.n_trials_used != PACKED_TRIALS:
            problems.append(f"{label}: ran {result.n_trials_used} trials")
        if result.backend == "numpy":
            problems.append(f"{label}: backend auto resolved to numpy")
    else:
        if not result.reached_target or result.ci95 > case.tolerance:
            problems.append(
                f"{label}: target_ci {case.tolerance} not reached "
                f"(ci95 {result.ci95}, reached_target {result.reached_target})"
            )
    if case.exact.red in (0.0, 1.0):
        problems += check_red_fraction(
            label, result.witness_red, result.n_trials_used, case.exact.red
        )
    if case.exact.mean is not None and result.std == 0.0:
        problems += check_mean(label, result.mean, 0.0, 1, case.exact.mean)
    return problems


def verify(workload: str, pairs) -> list[str]:
    """The statistical check: one fixed-seed, fixed-trials run per case."""
    from repro.core import engine

    problems = []
    for case, (algorithm, source) in zip(CASES[workload], pairs):
        result = engine.stream_probes(
            algorithm,
            source,
            trials=VERIFY_TRIALS[workload],
            seed=VERIFY_SEED,
            backend="numpy" if case.randomized else "auto",
        )
        label = f"{case.label} (verification, seed {VERIFY_SEED})"
        if case.exact.mean is not None:
            problems += check_mean(
                label, result.mean, result.std, result.n_trials_used, case.exact.mean
            )
        problems += check_red_fraction(
            label, result.witness_red, result.n_trials_used, case.exact.red
        )
    return problems
