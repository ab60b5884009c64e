"""Exact expected probe counts and red-witness probabilities.

Every value here is derived from the algorithms' definitions in the paper
(Hassin & Peleg) and computed with the standard library only, so the
benchmark can check the program's estimates against numbers the program
did not produce.  ``tests/test_probebench.py`` cross-checks each formula by
enumerating all colorings of small instances (n <= 15) through the
program's scalar ``run_on`` path.

All functions return an :class:`Exact`: the expected number of probes
(``None`` where no closed form is used) and the probability that the
algorithm's witness is red (no live quorum).

Conventions: ``p`` is the failure (red) probability of one element and
``q = 1 - p``; "green probability" of a subtree is the probability it
holds a live quorum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class Exact:
    """Exact law of one (algorithm, input distribution) case."""

    mean: float | None
    red: float


# -- Majority -------------------------------------------------------------------


def majority_walk(n: int, p: float) -> Exact:
    """ProbeMaj (and RProbeMaj, whose random order changes nothing under
    i.i.d. colors) on Maj(n): probing stops at step ``t`` when one color
    reaches ``k = (n + 1) / 2``, i.e. the truncated walk law
    ``P[t, red] = C(t - 1, k - 1) p^k q^(t - k)`` for ``k <= t <= n``.

    This is the exact mean (976.750 at n = 1001, p = 1/2), not
    Proposition 3.2's asymptotic ``n - sqrt(n)``.
    """
    if n % 2 == 0:
        raise ValueError("Majority needs odd n")
    k = (n + 1) // 2
    q = 1.0 - p
    mean = red = 0.0
    for t in range(k, n + 1):
        log_c = math.lgamma(t) - math.lgamma(k) - math.lgamma(t - k + 1)
        p_red = _exp_or_zero(log_c, k, p, t - k, q)
        p_green = _exp_or_zero(log_c, k, q, t - k, p)
        mean += t * (p_red + p_green)
        red += p_red
    return Exact(mean, red)


def majority_exact_count(n: int, reds: int) -> Exact:
    """Maj(n) with exactly ``reds`` uniformly placed red elements, under
    any probe order (ProbeMaj and RProbeMaj alike).

    Of ``r`` reds and ``g = n - r`` greens exactly one count, ``m``,
    reaches ``k = (n + 1) / 2``; probing ends at the k-th element of that
    color, whose mean position is ``k (n + 1) / (m + 1)``, and the
    witness has that color.  With ``reds = k`` (the Theorem 4.2
    distribution) this is ``n - (n - k) / (k + 1)``.
    """
    k = (n + 1) // 2
    majority = max(reds, n - reds)
    return Exact(k * (n + 1) / (majority + 1), 1.0 if reds >= k else 0.0)


def _exp_or_zero(log_c: float, a: int, x: float, b: int, y: float) -> float:
    """``exp(log_c) * x^a * y^b`` with ``0^0 = 1`` and no underflow errors."""
    if (x == 0.0 and a) or (y == 0.0 and b):
        return 0.0
    log = log_c + (a * math.log(x) if a else 0.0) + (b * math.log(y) if b else 0.0)
    return math.exp(log)


# -- Tree -----------------------------------------------------------------------


def probe_tree(height: int, p: float) -> Exact:
    """ProbeTree on the Tree of the given height under i.i.d. ``p``.

    The root is probed, then the right subtree; the left subtree is
    searched only when the right witness's color differs from the root's.
    The left subtree's cost is independent of that event, so
    ``E_h = 1 + E_{h-1} (1 + P[v_R != root])`` with ``E_0 = 1`` —
    113.33 at h = 9, p = 1/2.
    """
    q = 1.0 - p
    cost, green = 1.0, q
    for _ in range(height):
        mismatch = p * green + q * (1.0 - green)
        cost = 1.0 + cost * (1.0 + mismatch)
        green = _tree_green(green, q)
    return Exact(cost, 1.0 - green)


def r_probe_tree(height: int, p: float) -> Exact:
    """RProbeTree under i.i.d. ``p``: each node picks (root, right | left),
    (root, left | right) or (left, right | root) uniformly; the bracketed
    part runs only when the first two disagree."""
    q = 1.0 - p
    cost, green = 1.0, q
    for _ in range(height):
        red = 1.0 - green
        mismatch = p * green + q * red
        root_first = 1.0 + cost * (1.0 + mismatch)
        subtrees_first = 2.0 * cost + 2.0 * green * red
        cost = (2.0 * root_first + subtrees_first) / 3.0
        green = _tree_green(green, q)
    return Exact(cost, 1.0 - green)


def r_probe_tree_hard(height: int) -> Exact:
    """RProbeTree under the Theorem 4.8 distribution (every bottom trio
    has exactly two reds, everything above is green).

    A bottom trio costs 8/3 in every order.  Above it the root is green
    and both subtrees red: a root-first order pays ``1 + 2 E``, the
    subtrees-first order ``2 E``, so ``E_h = 2 E_{h-1} + 2/3`` — which
    meets Theorem 4.7's ``5n/6 + 1/6``.  Every subtree, hence the tree, is
    red.
    """
    if height < 1:
        raise ValueError("the Theorem 4.8 distribution needs height >= 1")
    cost = 8.0 / 3.0
    for _ in range(height - 1):
        cost = 2.0 * cost + 2.0 / 3.0
    return Exact(cost, 1.0)


def _tree_green(green: float, q: float) -> float:
    """A subtree is live iff both children are, or the root and one child."""
    return green * green + q * 2.0 * green * (1.0 - green)


# -- HQS ------------------------------------------------------------------------


def hqs_green(height: int, leaf_green: float) -> float:
    """Green probability of a 2-of-3 majority tree over i.i.d. leaves."""
    green = leaf_green
    for _ in range(height):
        green = green**3 + 3.0 * green**2 * (1.0 - green)
    return green


def probe_hqs(height: int, p: float) -> Exact:
    """ProbeHQS: evaluate children left to right, the third only when the
    first two disagree: ``E_h = E_{h-1} (2 + 2 g (1 - g))`` with ``g`` the
    children's green probability — ``2.5^6 = 244.14`` at h = 6, p = 1/2.
    """
    cost, green = 1.0, 1.0 - p
    for _ in range(height):
        cost *= 2.0 + 2.0 * green * (1.0 - green)
        green = hqs_green(1, green)
    return Exact(cost, 1.0 - green)


def ir_probe_hqs(height: int, p: float) -> Exact:
    """IRProbeHQS (Fig. 8) under i.i.d. ``p``.

    Nodes of height <= 1 evaluate two random children and the third on
    disagreement.  Above, the algorithm evaluates ``r1``, peeks one
    grandchild of ``r2`` and then either finishes ``r2`` or jumps to
    ``r3`` first.  Subtree costs correlate with subtree values, so the
    recursion carries ``(green probability, E[cost | green],
    E[cost | red])`` per height and enumerates the five independent values
    (``r1``, the three grandchildren of ``r2``, ``r3``) at each node.
    """
    leaf = _Stats(1.0 - p, 1.0, 1.0)
    levels = [leaf]
    for h in range(1, height + 1):
        if h == 1:
            levels.append(_plain_gate(leaf))
        else:
            levels.append(_ir_gate(levels[h - 1], levels[h - 2]))
    top = levels[height]
    return Exact(top.mean, 1.0 - top.green)


@dataclass(frozen=True)
class _Stats:
    green: float
    cost_green: float
    cost_red: float

    @property
    def mean(self) -> float:
        return self.green * self.cost_green + (1.0 - self.green) * self.cost_red

    def prob(self, value: bool) -> float:
        return self.green if value else 1.0 - self.green

    def cost(self, value: bool) -> float:
        return self.cost_green if value else self.cost_red


class _GateTally:
    """Accumulates P[green], E[cost; green] and E[cost; red] over outcomes."""

    def __init__(self) -> None:
        self.green = self.cost_green = self.cost_red = 0.0

    def add(self, prob: float, cost: float, value: bool) -> None:
        if value:
            self.green += prob
            self.cost_green += prob * cost
        else:
            self.cost_red += prob * cost

    def stats(self) -> _Stats:
        red = 1.0 - self.green
        return _Stats(
            self.green,
            self.cost_green / self.green if self.green else 0.0,
            self.cost_red / red if red else 0.0,
        )


_BOOLS = (True, False)


def _plain_gate(child: _Stats) -> _Stats:
    tally = _GateTally()
    for a in _BOOLS:
        for b in _BOOLS:
            for c in _BOOLS:
                prob = child.prob(a) * child.prob(b) * child.prob(c)
                cost = child.cost(a) + child.cost(b)
                if a == b:
                    tally.add(prob, cost, a)
                else:
                    tally.add(prob, cost + child.cost(c), c)
    return tally.stats()


def _ir_gate(child: _Stats, grandchild: _Stats) -> _Stats:
    tally = _GateTally()
    for v1 in _BOOLS:
        for peek in _BOOLS:
            for second in _BOOLS:
                for third in _BOOLS:
                    for v3 in _BOOLS:
                        prob = (
                            child.prob(v1)
                            * grandchild.prob(peek)
                            * grandchild.prob(second)
                            * grandchild.prob(third)
                            * child.prob(v3)
                        )
                        # Finishing r2 after the peek: one more grandchild,
                        # the last one only if the two disagree.
                        finish = grandchild.cost(second)
                        if second != peek:
                            finish += grandchild.cost(third)
                        v2 = peek if second == peek else third
                        cost = child.cost(v1) + grandchild.cost(peek)
                        if peek == v1:
                            cost += finish
                            if v2 == v1:
                                value = v1
                            else:
                                cost += child.cost(v3)
                                value = v3
                        else:
                            cost += child.cost(v3)
                            if v3 == v1:
                                value = v1
                            else:
                                cost += finish
                                value = v2
                        tally.add(prob, cost, value)
    return tally.stats()


# -- Crumbling walls --------------------------------------------------------------


def probe_cw(widths: list[int], p: float) -> Exact:
    """ProbeCW (Fig. 5) under i.i.d. ``p``: the first row fixes the mode;
    each later row is probed until an element of the mode's color shows,
    and a row wholly of the other color flips the mode.  The mode depends
    only on rows above, so each row's cost is a mixture over the mode."""
    if widths[0] != 1:
        raise ValueError("Probe_CW needs a first row of width 1")
    q = 1.0 - p
    cost, mode_green = 1.0, q
    for width in widths[1:]:
        cost += mode_green * _geometric_prefix(p, width) + (1.0 - mode_green) * (
            _geometric_prefix(q, width)
        )
        mode_green = mode_green * (1.0 - p**width) + (1.0 - mode_green) * q**width
    return Exact(cost, 1.0 - mode_green)


def r_probe_cw(widths: list[int], p: float) -> Exact:
    """RProbeCW under i.i.d. ``p``: rows bottom-up, each probed until both
    colors show (``1 + sum_{j<w} (p^j + q^j)`` probes on average), stopping
    at the first monochromatic row, whose color is the witness's."""
    q = 1.0 - p
    cost = red = 0.0
    reach = 1.0  # probability that every row below was mixed
    for width in reversed(widths):
        row_cost = 1.0 + sum(p**j + q**j for j in range(1, width))
        cost += reach * row_cost
        red += reach * p**width
        reach *= 1.0 - (p**width + q**width)
    return Exact(cost, red)


def r_probe_cw_hard(widths: list[int]) -> Exact:
    """RProbeCW under the Theorem 4.6 distribution (one green per row):
    every row of width ``w >= 2`` is mixed and costs ``(w + 1)/2 + 1/w``;
    the width-1 top row is green and ends the scan."""
    if widths[0] != 1:
        raise ValueError("the Theorem 4.6 distribution here needs a width-1 top row")
    cost = 1.0 + sum((w + 1) / 2.0 + 1.0 / w for w in widths[1:])
    return Exact(cost, 0.0)


def r_probe_cw_row_groups(widths: list[int], p: float) -> Exact:
    """RProbeCW when whole rows fail together with probability ``p``: the
    bottom row is monochromatic, so it is probed in full and decides."""
    return Exact(float(widths[-1]), p)


def triang_widths(depth: int) -> list[int]:
    """Row widths of Triang(depth), the (1, 2, ..., depth)-crumbling wall."""
    return list(range(1, depth + 1))


def _geometric_prefix(ratio: float, width: int) -> float:
    """``sum_{j < width} ratio^j``: expected probes to meet a color that
    each probe misses with probability ``ratio``, capped at ``width``."""
    return sum(ratio**j for j in range(width))
