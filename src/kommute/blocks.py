"""
Blocks in cycles and the block characterization of commutation distance.

A *block* of a reference permutation beta is a nonempty string of points
that are consecutive inside one cycle of beta (each point is followed by
its beta-image).  A block is proper when it is shorter than its host cycle
and improper when it is the whole cycle.

For permutations alpha, beta a point a is *bad* when alpha*beta and
beta*alpha disagree at a.  Splitting the conjugated cycle
alpha*beta_j*alpha^{-1} at the images of the bad points of the cycle beta_j
yields blocks P_1..P_k of beta such that no concatenation P_i P_{i+1}
(cyclically) is again a block; conversely any such family of blocks arises
this way.  ``verify_characterization`` checks the whole equivalence on a
concrete pair and must return True on every input; a False return signals
a bug, not a property of the input.

The characterization is decided per cycle: the verdict on a cycle of beta
reads only alpha's images of that cycle's points and which of them are
bad.  ``_cycle_verdict`` decides one cycle into its bad count and a
bitmask of its image points, and ``_fold`` joins the cycles' verdicts
into the pair's (image masks disjoint, bad counts adding up to the
distance), so a caller checking many pairs against one beta can decide
each distinct cycle once.

Indexing convention: the private kernels work on zero-based points, as
the permutations' words do; the public functions take and return 1-based
points and convert once, at their edge.
"""

from __future__ import annotations

import functools
from typing import Collection, Iterable, NamedTuple, Sequence

from .perm import Permutation, word_cycles


class _Frame(NamedTuple):
    """What every check against one beta needs of beta, computed once."""

    cycles: tuple[tuple[int, ...], ...]  # word_cycles(word), canonical order
    host: tuple[int, ...]  # host[p]: length of the cycle through p


@functools.lru_cache(maxsize=64)
def _frame(word: tuple[int, ...]) -> _Frame:
    cycles = word_cycles(word)
    host = [0] * len(word)
    for cycle in cycles:
        for p in cycle:
            host[p] = len(cycle)
    return _Frame(cycles, tuple(host))


def bad_points(alpha: Permutation, beta: Permutation) -> frozenset[int]:
    """
    The points where alpha*beta and beta*alpha disagree.  Its size is the
    commutation distance of the pair.
    """
    alpha._check_degree(beta)
    a, b = alpha.word, beta.word
    return frozenset(i + 1 for i in range(len(a)) if a[b[i]] != b[a[i]])


def profile(alpha: Permutation, beta: Permutation) -> tuple[int, ...]:
    """
    Multiset of per-cycle bad-point counts, as a decreasing tuple.

    Only cycles of beta containing at least one bad point contribute, so
    the parts are positive and sum to the commutation distance; the empty
    tuple means the pair commutes.

    >>> b = Permutation.from_cycles([(1, 2, 4, 5, 3), (7, 6)], 7)
    >>> a = Permutation.from_cycles([(2, 7), (3, 6, 4, 5)], 7)
    >>> profile(a, b)
    (4, 1)
    """
    return _profile({p - 1 for p in bad_points(alpha, beta)}, _frame(beta.word).cycles)


def _profile(bad: Collection[int], cycles: Sequence[tuple[int, ...]]) -> tuple[int, ...]:
    # ``profile`` from the bad points and beta's cycles, both in one base
    parts = [sum(p in bad for p in cycle) for cycle in cycles]
    return as_profile([c for c in parts if c])


def as_profile(parts: Sequence[int]) -> tuple[int, ...]:
    """Canonical (decreasing) form of a multiset of positive parts."""
    if any(p < 1 for p in parts):
        raise ValueError("profile parts must be positive")
    return tuple(sorted(parts, reverse=True))


def _is_block(points: list[int], word: tuple[int, ...], host: tuple[int, ...]) -> bool:
    # a nonempty list, each point followed by its beta-image and no longer
    # than the host cycle; such a string cannot repeat a point
    return len(points) <= host[points[0]] and [word[a] for a in points[:-1]] == points[1:]


def is_block(points: Sequence[int], beta: Permutation) -> bool:
    """
    True iff the points are consecutive inside a single cycle of beta and
    the string is no longer than that cycle.

    A string matching a full cycle is an (improper) block; wrapping past
    one full turn is not.

    >>> pi = Permutation.from_cycles([(1, 2, 3, 4), (5, 6, 7, 8, 9)], 9)
    >>> is_block([2, 3, 4, 1], pi)
    True
    >>> is_block([1, 2, 8], pi)
    False
    """
    points = [p - 1 for p in points]
    if points and all(0 <= p < beta.degree for p in points):
        return _is_block(points, beta.word, _frame(beta.word).host)
    return False


def _cut(cycle: tuple[int, ...], bad: frozenset[int], start: int) -> list[list[int]]:
    # the cycle read from position `start` (mod its length) in runs, each
    # ending at a bad point; `start` must follow a bad point
    m = len(cycle)
    runs: list[list[int]] = []
    run: list[int] = []
    for step in range(m):
        p = cycle[(start + step) % m]
        run.append(p)
        if p in bad:
            runs.append(run)
            run = []
    if run:
        raise ValueError(f"cycle walk from position {start} of {cycle} ends off a bad point")
    return runs


class BlockDecomposition(NamedTuple):
    """
    The split of alpha*beta_j*alpha^{-1} cut at the images of the bad
    points of the cycle beta_j.

    ``domain`` is beta_j rewritten so that reading it in k runs of the
    block lengths puts one bad point at the end of each run, and
    ``bad_points[i]`` is that last point of run i; ``blocks[i]`` is the
    alpha-image of run i.  Runs start from the block whose bad point has
    the smallest label, which fixes one of the k cyclic rotations.
    """

    cycle_index: int
    domain: tuple[int, ...]
    blocks: tuple[tuple[int, ...], ...]
    bad_points: tuple[int, ...]


def block_decomposition(
    alpha: Permutation, beta: Permutation, cycle_index: int
) -> BlockDecomposition:
    """
    Decompose the image of the cycle_index-th cycle of beta (in canonical
    cycle order) at the images of its bad points.

    Raises ValueError when alpha commutes with beta on that cycle: with no
    bad points there is nothing to cut.
    """
    cycles = beta.cycles()
    if not 0 <= cycle_index < len(cycles):
        raise ValueError(f"cycle index {cycle_index} out of range")
    cycle = cycles[cycle_index]
    bad = bad_points(alpha, beta)
    bad_pos = [i for i, p in enumerate(cycle) if p in bad]
    if not bad_pos:
        raise ValueError(f"cycle {cycle} commutes; no block decomposition")
    anchor = bad_pos.index(min(bad_pos, key=lambda i: cycle[i]))
    # start after the bad position cyclically before the anchor (itself when alone)
    runs = _cut(cycle, bad, bad_pos[anchor - 1] + 1)
    return BlockDecomposition(
        cycle_index,
        tuple(p for run in runs for p in run),
        tuple(tuple(alpha(q) for q in run) for run in runs),
        tuple(run[-1] for run in runs),
    )


def verify_characterization(alpha: Permutation, beta: Permutation) -> bool:
    """
    Check the block characterization on one pair:

    * on every cycle of beta without bad points, alpha maps the cycle onto
      an improper block (a whole cycle) of beta;
    * on a cycle with one bad point, the single image block is a proper
      block of beta;
    * on a cycle with k > 1 bad points, every image block is a block of
      beta and no cyclically adjacent pair P_i P_{i+1} merges into one;
    * all image blocks over all cycles are pairwise disjoint;
    * the per-cycle bad counts add up to the commutation distance.

    True on all inputs; any False indicates an implementation bug.
    """
    alpha._check_degree(beta)
    a, w = alpha.word, beta.word
    cycles, host = _frame(w)
    bad = frozenset(p - 1 for p in bad_points(alpha, beta))
    verdicts = (_cycle_verdict(a, cycle, bad, w, host) for cycle in cycles)
    return _fold(verdicts, alpha.commute_distance(beta))


def _fold(verdicts: Iterable[tuple[int, int] | None], k: int) -> bool:
    # the pair's verdict from its cycles' verdicts: every cycle passes, the
    # image masks are pairwise disjoint and the bad counts add up to k
    total = used = 0
    for verdict in verdicts:
        if verdict is None or used & verdict[1]:
            return False
        total += verdict[0]
        used |= verdict[1]
    return total == k


def _cycle_verdict(
    a: tuple[int, ...],
    cycle: tuple[int, ...],
    bad: frozenset[int],
    w: tuple[int, ...],
    host: tuple[int, ...],
) -> tuple[int, int] | None:
    # the characterization on one cycle of beta: None when it fails there
    # or its image points repeat, else the cycle's bad count and the bitmask
    # of the points of its image blocks (0 for a commuting cycle).  Reads
    # only alpha's images of the cycle and which of its points are bad
    ends = [i for i, p in enumerate(cycle) if p in bad]
    # any rotation will do: every condition below is cyclic
    try:
        runs = _cut(cycle, bad, ends[-1] + 1) if ends else [cycle]
    except ValueError:
        return None
    images = [[a[p] for p in run] for run in runs]
    # every image run is a block, and a lone one is improper exactly when
    # the cycle has no bad point
    if not all(_is_block(b, w, host) for b in images):
        return None
    if len(images) == 1 and (len(images[0]) == host[images[0][0]]) == bool(ends):
        return None
    # x and y are blocks, so x + y is one iff beta takes the end of x to
    # the start of y and x + y fits in the host cycle; a lone block, proper
    # or whole, never merges with itself
    for x, y in zip(images[-1:] + images[:-1], images):
        if w[x[-1]] == y[0] and len(x) + len(y) <= host[x[0]]:
            return None
    if not ends:
        return 0, 0
    # a sum of distinct powers of two has one bit per term: fewer bits
    # mean a repeated point
    points = [p for b in images for p in b]
    mask = sum([1 << p for p in points])
    if mask.bit_count() != len(points):
        return None
    return len(runs), mask
