"""
Constructive enumeration of permutations at a given commutation distance.

Two cases admit a duplicate-free parameterization:

* all bad points inside one cycle of beta (any distance k >= 3), built by
  choosing a source and a target cycle of equal length, k points of the
  target, a successor-free k-cycle arranging the blocks, a starting point
  for the domain row and a commuting map on the complement;
* beta a fixed-point-free involution (distance 2j), built by re-pairing
  the points of j target 2-cycles so that no original couple survives.

Each generated permutation is produced by exactly one choice tuple, so the
number of choices equals the count given by the corresponding closed
formula, and the generated set equals the brute-force filter at small
degree (both facts are exercised by the test suite).

Each construction is one loop kernel, which yields every choice tuple
without its outer index together with the zero-based one-line words of the
commuting outer maps, in outer-index order.  ``single_cycle_words`` and
``fpf_words`` flatten it into the words that ``kommute enumerate`` and
``kommute verify`` read; ``single_cycle_pairs`` and ``fpf_pairs`` add the
outer index and build each ``Permutation``.  A word is a bijection because
its image row (or fpf inner assignment) hits exactly the target points and
its outer map exactly the other points; the kernel checks each row once
and each outer map once per (source, target) pair, raising ``ValueError``
(not an assert, so ``python -O`` keeps it) before any word of the group.

Indexing convention: the kernels work on zero-based points, read from
``word_cycles`` of beta's word; ``single_cycle_pairs`` and ``fpf_pairs``
lift each group's choice prefix to 1-based points once, at their edge.
"""

from __future__ import annotations

import itertools
import operator
from typing import Callable, Iterator, NamedTuple, Sequence

from .blocks import _cut
from .perm import Permutation, word_cycles


def canonical_cycle_word(p: Permutation) -> tuple[int, ...]:
    """
    Flatten the max-first canonical cycle notation: each cycle written with
    its largest point first, cycles sorted by first point, parentheses
    dropped.  A bijection from S_n onto one-line words.

    >>> canonical_cycle_word(Permutation.from_cycles([(4, 3, 1), (6, 5), (7, 2)], 7))
    (4, 3, 1, 6, 5, 7, 2)
    """
    rotated = []
    for cycle in p.cycles():
        i = cycle.index(max(cycle))
        rotated.append(cycle[i:] + cycle[:i])
    rotated.sort(key=lambda c: c[0])
    return tuple(point for cycle in rotated for point in cycle)


def successor_free_kcycles(k: int) -> Iterator[Permutation]:
    """
    All k-cycles tau of {1..k} with tau(a) != a+1 cyclically for every a
    (wrapping k+1 back to 1), in a deterministic order.
    """
    if k < 1:
        raise ValueError("k must be positive")
    # the cycle (1, *rest) sends each point a to the next one b; only the
    # taus that pass are built
    for rest in itertools.permutations(range(2, k + 1)):
        cycle = (1,) + rest
        if all(b != a % k + 1 for a, b in zip(cycle, rest + (1,))):
            yield Permutation.from_cycles([cycle], k)


class SingleCycleChoice(NamedTuple):
    """
    One parameter tuple of the single-cycle construction.

    ``source`` and ``target`` index equal-length cycles of beta (in
    canonical cycle order, possibly the same); ``points`` is the k-subset
    of the target cycle that will receive the bad points' images; ``tau``
    is a successor-free k-cycle arranging the blocks; ``start`` is the
    domain row's first point inside the source cycle; ``outer`` indexes the
    commuting bijection used on the complement.
    """

    source: int
    target: int
    points: tuple[int, ...]
    tau: Permutation
    start: int
    outer: int


def _outer_rows(
    cycles: Sequence[tuple[int, ...]], sources: Sequence[int], targets: Sequence[int]
) -> tuple[list[int], Iterator[list[int]]]:
    # the points outside the source cycles, and their images under each
    # bijection onto the points outside the target cycles that commutes with
    # beta there: cycles onto cycles of the same length, each freely rotated.
    # Order: the choices for the shortest length vary fastest; within a length
    # the rotations of the domain cycles (the last one fastest) vary faster
    # than the lexicographic pick of each domain cycle's target cycle
    dom: dict[int, list[tuple[int, ...]]] = {}
    cod: dict[int, list[tuple[int, ...]]] = {}
    for i, cycle in enumerate(cycles):
        if i not in sources:
            dom.setdefault(len(cycle), []).append(cycle)
        if i not in targets:
            cod.setdefault(len(cycle), []).append(cycle)
    # per length, longest first so that the shortest varies fastest in the
    # product: the images of that length's domain points under each choice
    lengths = sorted(dom, reverse=True)
    points = [p for length in lengths for d in dom[length] for p in d]
    per_length = [
        [
            [q for c, rot in zip(picked, rots) for q in c[rot:] + c[:rot]]
            for picked in itertools.permutations(cod[length])
            for rots in itertools.product(range(length), repeat=len(dom[length]))
        ]
        for length in lengths
    ]
    return points, (list(itertools.chain(*images)) for images in itertools.product(*per_length))


def _image_row(blocks: list[list[int]], order: Sequence[int]) -> list[int]:
    # the images of the source cycle read from its start: the blocks in
    # tau's order (tau's labels are 1-based)
    return [p for label in order for p in blocks[label - 1]]


def _rotate(row: list[int], s: int) -> list[int]:
    # the images of the source cycle read from its first point, when row
    # holds them read from position s
    m = len(row)
    return row[m - s :] + row[: m - s]


def _checked(images: list[int], points: list[int]) -> list[int]:
    # the bijection check of Permutation.__init__, made once for a whole row
    # or outer map: its zero-based images must be exactly the sorted points
    if sorted(images) != points:
        got = tuple(x + 1 for x in images)
        want = tuple(p + 1 for p in points)
        raise ValueError(f"images {got} are not a bijection onto {want}")
    return images


def _frame(
    cycles: Sequence[tuple[int, ...]], sources: Sequence[int], targets: Sequence[int]
) -> tuple[Callable[[list[int]], tuple[int, ...]], list[int], list[list[int]]]:
    # for source and target cycles of the same lengths: the gather from the
    # images of the source cycles' points (in cycle order) then an outer row
    # to a one-line word, the sorted target points those images must hit, and
    # the outer rows in outer-index order, each checked to hit the other points
    domain = [p for i in sources for p in cycles[i]]
    points, rows = _outer_rows(cycles, sources, targets)
    slot = {p: i for i, p in enumerate(domain + points)}
    # n >= 2 here, so the gather returns a tuple
    gather = operator.itemgetter(*(slot[p] for p in range(len(slot))))
    inside = {p for i in targets for p in cycles[i]}
    others = [p for p in range(len(slot)) if p not in inside]
    return gather, sorted(inside), [_checked(row, others) for row in rows]


# a choice prefix (the choice tuple without its outer index) and the words
# its outer maps give, in outer-index order
_Groups = Iterator[tuple[tuple, Iterator[tuple[int, ...]]]]


def _single_cycle_groups(beta: Permutation, k: int) -> _Groups:
    # the construction's loops, one group per (source, target, points, tau,
    # start); each row and each outer map is checked before any word of its
    # group is built, so every word yielded is a bijection
    if k < 3:
        raise ValueError("the construction needs k >= 3")
    cycles = word_cycles(beta.word)
    # with no cycle of k or more points there is no witness, and the walk
    # over the (k-1)! k-cycles would be wasted; with one, each of the f(k)
    # taus kept (about (k-1)!/e) gives a witness, so the output bounds the walk
    taus = list(successor_free_kcycles(k)) if any(len(c) >= k for c in cycles) else []
    # the order in which each tau arranges the blocks
    orders = [canonical_cycle_word(tau) for tau in taus]
    for source, cycle_from in enumerate(cycles):
        m = len(cycle_from)
        if m < k:
            continue
        for target, cycle_to in enumerate(cycles):
            if len(cycle_to) != m:
                continue
            gather, inner, outers = _frame(cycles, (source,), (target,))
            for points in itertools.combinations(sorted(cycle_to), k):
                # cut the target cycle into k blocks, each ending at a
                # selected point, with the cutter the characterization uses
                # on alpha's images; ending the improper block at the
                # largest selected point makes each witness come once
                blocks = _cut(cycle_to, set(points), cycle_to.index(points[-1]) + 1)
                for tau, order in zip(taus, orders):
                    row = _checked(_image_row(blocks, order), inner)
                    for s, start in enumerate(cycle_from):
                        words = map(gather, map(_rotate(row, s).__add__, outers))
                        yield (source, target, points, tau, start), words


def single_cycle_words(beta: Permutation, k: int) -> Iterator[tuple[int, ...]]:
    """
    The zero-based one-line words of the single-cycle witnesses at
    distance k, in the order of ``single_cycle_pairs``.
    """
    return itertools.chain.from_iterable(words for _, words in _single_cycle_groups(beta, k))


def single_cycle_pairs(
    beta: Permutation, k: int
) -> Iterator[tuple[SingleCycleChoice, Permutation]]:
    """
    Every choice tuple together with the permutation it builds.  The map
    choice -> permutation is injective, so consuming this stream counts
    the construction.
    """
    for (source, target, points, tau, start), words in _single_cycle_groups(beta, k):
        prefix = (source, target, tuple(p + 1 for p in points), tau, start + 1)
        for oi, word in enumerate(words):
            yield SingleCycleChoice(*prefix, oi), Permutation._from_word(word)


def enumerate_single_cycle(beta: Permutation, k: int) -> set[Permutation]:
    """
    The exact set of permutations at distance k from beta whose bad points
    all lie in a single cycle of beta.
    """
    return set(map(Permutation._from_word, single_cycle_words(beta, k)))


# -- fixed-point-free involutions ---------------------------------------------


def perfect_matchings(
    points: Sequence[int],
) -> Iterator[tuple[tuple[int, int], ...]]:
    """All perfect matchings of an even point set, smallest point first."""
    points = tuple(points)
    if len(points) % 2:
        raise ValueError("need an even number of points")
    if not points:
        yield ()
        return
    first, rest = points[0], points[1:]
    for i, partner in enumerate(rest):
        remaining = rest[:i] + rest[i + 1 :]
        for sub in perfect_matchings(remaining):
            yield ((first, partner),) + sub


def _fpf_groups(beta: Permutation, j: int) -> _Groups:
    # the construction's loops, one group per (sources, targets, matching,
    # assigned, orient); each inner assignment and each outer map is
    # checked before any word of its group is built
    cycles = word_cycles(beta.word)
    if any(len(c) != 2 for c in cycles):
        raise ValueError("beta must be a fixed-point-free involution")
    m = len(cycles)
    if not 0 <= j <= m:
        raise ValueError(f"j={j} out of range 0..{m}")
    for sources in itertools.combinations(range(m), j):
        for targets in itertools.combinations(range(m), j):
            target_couples = {cycles[i] for i in targets}
            gather, inner_points, outers = _frame(cycles, sources, targets)
            for matching in perfect_matchings(inner_points):
                if any(pair in target_couples for pair in matching):
                    continue
                for assigned in itertools.permutations(matching):
                    for orient in itertools.product((0, 1), repeat=j):
                        # source couple (x, y) goes to (u, v), or to (v, u)
                        # when flipped
                        inner = [
                            p
                            for (u, v), flip in zip(assigned, orient)
                            for p in ((v, u) if flip else (u, v))
                        ]
                        words = map(gather, map(_checked(inner, inner_points).__add__, outers))
                        yield (sources, targets, matching, assigned, orient), words


def fpf_words(beta: Permutation, j: int) -> Iterator[tuple[int, ...]]:
    """
    The zero-based one-line words of the witnesses at distance 2j from the
    fixed-point-free involution beta, in the order of ``fpf_pairs``.
    """
    return itertools.chain.from_iterable(words for _, words in _fpf_groups(beta, j))


def fpf_pairs(beta: Permutation, j: int) -> Iterator[tuple[tuple, Permutation]]:
    """
    Choice tuples and permutations for the fixed-point-free involution
    construction at distance 2j: pick j source and j target 2-cycles, push
    the source couples onto a matching of the target points that avoids
    every target couple, and extend by a commuting bijection elsewhere.
    """
    for (sources, targets, matching, assigned, orient), words in _fpf_groups(beta, j):
        lifted_matching = tuple((u + 1, v + 1) for u, v in matching)
        lifted = tuple((u + 1, v + 1) for u, v in assigned)
        prefix = (sources, targets, lifted_matching, lifted, orient)
        for oi, word in enumerate(words):
            yield (*prefix, oi), Permutation._from_word(word)


def enumerate_fpf(beta: Permutation, j: int) -> set[Permutation]:
    """
    The exact set of permutations at distance 2j from the fixed-point-free
    involution beta.
    """
    return set(map(Permutation._from_word, fpf_words(beta, j)))
