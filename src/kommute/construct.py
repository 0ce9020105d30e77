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
without its outer index together with the zero-based one-line words of
the commuting outer maps, in outer-index order.  ``single_cycle_words``
and ``fpf_words`` flatten it into words, which is all ``kommute
enumerate`` needs; ``single_cycle_pairs`` and ``fpf_pairs`` add the outer
index and build each ``Permutation``.  A word is a bijection because its
image row (or fpf inner assignment) hits exactly the target points and its
outer map exactly the other points; the kernel checks each row once and
each outer map once per (source, target) pair, raising ``ValueError``
(not an assert, so ``python -O`` keeps it) before any word of the group.
"""

from __future__ import annotations

import itertools
import math
import operator
from typing import Callable, Collection, Iterable, Iterator, NamedTuple, Sequence

from .perm import Permutation


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
    for rest in itertools.permutations(range(2, k + 1)):
        tau = Permutation.from_cycles([(1,) + rest], k)
        if _successor_free(tau):
            yield tau


def _successor_free(tau: Permutation) -> bool:
    k = tau.degree
    return all(tau(a) != a % k + 1 for a in range(1, k + 1))


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


def outer_assignments(
    beta: Permutation, sources: Collection[int], targets: Collection[int]
) -> Iterator[dict[int, int]]:
    """
    All bijections from the points outside the source cycles onto the
    points outside the target cycles that commute with beta there: cycles
    map onto cycles of the same length, each with a free rotation.
    ``sources`` and ``targets`` index cycles of beta in canonical cycle
    order and must have the same multiset of lengths.  Deterministic order
    (lengths ascending, then cycle order, rotations last), decoded from the
    index of each map, so ``build_single_cycle`` can jump to one.
    """
    layout = _outer_layout(beta, sources, targets)
    total = math.prod(
        length ** len(dcycles) * math.factorial(len(dcycles))
        for length, dcycles, _ in layout
    )
    for index in range(total):
        yield _outer_map(layout, index)


# (length, domain cycles, codomain cycles) outside the source and the target
# cycles, lengths ascending
_OuterLayout = list[tuple[int, list[tuple[int, ...]], list[tuple[int, ...]]]]


def _outer_layout(
    beta: Permutation, sources: Collection[int], targets: Collection[int]
) -> _OuterLayout:
    cycles = beta.cycles()
    if not all(0 <= i < len(cycles) for i in (*sources, *targets)):
        raise ValueError("cycle index out of range")
    if sorted(len(cycles[i]) for i in sources) != sorted(
        len(cycles[i]) for i in targets
    ):
        raise ValueError("source and target cycles must have equal lengths")
    dom: dict[int, list[tuple[int, ...]]] = {}
    cod: dict[int, list[tuple[int, ...]]] = {}
    for i, cycle in enumerate(cycles):
        if i not in sources:
            dom.setdefault(len(cycle), []).append(cycle)
        if i not in targets:
            cod.setdefault(len(cycle), []).append(cycle)
    return [(length, dom[length], cod[length]) for length in sorted(dom)]


def _outer_map(layout: _OuterLayout, index: int) -> dict[int, int]:
    # mixed-radix decode; per length, shortest first: the rotations of the
    # domain cycles (the last one fastest), then the lexicographic rank of
    # the permutation that picks each domain cycle's target cycle
    mapping: dict[int, int] = {}
    for length, dcycles, ccycles in layout:
        c = len(dcycles)
        index, rots = divmod(index, length**c)
        index, rank = divmod(index, math.factorial(c))
        free = list(ccycles)
        for i, d in enumerate(dcycles):
            pick, rank = divmod(rank, math.factorial(c - 1 - i))
            target = free.pop(pick)
            rot = rots // length ** (c - 1 - i) % length
            for pos, point in enumerate(d):
                mapping[point] = target[(pos + rot) % length]
    if index:
        raise ValueError("outer index out of range")
    return mapping


def _cut(
    cycle_from: tuple[int, ...],
    cycle_to: tuple[int, ...],
    points: Sequence[int],
    endpoint: int,
) -> list[list[int]]:
    # cut the target cycle into k blocks, each ending at a selected point,
    # the improper one at endpoint; with a free endpoint every witness is
    # produced k times (once per selected point), with the canonical
    # endpoint (the largest selected point) exactly once
    m = len(cycle_from)
    k = len(points)
    selected = set(points)
    if not selected <= set(cycle_to):
        raise ValueError("selected points must lie in the target cycle")
    if len(selected) != k:
        raise ValueError("selected points must be distinct")
    if k < 3:
        raise ValueError("the construction needs k >= 3")
    if m < k:
        raise ValueError(f"cycle length {m} is below k={k}")
    if endpoint not in selected:
        raise ValueError("the improper block must end at a selected point")
    pos = cycle_to.index(endpoint) + 1
    blocks: list[list[int]] = []
    run: list[int] = []
    for p in cycle_to[pos:] + cycle_to[:pos]:
        run.append(p)
        if p in selected:
            blocks.append(run)
            run = []
    return blocks


def _tau_order(tau: Permutation, k: int) -> tuple[int, ...]:
    # the order in which tau arranges the blocks
    if tau.degree != k or len(tau.cycles()) != 1 or not _successor_free(tau):
        raise ValueError("tau must be a successor-free k-cycle")
    return canonical_cycle_word(tau)


def _image_row(blocks: list[list[int]], order: Sequence[int]) -> list[int]:
    # the zero-based images of the source cycle read from its start: the
    # blocks in tau's order
    return [p - 1 for label in order for p in blocks[label - 1]]


def _rotate(row: list[int], s: int) -> list[int]:
    # the images of the source cycle read from its first point, when row
    # holds them read from position s
    m = len(row)
    return row[m - s :] + row[: m - s]


def _layout(
    n: int, inner_points: Sequence[int]
) -> tuple[Callable[[list[int]], tuple[int, ...]], list[int]]:
    # a gather that turns the zero-based images of inner_points (in that
    # order) followed by those of the other points (ascending) into a
    # zero-based one-line word, and the other points; n >= 2 here, so the
    # gather returns a tuple
    inner = set(inner_points)
    outer_points = [p for p in range(1, n + 1) if p not in inner]
    slot = {p: i for i, p in enumerate([*inner_points, *outer_points])}
    return operator.itemgetter(*(slot[p] for p in range(1, n + 1))), outer_points


def _checked(images: list[int], points: list[int]) -> list[int]:
    # the bijection check of Permutation.__init__, made once for a whole row
    # or outer map: its zero-based images must be exactly the sorted points
    if sorted(images) != points:
        got = tuple(x + 1 for x in images)
        want = tuple(p + 1 for p in points)
        raise ValueError(f"images {got} are not a bijection onto {want}")
    return images


def _split(n: int, cycles: Iterable[tuple[int, ...]]) -> tuple[list[int], list[int]]:
    # the zero-based points of the given cycles and the other points, sorted:
    # what a row and what an outer map must hit
    inside = {p - 1 for cycle in cycles for p in cycle}
    return sorted(inside), [p for p in range(n) if p not in inside]


def build_single_cycle(beta: Permutation, choice: SingleCycleChoice) -> Permutation:
    """
    Realize one choice tuple as a permutation alpha.  The result is at
    distance k = len(choice.points) from beta, its bad points are exactly
    the alpha-preimages of the selected points, and they all lie in the
    source cycle.
    """
    cycles = beta.cycles()
    cycle_from = cycles[choice.source]
    cycle_to = cycles[choice.target]
    # canonical form: the improper block ends at the largest selected point,
    # which is what makes the parameterization duplicate-free
    blocks = _cut(cycle_from, cycle_to, choice.points, max(choice.points))
    inner, others = _split(beta.degree, [cycle_to])
    row = _checked(_image_row(blocks, _tau_order(choice.tau, len(choice.points))), inner)
    if choice.start not in cycle_from:
        raise ValueError("start must lie in the source cycle")
    core = _rotate(row, cycle_from.index(choice.start))
    layout = _outer_layout(beta, (choice.source,), (choice.target,))
    outer = _outer_map(layout, choice.outer)
    gather, outer_points = _layout(beta.degree, cycle_from)
    return Permutation._from_word(
        gather(core + _checked([outer[p] - 1 for p in outer_points], others))
    )


# a choice prefix (the choice tuple without its outer index) and the words
# its outer maps give, in outer-index order
_Groups = Iterator[tuple[tuple, Iterator[tuple[int, ...]]]]


def _outer_rows(
    beta: Permutation, sources: Collection[int], targets: Collection[int],
    outer_points: list[int], others: list[int],
) -> list[list[int]]:
    # the zero-based images of outer_points under each commuting outer map,
    # each checked to hit exactly the other points
    return [
        _checked([outer[p] - 1 for p in outer_points], others)
        for outer in outer_assignments(beta, sources, targets)
    ]


def _single_cycle_groups(beta: Permutation, k: int) -> _Groups:
    # the construction's loops, one group per (source, target, points, tau,
    # start); each row and each outer map is checked before any word of its
    # group is built, so every word yielded is a bijection
    if k < 3:
        raise ValueError("the construction needs k >= 3")
    cycles = beta.cycles()
    n = beta.degree
    taus = list(successor_free_kcycles(k)) if k <= n else []
    orders = [_tau_order(tau, k) for tau in taus]
    for source, cycle_from in enumerate(cycles):
        m = len(cycle_from)
        if m < k:
            continue
        gather, outer_points = _layout(n, cycle_from)
        for target, cycle_to in enumerate(cycles):
            if len(cycle_to) != m:
                continue
            inner, others = _split(n, [cycle_to])
            outers = _outer_rows(beta, (source,), (target,), outer_points, others)
            for points in itertools.combinations(sorted(cycle_to), k):
                blocks = _cut(cycle_from, cycle_to, points, max(points))
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
    for prefix, words in _single_cycle_groups(beta, k):
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
    cycles = beta.cycles()
    if any(len(c) != 2 for c in cycles):
        raise ValueError("beta must be a fixed-point-free involution")
    m = len(cycles)
    if not 0 <= j <= m:
        raise ValueError(f"j={j} out of range 0..{m}")
    n = beta.degree
    for sources in itertools.combinations(range(m), j):
        source_couples = [cycles[i] for i in sources]
        gather, outer_points = _layout(n, [p for c in source_couples for p in c])
        for targets in itertools.combinations(range(m), j):
            target_couples = {cycles[i] for i in targets}
            target_points = sorted(p for c in target_couples for p in c)
            inner_points, others = _split(n, target_couples)
            outers = _outer_rows(beta, sources, targets, outer_points, others)
            for matching in perfect_matchings(target_points):
                if any(pair in target_couples for pair in matching):
                    continue
                for assigned in itertools.permutations(matching):
                    for orient in itertools.product((0, 1), repeat=j):
                        # source couple (x, y) goes to (u, v), or to (v, u)
                        # when flipped
                        inner = [
                            p - 1
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


def fpf_pairs(
    beta: Permutation, j: int
) -> Iterator[tuple[tuple, Permutation]]:
    """
    Choice tuples and permutations for the fixed-point-free involution
    construction at distance 2j: pick j source and j target 2-cycles, push
    the source couples onto a matching of the target points that avoids
    every target couple, and extend by a commuting bijection elsewhere.
    """
    for prefix, words in _fpf_groups(beta, j):
        for oi, word in enumerate(words):
            yield (*prefix, oi), Permutation._from_word(word)


def enumerate_fpf(beta: Permutation, j: int) -> set[Permutation]:
    """
    The exact set of permutations at distance 2j from the fixed-point-free
    involution beta.
    """
    return set(map(Permutation._from_word, fpf_words(beta, j)))
