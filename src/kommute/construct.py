"""
Constructive enumeration of permutations at a given commutation distance.

Two cases admit a duplicate-free parameterization:

* all bad points inside one cycle of beta (any distance k >= 3), built by
  choosing a source and a target cycle of equal length, k points of the
  target, a successor-free k-cycle whose cycle, read from k, orders the
  blocks, a starting point for the domain row and a commuting map on the
  complement;
* beta a fixed-point-free involution (distance 2j), built by re-pairing
  the points of j target 2-cycles so that no original couple survives.

Each generated permutation is produced by exactly one choice tuple, so the
number of choices equals the count given by the corresponding closed
formula, and the generated set equals the brute-force filter at small
degree (both facts are exercised by the test suite).

Both constructions share one frame builder, ``_frames``.  A frame is one
(source, target) choice: the gather from images to a one-line word, the
image rows (or fpf inner assignments) and the rows of the commuting outer
maps, each row checked and then packed as bytes.  A word is a bijection
because its row hits exactly the target points and its outer row exactly
the other points; ``_checked`` raises ``ValueError`` (not an assert, so
``python -O`` keeps it) before any word of the frame is built.

One expander, ``_expand``, gives a frame's words in construction order,
or only those that send point 0 to a given lead; two walks read it.
``single_cycle_pairs`` and ``fpf_pairs`` add the choice tuples, one frame
at a time, and build each ``Permutation``.  ``single_cycle_leads`` and
``fpf_leads``, which ``kommute enumerate`` and ``kommute verify`` read,
build every frame first, then give the zero-based one-line words one
leading entry at a time.  Packed entries must fit a byte, so a nonempty
construction needs degree <= 256; above that the packing raises
``ValueError: byte must be in range(0, 256)``.

Indexing convention: the frames hold zero-based points, read from
``word_cycles`` of beta's word; ``single_cycle_pairs`` and ``fpf_pairs``
lift each head's choice prefix to 1-based points once, at their edge.
"""

from __future__ import annotations

import itertools
import operator
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .blocks import _cut
from .perm import Permutation, word_cycles


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


def _rotate(row: bytes, s: int) -> bytes:
    # the images of the source cycle read from its first point, when row
    # holds them read from position s
    m = len(row)
    return row[m - s :] + row[: m - s]


def _checked(images: Sequence[int], points: list[int]) -> Sequence[int]:
    # the bijection check of Permutation.__init__, made once for a whole row
    # or outer map: its zero-based images must be exactly the sorted points
    if sorted(images) != points:
        got = tuple(x + 1 for x in images)
        want = tuple(p + 1 for p in points)
        raise ValueError(f"images {got} are not a bijection onto {want}")
    return images


class _Frame(NamedTuple):
    # one (source, target) choice, checked and packed: each word is
    # gather(head + outer) for a head of ``rows`` and one of ``outers``, both
    # packed as bytes rows of ``width`` and ``outer_width`` entries.  A
    # single-cycle image row stands for one head per start, its rotations
    # (``turns``); an fpf inner assignment is its own head.  Point 0's image
    # is entry ``at`` of head + outer
    gather: Callable[[bytes], tuple[int, ...]]
    rows: bytes
    width: int
    turns: bool
    outers: bytes
    outer_width: int
    at: int


# the rows of one (sources, targets) choice: each row's choice (the choice
# tuple without start and outer index) and the images of the source cycles'
# points, in cycle order, given the targets and their sorted points
_Rows = Callable[[Sequence[int], list[int]], Iterator[tuple[tuple, Sequence[int]]]]
# what the frame builder yields: each (sources, targets) pair, its rows'
# choices and its frame
_Framed = Iterator[tuple[tuple, Iterator[tuple], _Frame]]


def _frames(
    cycles: Sequence[tuple[int, ...]],
    pairs: Iterable[tuple[Sequence[int], Sequence[int]]],
    rows: _Rows,
    turns: bool,
) -> _Framed:
    # each (sources, targets) pair that has a row, with its rows' choices
    # (made again only as they are read) and its frame.  Every row is checked
    # to hit exactly the target points and every outer row the other points
    # before the frame is yielded; with no row, no outer row is built.  The
    # rows depend only on the targets, so the frames of one targets share
    # them, built and checked once
    built: dict[Sequence[int], bytes | None] = {}
    for sources, targets in pairs:
        inner = sorted(p for i in targets for p in cycles[i])
        if targets not in built:
            packed, count = bytearray(), 0
            for _, row in rows(targets, inner):
                packed.extend(_checked(row, inner))
                count += 1
            built[targets] = bytes(packed) if count else None
        row_bytes = built[targets]
        if row_bytes is None:
            continue
        domain = [p for i in sources for p in cycles[i]]
        points, outer_rows = _outer_rows(cycles, sources, targets)
        slot = {p: i for i, p in enumerate(domain + points)}
        inside = set(inner)
        others = [p for p in range(len(slot)) if p not in inside]
        outers = bytearray()
        for row in outer_rows:
            outers.extend(_checked(row, others))
        # n >= 2 here, so the gather returns a tuple
        gather = operator.itemgetter(*(slot[p] for p in range(len(slot))))
        frame = _Frame(gather, row_bytes, len(inner), turns, bytes(outers), len(others), slot[0])
        yield (sources, targets), (choice for choice, _ in rows(targets, inner)), frame


def _unpack(data: bytes, width: int) -> Iterator[bytes]:
    # the rows of ``width`` bytes packed in ``data``; width 0 holds one empty row
    if not width:
        return iter([b""])
    return (data[i : i + width] for i in range(0, len(data), width))


def _having(data: bytes, width: int, at: int, value: int) -> list[bytes]:
    # the rows of ``width`` bytes packed in ``data`` whose entry ``at`` is
    # ``value``, in order, found through the column of entries ``at``
    column = data[at::width]
    found = []
    i = column.find(value)
    while i >= 0:
        found.append(data[i * width : i * width + width])
        i = column.find(value, i + 1)
    return found


def _expand(f: _Frame, lead: int | None = None) -> tuple[Iterable[bytes], list[bytes]]:
    # the heads and outer rows whose words, gather(head + outer) for each
    # head with each outer row in turn, are all the frame's words in
    # construction order or, given a lead, those that send point 0 to it:
    # every head with the outer rows that do, where point 0 lies in an outer
    # row; else the inner assignments, or each image row's rotation, that do
    outers = _unpack(f.outers, f.outer_width)
    if lead is not None and f.at >= f.width:
        outers, lead = _having(f.outers, f.outer_width, f.at - f.width, lead), None
        if not outers:
            return (), []
    elif lead is not None and lead not in f.rows[: f.width]:  # each row holds every target point
        return (), []
    rows = _unpack(f.rows, f.width)
    if not f.turns:
        heads = rows if lead is None else _having(f.rows, f.width, f.at, lead)
    elif lead is None:
        heads = (_rotate(row, s) for row in rows for s in range(f.width))
    else:
        heads = (_rotate(row, (f.at - row.index(lead)) % f.width) for row in rows)
    return heads, list(outers)


def _leads(frames: _Framed, n: int) -> Iterator[Iterator[tuple[int, ...]]]:
    # every frame built and checked first; then, for each lead, the words
    # that send point 0 to it, frame by frame
    held = [f for _, _, f in frames]

    def words(lead: int) -> Iterator[tuple[int, ...]]:
        for f in held:
            pairs = itertools.product(*_expand(f, lead))
            yield from map(f.gather, itertools.starmap(operator.add, pairs))

    return map(words, range(n))


def _single_cycle_frames(beta: Permutation, k: int) -> _Framed:
    # the construction's frames, one per (source, target) cycle pair of a
    # length >= k; a row per (points, tau), in that order
    if k < 3:
        raise ValueError("the construction needs k >= 3")
    cycles = word_cycles(beta.word)
    # with no cycle of k or more points there is no witness, and the walk
    # over the (k-1)! k-cycles would be wasted; with one, each of the f(k)
    # taus kept (about (k-1)!/e) gives a witness, so the output bounds the walk
    taus = list(successor_free_kcycles(k)) if any(len(c) >= k for c in cycles) else []
    # the order in which each tau arranges the blocks: its cycle read from k
    orders = [c[c.index(k) :] + c[: c.index(k)] for c in (t.cycles()[0] for t in taus)]

    def rows(targets, inner):
        cycle_to = cycles[targets[0]]
        for points in itertools.combinations(inner, k):
            # cut the target cycle into k blocks, each ending at a selected
            # point, with the cutter the characterization uses on alpha's
            # images; ending the improper block at the largest selected
            # point makes each witness come once
            blocks = _cut(cycle_to, set(points), cycle_to.index(points[-1]) + 1)
            for tau, order in zip(taus, orders):
                yield (points, tau), _image_row(blocks, order)

    pairs = (
        ((source,), (target,))
        for source, cycle_from in enumerate(cycles)
        if len(cycle_from) >= k
        for target, cycle_to in enumerate(cycles)
        if len(cycle_to) == len(cycle_from)
    )
    return _frames(cycles, pairs, rows, True)


def single_cycle_leads(beta: Permutation, k: int) -> Iterator[Iterator[tuple[int, ...]]]:
    """
    The zero-based one-line words of the single-cycle witnesses at
    distance k by leading entry: for i = 0 .. n-1, an iterator of those
    whose first entry is i, in the order of ``single_cycle_pairs``.  Every
    row and outer map is checked before this returns.
    """
    return _leads(_single_cycle_frames(beta, k), beta.degree)


def single_cycle_pairs(
    beta: Permutation, k: int
) -> Iterator[tuple[SingleCycleChoice, Permutation]]:
    """
    Every choice tuple together with the permutation it builds.  The map
    choice -> permutation is injective, so consuming this stream counts
    the construction.
    """
    cycles = word_cycles(beta.word)
    for ((source,), (target,)), choices, f in _single_cycle_frames(beta, k):
        heads, outers = _expand(f)
        starts = ((points, tau, start) for points, tau in choices for start in cycles[source])
        for (points, tau, start), head in zip(starts, heads):
            prefix = (source, target, tuple(p + 1 for p in points), tau, start + 1)
            for oi, outer in enumerate(outers):
                yield SingleCycleChoice(*prefix, oi), Permutation._from_word(f.gather(head + outer))


def enumerate_single_cycle(beta: Permutation, k: int) -> set[Permutation]:
    """
    The exact set of permutations at distance k from beta whose bad points
    all lie in a single cycle of beta.
    """
    return set(map(Permutation._from_word, itertools.chain(*single_cycle_leads(beta, k))))


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


def _fpf_frames(beta: Permutation, j: int) -> _Framed:
    # the construction's frames, one per (sources, targets) choice of j
    # couples each; a row per (matching, assigned, oriented pairs), in that order
    cycles = word_cycles(beta.word)
    if any(len(c) != 2 for c in cycles):
        raise ValueError("beta must be a fixed-point-free involution")
    m = len(cycles)
    if not 0 <= j <= m:
        raise ValueError(f"j={j} out of range 0..{m}")

    def rows(targets, inner):
        target_couples = {cycles[i] for i in targets}
        for matching in perfect_matchings(inner):
            if any(pair in target_couples for pair in matching):
                continue
            for assigned in itertools.permutations(matching):
                # source couple (x, y) goes to (u, v) or, flipped, to (v, u)
                for oriented in itertools.product(*[(pair, pair[::-1]) for pair in assigned]):
                    yield (matching, assigned, oriented), sum(oriented, ())

    pairs = itertools.product(itertools.combinations(range(m), j), repeat=2)
    return _frames(cycles, pairs, rows, False)


def fpf_leads(beta: Permutation, j: int) -> Iterator[Iterator[tuple[int, ...]]]:
    """
    The zero-based one-line words of the witnesses at distance 2j from the
    fixed-point-free involution beta by leading entry, as
    ``single_cycle_leads`` gives them, in the order of ``fpf_pairs``.
    """
    return _leads(_fpf_frames(beta, j), beta.degree)


def fpf_pairs(beta: Permutation, j: int) -> Iterator[tuple[tuple, Permutation]]:
    """
    Choice tuples and permutations for the fixed-point-free involution
    construction at distance 2j: pick j source and j target 2-cycles, push
    the source couples onto a matching of the target points that avoids
    every target couple, and extend by a commuting bijection elsewhere.
    """
    for (sources, targets), choices, f in _fpf_frames(beta, j):
        heads, outers = _expand(f)
        for (matching, assigned, oriented), head in zip(choices, heads):
            lifted_matching = tuple((u + 1, v + 1) for u, v in matching)
            lifted = tuple((u + 1, v + 1) for u, v in assigned)
            orient = tuple(int(pair != to) for pair, to in zip(assigned, oriented))  # 1: flipped
            prefix = (sources, targets, lifted_matching, lifted, orient)
            for oi, outer in enumerate(outers):
                yield (*prefix, oi), Permutation._from_word(f.gather(head + outer))


def enumerate_fpf(beta: Permutation, j: int) -> set[Permutation]:
    """
    The exact set of permutations at distance 2j from the fixed-point-free
    involution beta.
    """
    return set(map(Permutation._from_word, itertools.chain(*fpf_leads(beta, j))))
