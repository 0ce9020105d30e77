"""
Permutations of the points {1, ..., n}.

A permutation is stored as a tuple in one-line notation; externally every
point is 1-based, so ``p(i)`` is the image of point ``i``.  Values are
immutable and hashable, and every operation is a pure function, so they can
be shared freely between workers.  ``word_cycles`` walks the cycles of a
zero-based word; ``cycles()``, ``cycle_type()`` and ``word_is_even`` use it.

The degree ``n`` is carried explicitly by each permutation and two
permutations interact only when their degrees agree; mixing degrees raises
``ValueError``.

Text formats
------------
Cycle notation: ``perm := cycle*``, ``cycle := '(' point (sep point)* ')'``
with points separated by spaces and/or commas.  Points not listed are fixed;
``()`` or the empty string is the identity (the degree always comes from an
explicit argument).  One-line notation is the comma- or space-separated list
of the n images.
"""

from __future__ import annotations

import itertools
import math
import re
from collections import Counter
from typing import Iterable, Iterator, Sequence


class ParseError(ValueError):
    """Malformed permutation text; ``position`` is the offending index."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class Permutation:
    """
    A bijection of {1..n}, built from its one-line notation.

    >>> p = Permutation([2, 1, 4, 5, 3])
    >>> p(1), p(3)
    (2, 4)
    >>> str(p)
    '(1 2)(3 4 5)'
    """

    __slots__ = ("word",)

    #: zero-based one-line word; word[i] is the image of point i+1, minus one.
    word: tuple[int, ...]

    def __init__(self, images: Sequence[int]):
        w = tuple(x - 1 for x in images)
        n = len(w)
        if n < 1:
            raise ValueError("degree must be at least 1")
        if sorted(w) != list(range(n)):
            raise ValueError(f"images {tuple(images)} are not a bijection of 1..{n}")
        self.word = w

    @classmethod
    def _from_word(cls, word: tuple[int, ...]) -> "Permutation":
        # trusted zero-based word; skips validation (internal fast path)
        p = object.__new__(cls)
        p.word = word
        return p

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        if n < 1:
            raise ValueError("degree must be at least 1")
        return cls._from_word(tuple(range(n)))

    @classmethod
    def from_cycles(cls, cycles: Iterable[Sequence[int]], n: int) -> "Permutation":
        """
        Build a permutation of degree n from disjoint cycles (1-based points).

        >>> Permutation.from_cycles([(1, 2), (3, 4, 5)], 5).images
        (2, 1, 4, 5, 3)
        """
        if n < 1:
            raise ValueError("degree must be at least 1")
        word = list(range(n))
        seen: set[int] = set()
        for cycle in cycles:
            for p in cycle:
                if not 1 <= p <= n:
                    raise ValueError(f"point {p} out of range 1..{n}")
                if p in seen:
                    raise ValueError(f"point {p} appears more than once in the cycles")
                seen.add(p)
            for a, b in zip(cycle, cycle[1:]):
                word[a - 1] = b - 1
            if cycle:
                word[cycle[-1] - 1] = cycle[0] - 1
        return cls._from_word(tuple(word))

    # -- basic structure -------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.word)

    @property
    def images(self) -> tuple[int, ...]:
        """One-line notation as a 1-based tuple."""
        return tuple(x + 1 for x in self.word)

    def __call__(self, point: int) -> int:
        return self.word[point - 1] + 1

    def __len__(self) -> int:
        return len(self.word)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Permutation) and self.word == other.word

    def __hash__(self) -> int:
        return hash(self.word)

    def __repr__(self) -> str:
        return f"Permutation({list(self.images)})"

    def __str__(self) -> str:
        return self.cycle_string()

    def _check_degree(self, other: "Permutation") -> None:
        if len(self.word) != len(other.word):
            raise ValueError(
                f"degree mismatch: {len(self.word)} vs {len(other.word)}"
            )

    # -- group operations -------------------------------------------------

    def __mul__(self, other: "Permutation") -> "Permutation":
        """Composition self*other: apply ``other`` first, then ``self``."""
        if not isinstance(other, Permutation):
            return NotImplemented
        self._check_degree(other)
        w = self.word
        return Permutation._from_word(tuple(w[x] for x in other.word))

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.word)
        for i, x in enumerate(self.word):
            inv[x] = i
        return Permutation._from_word(tuple(inv))

    def conjugate_by(self, alpha: "Permutation") -> "Permutation":
        """Return alpha * self * alpha^-1 (relabels points by alpha)."""
        self._check_degree(alpha)
        a, w = alpha.word, self.word
        out = [0] * len(w)
        for i, x in enumerate(w):
            out[a[i]] = a[x]
        return Permutation._from_word(tuple(out))

    def is_identity(self) -> bool:
        return all(x == i for i, x in enumerate(self.word))

    # -- metric -----------------------------------------------------------

    def hamming(self, other: "Permutation") -> int:
        """Number of points where the two permutations disagree."""
        self._check_degree(other)
        return sum(x != y for x, y in zip(self.word, other.word))

    def commute_distance(self, other: "Permutation") -> int:
        """
        Hamming distance between self*other and other*self; zero exactly
        when the two permutations commute.
        """
        self._check_degree(other)
        a, b = self.word, other.word
        return sum(a[b[i]] != b[a[i]] for i in range(len(a)))

    # -- cycle structure ---------------------------------------------------

    def cycles(self) -> tuple[tuple[int, ...], ...]:
        """
        Disjoint cycle decomposition, fixed points included as 1-cycles.

        Canonical form: each cycle starts at its smallest point and cycles
        are sorted by first point.

        >>> Permutation([2, 1, 4, 5, 3]).cycles()
        ((1, 2), (3, 4, 5))
        """
        return tuple(tuple(p + 1 for p in cycle) for cycle in word_cycles(self.word))

    def cycle_type(self) -> "CycleType":
        return CycleType.from_parts(map(len, word_cycles(self.word)))

    def parity(self) -> str:
        """'even' or 'odd'; even iff n minus the number of cycles is even."""
        return "even" if self.is_even() else "odd"

    def is_even(self) -> bool:
        return word_is_even(self.word)

    def support(self) -> frozenset[int]:
        """Points moved by the permutation."""
        return frozenset(i + 1 for i, x in enumerate(self.word) if x != i)

    def fixed_points(self) -> frozenset[int]:
        return frozenset(i + 1 for i, x in enumerate(self.word) if x == i)

    # -- formatting --------------------------------------------------------

    def cycle_string(self) -> str:
        """Cycle notation, fixed points omitted; identity prints as '()'."""
        return word_cycle_string(self.word, cycle_pieces(len(self.word)))

    def one_line_string(self) -> str:
        return " ".join(map(str, self.images))


class CycleType:
    """
    The census (c_1, ..., c_n) of cycle lengths: counts[i-1] cycles of
    length i, fixed points included, with sum i*c_i = n.  A read-only
    value, equal only to a CycleType with the same counts.
    """

    __slots__ = ("_counts",)

    def __init__(self, counts: tuple[int, ...]):
        if len(counts) < 1:
            raise ValueError("cycle type must have positive degree")
        if any(c < 0 for c in counts):
            raise ValueError("cycle counts must be nonnegative")
        total = sum(i * c for i, c in enumerate(counts, start=1))
        if total != len(counts):
            raise ValueError(
                f"inconsistent cycle type {counts}: lengths sum to "
                f"{total}, expected {len(counts)}"
            )
        self._counts = counts

    @property
    def counts(self) -> tuple[int, ...]:
        return self._counts

    def __eq__(self, other: object) -> bool:
        return isinstance(other, CycleType) and self.counts == other.counts

    def __hash__(self) -> int:
        return hash((self.counts,))

    def __repr__(self) -> str:
        return f"CycleType(counts={self.counts!r})"

    @classmethod
    def from_parts(cls, parts: Iterable[int]) -> "CycleType":
        """
        Build from a multiset of cycle lengths.

        >>> CycleType.from_parts([3, 1, 1]).counts
        (2, 0, 1, 0, 0)
        """
        parts = list(parts)
        if any(p < 1 for p in parts):
            raise ValueError("cycle lengths must be positive")
        n = sum(parts)
        counts = [0] * n
        for p in parts:
            counts[p - 1] += 1
        return cls(tuple(counts))

    @property
    def degree(self) -> int:
        return len(self.counts)

    def lengths(self) -> dict[int, int]:
        """{length: count} over the cycle lengths present, in increasing order."""
        return {i: c for i, c in enumerate(self.counts, start=1) if c}

    def count(self, length: int) -> int:
        """Number of cycles of the given length (0 beyond the degree)."""
        if not 1 <= length <= len(self.counts):
            return 0
        return self.counts[length - 1]

    def parts(self) -> tuple[int, ...]:
        """Cycle lengths as a partition of n, in decreasing order."""
        return tuple(l for l, c in reversed(self.lengths().items()) for _ in range(c))

    def centralizer_order(self) -> int:
        """
        Size of the centralizer in S_n: the product of i**c_i * c_i! over
        the cycle lengths i present.  Equals the number of permutations
        commuting with any permutation of this type.

        >>> CycleType.from_parts([2] + [1] * 3).centralizer_order()
        12
        """
        return math.prod(i**c * math.factorial(c) for i, c in self.lengths().items())

    def has_distinct_odd_parts(self) -> bool:
        """
        True iff all cycle lengths are odd and no length repeats.  Exactly
        the types whose permutations commute with no odd permutation.
        """
        return all(i % 2 and c == 1 for i, c in self.lengths().items())

    def representative(self) -> Permutation:
        """
        Canonical permutation of this type: cycles laid out on consecutive
        points in decreasing length.

        >>> CycleType.from_parts([3, 2]).representative().cycles()
        ((1, 2, 3), (4, 5))
        """
        cycles = []
        next_point = 1
        for length in self.parts():
            cycles.append(tuple(range(next_point, next_point + length)))
            next_point += length
        return Permutation.from_cycles(cycles, self.degree)

    @staticmethod
    def all_types(n: int) -> Iterator["CycleType"]:
        """All cycle types of S_n, one per integer partition of n."""
        for parts in _partitions(n, n):
            yield CycleType.from_parts(parts)


def _partitions(n: int, largest: int) -> Iterator[tuple[int, ...]]:
    # partitions of n with parts <= largest, decreasing order
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


# -- parsing ----------------------------------------------------------------


def parse_permutation(text: str, n: int) -> Permutation:
    """
    Parse cycle notation or one-line notation into a permutation of degree n.

    Text starting with '(' (or empty) is read as cycles; anything else as
    the comma/space-separated list of all n images.

    >>> parse_permutation("(1 2)(3 4 5)", 5).images
    (2, 1, 4, 5, 3)
    >>> parse_permutation("()", 3) == Permutation.identity(3)
    True
    """
    if n < 1:
        raise ValueError("degree must be at least 1")
    stripped = text.strip()
    if stripped == "" or stripped.startswith("("):
        return _parse_cycles(text, n)
    return _parse_one_line(text, n)


# the tokens of permutation text: each run of decimal digits whole and each
# other non-space character alone (in str patterns \d and \S are exactly
# str.isdecimal and not str.isspace)
_tokens = re.compile(r"\d+|\S").finditer


def _parse_cycles(text: str, n: int) -> Permutation:
    cycles: list[list[int]] = []
    seen: set[int] = set()
    tokens = _tokens(text)
    for opener in tokens:
        if opener[0] != "(":
            raise ParseError(f"expected '(' but found {text[opener.start()]!r}", opener.start())
        cycle: list[int] = []
        for token in tokens:
            tok, start = token[0], token.start()
            if tok == ")":
                break
            if tok == ",":
                continue
            if not tok.isdecimal():
                raise ParseError(f"expected a point but found {tok!r}", start)
            point = int(tok)
            if not 1 <= point <= n:
                raise ParseError(f"point {point} out of range 1..{n}", start)
            if point in seen:
                raise ParseError(f"point {point} repeated", start)
            seen.add(point)
            cycle.append(point)
        else:
            raise ParseError("unclosed cycle", len(text))
        if cycle:
            cycles.append(cycle)
    return Permutation.from_cycles(cycles, n)


def _parse_one_line(text: str, n: int) -> Permutation:
    tokens = [token for token in _tokens(text) if token[0] != ","]
    for token in tokens:
        if not token[0].isdecimal():
            raise ParseError(f"expected an image but found {token[0]!r}", token.start())
    if len(tokens) != n:
        raise ParseError(f"one-line notation needs {n} images, got {len(tokens)}", 0)
    images = [int(token[0]) for token in tokens]
    for img, token in zip(images, tokens):
        if not 1 <= img <= n:
            raise ParseError(f"image {img} out of range 1..{n}", token.start())
    counts = Counter(images)
    if len(counts) != n:
        dup = next(x for x in images if counts[x] > 1)
        raise ParseError(f"image {dup} repeated", tokens[images.index(dup)].start())
    return Permutation(images)


def all_permutations(n: int) -> Iterator[Permutation]:
    """All of S_n in lexicographic one-line order (no degree guard)."""
    for word in itertools.permutations(range(n)):
        yield Permutation._from_word(word)


def word_cycles(word: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """
    The cycles of the zero-based one-line ``word`` as zero-based points,
    fixed points included, in the canonical order of ``Permutation.cycles()``.

    >>> word_cycles((1, 0, 3, 4, 2))
    ((0, 1), (2, 3, 4))
    """
    seen = bytearray(len(word))
    out = []
    for i in range(len(word)):
        if not seen[i]:
            cycle = []
            j = i
            while not seen[j]:
                seen[j] = 1
                cycle.append(j)
                j = word[j]
            out.append(tuple(cycle))
    return tuple(out)


def word_is_even(word: Sequence[int]) -> bool:
    """Whether the zero-based one-line ``word`` is even: n minus its cycle count is."""
    return (len(word) - len(word_cycles(word))) % 2 == 0


def lex_parities(n: int) -> bytes:
    """
    Byte r is 1 when the r-th zero-based word of S_n in lexicographic order
    (the order of ``itertools.permutations(range(n))``) is odd, else 0.
    The words led by entry j are a block of (n-1)! words whose tails run
    over S_{n-1} in order, and the leading j adds j inversions to each, so
    the table for n is n copies of the table for n - 1, the odd ones
    flipped: 0 1 for n = 2, then 0 1 | 1 0 | 0 1 for n = 3.
    """
    table, flip = b"\x00", bytes.maketrans(b"\x00\x01", b"\x01\x00")
    for m in range(2, n + 1):
        table = b"".join([table if j % 2 == 0 else table.translate(flip) for j in range(m)])
    return table


def point_labels(n: int) -> tuple[str, ...]:
    """The texts of the points 1..n, indexed by zero-based point."""
    return tuple(map(str, range(1, n + 1)))


def cycle_pieces(n: int) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """
    The pieces ``word_cycle_string`` joins for the points 1..n, indexed by
    zero-based point: each label after "(" and each label after " ".
    """
    labels = point_labels(n)
    return tuple("(" + s for s in labels), tuple(" " + s for s in labels)


def word_cycle_string(
    word: Sequence[int], pieces: tuple[Sequence[str], Sequence[str]]
) -> str:
    """
    Cycle notation of the zero-based one-line ``word``, fixed points
    omitted and the identity printed as '()'; ``pieces`` is
    ``cycle_pieces(len(word))``.  The word may be a tuple, or bytes when
    its entries are below 256.
    """
    # the cycles of Permutation.cycles() without its 1-cycles
    opens, spaces = pieces
    seen = bytearray(len(word))
    parts = []
    for i, j in enumerate(word):
        if j == i or seen[i]:
            continue
        parts.append(opens[i])
        while j != i:
            seen[j] = 1
            parts.append(spaces[j])
            j = word[j]
        parts.append(")")
    return "".join(parts) if parts else "()"
