"""
Reference answers for the benchmark, computed without kommute.

* ``histogram`` counts every permutation of S_n by its commutation distance
  from a reference permutation, by brute force.
* ``reference_histograms.json`` holds those histograms for one
  representative of every cycle type with n <= 9.  Regenerate it with

      python3 perfbench/reference.py

  (about 20 seconds in pure Python).
* The sequence and closed-form helpers use recurrences where the library
  uses inclusion-exclusion, so the answer check does not share the
  library's route.  ``perfbench/test_perfbench.py`` holds them against the
  brute-force table.
"""

from __future__ import annotations

import itertools
import json
import math
from pathlib import Path

TABLE_PATH = Path(__file__).with_name("reference_histograms.json")
TABLE_MAX_N = 9


def partitions(n: int, largest: int | None = None):
    """Partitions of n as decreasing tuples, largest part first."""
    largest = n if largest is None else largest
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest), 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


def type_key(parts) -> str:
    """Table key of a cycle type: its parts in decreasing order, dot-joined."""
    return ".".join(str(p) for p in sorted(parts, reverse=True))


def word_of_parts(parts) -> tuple[int, ...]:
    """Zero-based one-line word of the permutation with consecutive cycles."""
    word = []
    start = 0
    for length in sorted(parts, reverse=True):
        word.extend(start + (i + 1) % length for i in range(length))
        start += length
    return tuple(word)


def histogram(parts) -> list[int]:
    """[#alpha in S_n at distance k from beta for k = 0..n], beta of type parts."""
    b = word_of_parts(parts)
    n = len(b)
    rng = range(n)
    counts = [0] * (n + 1)
    for a in itertools.permutations(rng):
        counts[sum(a[b[i]] != b[a[i]] for i in rng)] += 1
    return counts


def build_table(max_n: int) -> dict[str, list[int]]:
    return {
        type_key(parts): histogram(parts)
        for n in range(1, max_n + 1)
        for parts in partitions(n)
    }


def load_table() -> dict[str, list[int]]:
    with open(TABLE_PATH, encoding="utf-8") as f:
        return json.load(f)


# -- closed forms and sequences, by recurrence -------------------------------


def centralizer_order(parts) -> int:
    out = 1
    for length in set(parts):
        c = list(parts).count(length)
        out *= length**c * math.factorial(c)
    return out


def successor_free_sequence(count: int) -> list[int]:
    """A000757 a(0..count-1): k-cycles of {1..k} with no i -> i+1 (mod k)."""
    a = [1, 0, 0]
    for k in range(3, count):
        a.append((k - 3) * a[k - 1] + (k - 2) * (2 * a[k - 2] + a[k - 3]))
    return a[:count]


def successor_free_cycles(k: int) -> int:
    return successor_free_sequence(k + 1)[k]


def deranged_matchings_sequence(count: int) -> list[int]:
    """A053871 a(0..count-1): matchings of 2j points avoiding j disjoint pairs."""
    a = [1, 0]
    for j in range(2, count):
        a.append(2 * (j - 1) * (a[j - 1] + a[j - 2]))
    return a[:count]


def deranged_matchings(j: int) -> int:
    return deranged_matchings_sequence(j + 1)[j]


def ncycle_count(k: int, n: int) -> int:
    """T(k, n): permutations at distance k from an n-cycle."""
    return n * math.comb(n, k) * successor_free_cycles(k) if 0 <= k <= n else 0


def transposition_count(k: int, n: int) -> int:
    f = math.factorial(n - 2)
    return {0: 2 * f, 3: 4 * (n - 2) * f, 4: (n - 2) * (n - 3) * f}.get(k, 0)


def fpf_count(k: int, m: int) -> int:
    """Permutations at distance k from a fixed-point-free involution of S_2m."""
    if k % 2 or not 0 <= k // 2 <= m:
        return 0
    j = k // 2
    return 2**m * math.factorial(m) * math.comb(m, j) * deranged_matchings(j)


def single_cycle_count(parts, k: int) -> int:
    """Witnesses at distance k >= 3 whose bad points lie in one cycle of beta."""
    f = successor_free_cycles(k)
    return centralizer_order(parts) * sum(math.comb(p, k) * f for p in parts)


def special_kind(parts) -> str | None:
    """'ncycle', 'transposition' or 'fpf' when one of those closed forms applies."""
    n = sum(parts)
    moved = [p for p in parts if p > 1]
    if moved == [2]:
        return "transposition"
    if n >= 4 and moved == [2] * (n // 2) and n % 2 == 0:
        return "fpf"
    if list(parts) == [n]:
        return "ncycle"
    return None


def special_count(parts, k: int) -> int | None:
    """The count by recurrence for the special types, else None."""
    n = sum(parts)
    kind = special_kind(tuple(parts))
    if kind == "ncycle":
        return ncycle_count(k, n)
    if kind == "transposition":
        return transposition_count(k, n)
    if kind == "fpf":
        return fpf_count(k, n // 2)
    return None


def main() -> None:
    table = build_table(TABLE_MAX_N)
    rows = [f"{json.dumps(key)}: {json.dumps(table[key])}" for key in sorted(table)]
    with open(TABLE_PATH, "w", encoding="utf-8") as f:
        f.write("{\n" + ",\n".join(rows) + "\n}\n")
    print(f"wrote {len(table)} histograms to {TABLE_PATH}")


if __name__ == "__main__":
    main()
