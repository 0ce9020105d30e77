"""
Seeded request mixes for the three workloads, and the answer check.

A workload is an endless stream of decks.  A deck is a fixed multiset of
request shapes, so every seed gives the same cost mix; the seed picks the
concrete arguments (the conjugate of beta, the order its cycles are
written in, k, sizes, which requests use --json) and shuffles the deck.
The CLI only ever sees the argv lists built here.

``check`` judges one response against answers computed in
``reference.py``, never by kommute itself.  It returns None when the
response is right and a one-line reason when it is not.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import random
from dataclasses import dataclass, field
from typing import Iterator

import reference as ref

WORKLOADS = ("enumerate_stream", "verify_matrix", "closed_forms")

OEIS_CAPS = {
    "A000757": 500,
    "A053871": 500,
    "A233440": 2000,
    "A208529": 200,
    "A208528": 200,
    "A098916": 200,
}
VERIFY_CHECKS = (
    "closed forms k<=4 vs brute force",
    "distance-4 profile components vs brute force",
    "n-cycle counts T(k,n) vs brute force",
    "transposition counts vs brute force",
    "fixed-point-free involution counts vs brute force",
    "block characterization and profile invariants",
    "image cycle census",
    "counts divisible by centralizer order",
    "conjugation invariance of counts",
    "even/odd split",
    "single-cycle enumerator vs brute filter",
    "fpf enumerator vs brute filter",
    "generating function coefficients",
)
# --corrupt-f changes f(5), which only these two checks read
CORRUPT_F_FAILS = {
    "n-cycle counts T(k,n) vs brute force",
    "generating function coefficients",
}
# single-cycle enumerations: one or two long cycles, 500 to 33k witnesses;
# every deck holds each shape once, so all seeds share one cost mix
SINGLE_POOL = (
    ((9,), 4), ((9,), 5), ((9,), 6), ((10,), 5), ((8,), 6), ((8, 3), 5),
    ((8, 3), 6), ((8, 2), 6), ((6, 6), 5), ((6, 6), 6), ((7, 7), 4),
    ((7, 7), 5), ((7, 2, 1), 6), ((5, 5), 4),
)
# fixed-point-free enumerations (m, j); (5, 2) is the largest, 76,800 lines
FPF_DECK = ((4, 2), (4, 3), (4, 4), (5, 2))
SAMPLE_LINES = 40


@dataclass
class Request:
    """One CLI call: its argv and what the answer check needs to know."""

    argv: list[str]
    kind: str
    parts: tuple[int, ...] = ()
    beta: tuple[int, ...] = ()
    k: int = 0
    expect: object = None
    info: dict = field(default_factory=dict)

    @property
    def n(self) -> int:
        return len(self.beta)


# -- seeded inputs -------------------------------------------------------------


def random_conjugate(parts, rng: random.Random) -> tuple[str, tuple[int, ...]]:
    """
    A uniformly relabelled permutation of the given cycle type, written
    with its cycles in random order and each rotated at random.  Returns
    the cycle string and the one-line images.
    """
    n = sum(parts)
    labels = list(range(1, n + 1))
    rng.shuffle(labels)
    images = [0] * (n + 1)
    cycles = []
    start = 0
    for length in parts:
        cycle = labels[start : start + length]
        start += length
        for i, p in enumerate(cycle):
            images[p] = cycle[(i + 1) % length]
        if length > 1:
            r = rng.randrange(length)
            cycles.append(cycle[r:] + cycle[:r])
    rng.shuffle(cycles)
    text = "".join("(" + " ".join(map(str, c)) + ")" for c in cycles) or "()"
    return text, tuple(images[1:])


def random_general_type(rng: random.Random) -> tuple[int, ...]:
    """A cycle type with 4 <= n <= 30 that no special closed form covers."""
    while True:
        n = rng.randint(4, 30)
        parts, left = [], n
        while left:
            part = rng.randint(1, left)
            parts.append(part)
            left -= part
        parts = tuple(sorted(parts, reverse=True))
        if ref.special_kind(parts) is None:
            return parts


def _count_request(parts, k, rng, extra=()) -> Request:
    text, beta = random_conjugate(parts, rng)
    argv = ["count", "--beta", text, "--n", str(sum(parts)), "--k", str(k), *extra]
    return Request(argv, "count", tuple(parts), beta, k)


def _enumerate_deck(rng):
    shapes = [("fpf", (2,) * m, 2 * j, ref.fpf_count(2 * j, m)) for m, j in FPF_DECK]
    shapes += [("single", parts, k, ref.single_cycle_count(parts, k))
               for parts, k in SINGLE_POOL]
    shapes.sort(key=lambda shape: shape[3])
    deck = []
    for i, (mode, parts, k, expect) in enumerate(shapes):
        text, beta = random_conjugate(parts, rng)
        # every fourth shape by size, the same ones for every seed
        as_json = i % 4 == 1
        argv = ["enumerate", "--mode", mode, "--beta", text, "--n", str(sum(parts)),
                "--k", str(k)] + ["--json"] * as_json
        deck.append(Request(argv, "enumerate", parts, beta, k, expect,
                            {"mode": mode, "json": as_json}))
    return _balanced(deck, 3, rng)


def _balanced(deck, strata: int, rng):
    """
    Shuffle a deck sorted by cost so that each run of ``strata`` requests
    holds one request from each cost stratum.  A run of the benchmark that
    stops part-way through a deck then still sees the deck's cost mix.
    """
    size = len(deck) // strata
    groups = [deck[i * size : (i + 1) * size] for i in range(strata)]
    for group in groups:
        rng.shuffle(group)
    out = []
    for r in range(size):
        chunk = [group[r] for group in groups]
        rng.shuffle(chunk)
        out += chunk
    return out


def _verify_deck(rng):
    shapes = [(8, False), (7, False), (7, False), (7, False), (7, True), (7, True)]
    deck = []
    for n_max, corrupt in shapes:
        argv = ["verify", "--n-max", str(n_max), "--max-brute-n", str(n_max)]
        if corrupt:
            argv.append("--corrupt-f")
        deck.append(Request(argv, "verify", info={"n_max": n_max, "corrupt": corrupt}))
    rng.shuffle(deck)
    return deck


def _closed_forms_deck(rng):
    deck = []
    for _ in range(8):
        parts = random_general_type(rng)
        deck.append(_count_request(parts, rng.choice((0, 3, 4)), rng))
    for kind, copies in (("ncycle", 3), ("transposition", 2), ("fpf", 3)):
        for _ in range(copies):
            if kind == "ncycle":
                n = rng.randint(4, 30)
                parts = (n,)
            elif kind == "transposition":
                n = rng.randint(4, 30)
                parts = (2,) + (1,) * (n - 2)
            else:
                n = 2 * rng.randint(2, 15)
                parts = (2,) * (n // 2)
            deck.append(_count_request(parts, rng.randint(0, n), rng))
    for kind in ("tkn", "transposition", "fpf"):
        n_max = rng.randint(2, 30)
        argv = ["table", "--kind", kind, "--n-max", str(n_max)]
        deck.append(Request(argv, "table", expect=table_text(kind, n_max)))
    # the fpf series costs 0.2 s at n-max 10 and 1 s at 20; capping it at 14
    # keeps the slowest tenth of a run to the A000757 requests
    for kind, top in (("tkn", 20), ("fpf", 14)):
        n_max = rng.randint(10, top)
        argv = ["gf", "--kind", kind, "--n-max", str(n_max)]
        deck.append(Request(argv, "gf", expect=gf_text(kind, n_max)))
    for seq, cap in OEIS_CAPS.items():
        argv = ["oeis", "--sequence", seq, "--count", str(cap)]
        deck.append(Request(argv, "oeis", expect=oeis_text(seq, cap)))
    rng.shuffle(deck)
    return deck


_DECKS = {
    "enumerate_stream": _enumerate_deck,
    "verify_matrix": _verify_deck,
    "closed_forms": _closed_forms_deck,
}

# a cheap call through the same subcommand, run once in set-up
WARMUP = {
    "enumerate_stream": ["enumerate", "--beta", "(1 2 3 4 5)", "--n", "5", "--k", "3"],
    "verify_matrix": ["verify", "--n-max", "4", "--max-brute-n", "6"],
    "closed_forms": ["count", "--beta", "(1 2 3)(4 5)", "--n", "5", "--k", "3"],
}


def decks(workload: str, seed: int) -> Iterator[list[Request]]:
    """The endless stream of a workload's shuffled seeded decks."""
    rng = random.Random(f"{workload}:{seed}")
    while True:
        yield _DECKS[workload](rng)


def deck_size(workload: str) -> int:
    return len(next(decks(workload, 0)))


def first_requests(workload: str, seed: int, count: int) -> list[Request]:
    return list(itertools.islice(itertools.chain.from_iterable(decks(workload, seed)), count))


# -- expected text --------------------------------------------------------------


def _csv(rows) -> str:
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


def table_text(kind: str, n_max: int) -> str:
    if kind == "tkn":
        header = ["n"] + [f"k={k}" for k in range(n_max + 1)]
        rows = [[n] + [ref.ncycle_count(k, n) for k in range(n + 1)] + [""] * (n_max - n)
                for n in range(1, n_max + 1)]
    elif kind == "transposition":
        header = ["n", "k=0", "k=3", "k=4"]
        rows = [[n] + [ref.transposition_count(k, n) for k in (0, 3, 4)]
                for n in range(2, n_max + 1)]
    else:
        header = ["m"] + [f"j={j}" for j in range(n_max + 1)]
        rows = [[m] + [ref.fpf_count(2 * j, m) for j in range(m + 1)] + [""] * (n_max - m)
                for m in range(2, n_max + 1)]
    return _csv([header] + rows)


def gf_text(kind: str, n_max: int) -> str:
    if kind == "tkn":
        header = ["n"] + [f"k={k}" for k in range(n_max + 1)]
        rows = [[n] + [ref.ncycle_count(k, n) for k in range(n_max + 1)]
                for n in range(1, n_max + 1)]
    else:
        header = ["m"] + [f"j={j}" for j in range(n_max + 1)]
        rows = [[m] + [ref.fpf_count(2 * j, m) for j in range(n_max + 1)]
                for m in range(n_max + 1)]
    return _csv([header] + rows)


def oeis_terms(sequence: str, count: int) -> list[int]:
    if sequence == "A000757":
        return ref.successor_free_sequence(count)
    if sequence == "A053871":
        return ref.deranged_matchings_sequence(count)
    if sequence == "A233440":
        triangle = (ref.ncycle_count(k, n) for n in itertools.count(1) for k in range(n + 1))
        return list(itertools.islice(triangle, count))
    k = {"A208529": 0, "A208528": 3, "A098916": 4}[sequence]
    return [ref.transposition_count(k, n) for n in range(2, count + 2)]


def oeis_text(sequence: str, count: int) -> str:
    return "".join(f"{t}\n" for t in oeis_terms(sequence, count))


# -- the answer check -----------------------------------------------------------


def parse_cycles(text: str, n: int) -> tuple[int, ...]:
    """One-line images of a permutation of degree n written in cycle notation."""
    images = list(range(1, n + 1))
    for chunk in text.replace(")", "").split("(")[1:]:
        cycle = [int(p) for p in chunk.split()]
        for i, p in enumerate(cycle):
            images[p - 1] = cycle[(i + 1) % len(cycle)]
    if sorted(images) != list(range(1, n + 1)):
        raise ValueError(f"not a permutation of degree {n}: {text!r}")
    return tuple(images)


def bad_points(alpha, beta) -> list[int]:
    """Points p with alpha(beta(p)) != beta(alpha(p)), ascending."""
    return [p for p in range(1, len(beta) + 1)
            if alpha[beta[p - 1] - 1] != beta[alpha[p - 1] - 1]]


def _cycle_of(beta) -> list[int]:
    ids = [0] * len(beta)
    for p in range(1, len(beta) + 1):
        q, low = beta[p - 1], p
        while q != p:
            low, q = min(low, q), beta[q - 1]
        ids[p - 1] = low
    return ids


def _check_count(req: Request, out: str, table) -> str | None:
    record = json.loads(out)
    if (record.get("n"), record.get("k")) != (req.n, req.k):
        return f"echoed n/k {record.get('n')}/{record.get('k')}"
    if parse_cycles(record["beta"], req.n) != req.beta:
        return f"echoed beta {record['beta']!r} is not the input"
    got = int(record["count"])
    key = ref.type_key(req.parts)
    if key in table:
        want = table[key][req.k] if req.k <= req.n else 0
    elif ref.special_kind(req.parts):
        want = ref.special_count(req.parts, req.k)
    elif req.k == 0:
        want = ref.centralizer_order(req.parts)
    else:
        if got % ref.centralizer_order(req.parts) or not 0 <= got <= math.factorial(req.n):
            return f"count {got} fails divisibility or range"
        return None
    return None if got == want else f"count {got} != {want}"


def _check_enumerate(req: Request, out: str, rng: random.Random) -> str | None:
    lines = out.splitlines()
    if len(lines) != req.expect:
        return f"{len(lines)} witnesses, want {req.expect}"
    if len(set(lines)) != len(lines):
        return "duplicate witnesses"
    cycle_of = _cycle_of(req.beta)
    for line in rng.sample(lines, min(SAMPLE_LINES, len(lines))):
        if req.info["json"]:
            record = json.loads(line)
            alpha = parse_cycles(record["alpha"], req.n)
        else:
            alpha = parse_cycles(line, req.n)
        bad = bad_points(alpha, req.beta)
        if len(bad) != req.k:
            return f"witness {line!r} at distance {len(bad)}"
        if req.info["json"] and record["bad_points"] != bad:
            return f"witness {line!r} reports wrong bad points"
        if req.info["mode"] == "single" and len({cycle_of[p - 1] for p in bad}) != 1:
            return f"witness {line!r} has bad points in several cycles"
    return None


def _check_verify(req: Request, rc: int, out: str) -> str | None:
    corrupt = req.info["corrupt"]
    if rc != (3 if corrupt else 0):
        return f"exit code {rc}"
    results = {}
    for line in out.splitlines():
        if line.startswith(("PASS ", "FAIL ")):
            name = line[5:].split(" (")[0] if line.startswith("FAIL") else line[5:]
            results[name] = line[:4]
    if list(results) != list(VERIFY_CHECKS):
        return f"check list differs: {list(results)}"
    failed = {name for name, state in results.items() if state == "FAIL"}
    if failed != (CORRUPT_F_FAILS if corrupt else set()):
        return f"failed checks {sorted(failed)}"
    summary = f"{len(VERIFY_CHECKS) - len(failed)}/{len(VERIFY_CHECKS)} checks passed (n_max={req.info['n_max']})"
    if out.splitlines()[-1] != summary:
        return f"summary line {out.splitlines()[-1]!r}"
    return None


def check(req: Request, rc: int, stdout: bytes, table, rng: random.Random) -> str | None:
    """None when the response is right, else why it is wrong."""
    try:
        out = stdout.decode("utf-8")
        if req.kind == "verify":
            return _check_verify(req, rc, out)
        if rc != 0:
            return f"exit code {rc}"
        if req.kind == "count":
            return _check_count(req, out, table)
        if req.kind == "enumerate":
            return _check_enumerate(req, out, rng)
        return None if out == req.expect else f"{req.kind} output differs"
    except (ValueError, KeyError, IndexError, TypeError) as e:
        return f"unreadable response: {e!r}"
