"""
Spans at kommute's layer boundaries, recorded from outside the program.

Run as a script, this file is one traced CLI request:

    PYTHONPATH=src python3 perfbench/tracer.py OUT REQUEST_ID -- ARGV...

It imports ``kommute.cli``, replaces the public functions listed in
``BOUNDARIES`` (module attributes, and every other kommute module global
or dict entry bound to the same object) with timing wrappers, calls
``kommute.cli.main(ARGV)`` and exits with its return code.  Spans stay in
memory and are written to OUT as one JSON object when the request ends;
OUT.end then gets the time the write finished.

A span is ``[name, start, end, busy, parent, items, first, tag, tallied]``
with ``perf_counter`` times, which share one monotonic clock across
processes on Linux.  A plain call is busy from start to end.  A generator
is timed per ``next``: ``busy`` is the sum of those intervals, ``items``
counts what it yielded and ``first`` is when the first item came out.

The boundaries in ``TALLIED`` are called once per permutation by
``verify``'s block checks and once per witness by ``enumerate --json``.
They get no span each; a light wrapper adds their calls, items, busy and
self time to one tally per name, and ``tallied`` on the enclosing span is
the time spent in them directly under it.  Per-element hot paths such as
``Permutation.commute_distance`` are not wrapped at all.

Imported as a module, it offers ``load`` and ``self_times``.
"""

from __future__ import annotations

import time

T_SCRIPT = time.perf_counter()

import functools  # noqa: E402
import inspect  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

BOUNDARIES = {
    "perm": ("parse_permutation", "all_permutations"),
    "blocks": ("bad_points", "profile", "verify_characterization"),
    "oracle": ("distribution", "count_by_profile", "filter_by_profile",
               "filter_by_distance", "even_odd_split", "enumerate_sn"),
    "formulas": ("count", "successor_free_cycles", "deranged_matchings", "count_k0",
                 "count_k3", "count_k4", "count_k4_parts", "single_cycle_count",
                 "count_for_ncycle", "transposition_count", "fpf_involution_count"),
    "construct": ("enumerate_single_cycle", "enumerate_fpf", "single_cycle_pairs",
                  "fpf_pairs", "outer_assignments", "successor_free_kcycles",
                  "perfect_matchings", "build_single_cycle"),
    "series": ("ncycle_egf", "fpf_involution_egf", "ncycle_egf_coeff",
               "fpf_involution_egf_coeff", "deranged_matching_egf_ok", "exp",
               "log_one_plus", "inv_one_minus", "sqrt_one_plus"),
    "cli": ("main", "run_count", "run_enumerate", "run_verify", "run_table",
            "run_gf", "run_oeis"),
}
TALLIED = {"blocks.bad_points", "blocks.profile", "blocks.verify_characterization",
           "oracle.enumerate_sn"}
NAME, START, END, BUSY, PARENT, ITEMS, FIRST, TAG, TALLY = range(9)
CALLS, TALLY_ITEMS, TALLY_BUSY, TALLY_SELF = range(4)


def self_times(spans) -> list[float]:
    """
    Each span's busy time minus the busy time of its direct children and
    of the tallied calls made directly under it.
    """
    out = [span[BUSY] - span[TALLY] for span in spans]
    for span in spans:
        if span[PARENT] >= 0:
            out[span[PARENT]] -= span[BUSY]
    return out


class Recorder:
    """The spans and tallies of one request and the stack of spans now running."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = [-1]
        self.tallies: dict[str, list] = {}
        # time of the tallied calls finished since the innermost open span or
        # tallied call began; each wrapper saves it on entry and resets it
        self.nested = [0.0]

    def _open(self, name):
        self.spans.append([name, None, None, 0.0, -1, 0, None, None, 0.0])
        return len(self.spans) - 1

    def wrap_call(self, name, fn, tag=None):
        spans, stack, nested = self.spans, self.stack, self.nested

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            span = spans[idx]
            span[PARENT] = stack[-1]
            stack.append(idx)
            mark, nested[0] = nested[0], 0.0
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                span[START], span[END], span[BUSY] = t0, t1, t1 - t0
                span[TALLY], nested[0] = nested[0], mark
                if tag:
                    span[TAG] = tag(*args)

        return wrapper

    def wrap_generator(self, name, fn):
        spans, stack, nested = self.spans, self.stack, self.nested

        def timed(it, span, idx):
            while True:
                if span[START] is None:
                    span[PARENT] = stack[-1]
                stack.append(idx)
                mark, nested[0] = nested[0], 0.0
                t0 = time.perf_counter()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    t1 = time.perf_counter()
                    stack.pop()
                    span[BUSY] += t1 - t0
                    span[TALLY] += nested[0]
                    nested[0] = mark
                    if span[START] is None:
                        span[START] = t0
                    span[END] = t1
                span[ITEMS] += 1
                if span[FIRST] is None:
                    span[FIRST] = t1
                yield item

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            return timed(fn(*args, **kwargs), spans[idx], idx)

        return wrapper

    def wrap_tallied(self, name, fn):
        """
        A boundary called per element: one tally, no span per call.  The
        wrapper is kept to two clock reads and a few list updates; what it
        costs (under a microsecond a call) lands in the caller's self time.
        """
        tally = self.tallies.setdefault(name, [0, 0, 0.0, 0.0])
        nested = self.nested
        clock = time.perf_counter

        if inspect.isgeneratorfunction(inspect.unwrap(fn)):
            def stream(it):
                while True:
                    mark, nested[0] = nested[0], 0.0
                    t0 = clock()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        elapsed = clock() - t0
                        tally[TALLY_BUSY] += elapsed
                        tally[TALLY_SELF] += elapsed - nested[0]
                        nested[0] = mark + elapsed
                    tally[TALLY_ITEMS] += 1
                    yield item

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                tally[CALLS] += 1
                return stream(fn(*args, **kwargs))
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                tally[CALLS] += 1
                mark, nested[0] = nested[0], 0.0
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    elapsed = clock() - t0
                    tally[TALLY_BUSY] += elapsed
                    tally[TALLY_SELF] += elapsed - nested[0]
                    nested[0] = mark + elapsed

        return wrapper

    def install(self, kommute_modules) -> None:
        """
        Wrap every boundary function wherever kommute modules bind it.  A
        name the program no longer has is skipped, so a refactor that
        removes one reads as zero calls instead of breaking the run.
        """
        wrapped = {}
        for layer, names in BOUNDARIES.items():
            for attr in names:
                fn = getattr(kommute_modules[layer], attr, None)
                if fn is None:
                    continue
                name = f"{layer}.{attr}"
                if name in TALLIED:
                    wrapped[id(fn)] = self.wrap_tallied(name, fn)
                elif inspect.isgeneratorfunction(inspect.unwrap(fn)):
                    wrapped[id(fn)] = self.wrap_generator(name, fn)
                else:
                    tag = _beta_tag if name == "oracle.distribution" else None
                    wrapped[id(fn)] = self.wrap_call(name, fn, tag)
        for module in kommute_modules.values():
            for table in [vars(module)] + [
                v for k, v in vars(module).items() if isinstance(v, dict) and k[:2] != "__"
            ]:
                for key, value in list(table.items()):
                    if id(value) in wrapped:
                        table[key] = wrapped[id(value)]
        cls = kommute_modules["series"].BivariateSeries
        cls.__mul__ = cls.__rmul__ = self.wrap_call("series.mul", cls.__mul__)

    def dump(self, path, request_id: int, marks: dict) -> None:
        """Write the request id, marks, spans and tallies as one JSON object."""
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"request": request_id, "marks": marks, "spans": self.spans,
                       "tallies": self.tallies}, f)


def load(path) -> dict:
    """Read a dump back: request, marks, spans and tallies."""
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def _beta_tag(beta, *_):
    return [beta.degree, list(beta.cycle_type().parts())]


def main() -> int:
    out_path, request_id = sys.argv[1], int(sys.argv[2])
    argv = sys.argv[sys.argv.index("--") + 1 :]
    import kommute.cli
    from kommute import blocks, construct, formulas, oracle, perm, series

    t_imported = time.perf_counter()
    modules = {"perm": perm, "blocks": blocks, "oracle": oracle, "formulas": formulas,
               "construct": construct, "series": series, "cli": kommute.cli}
    recorder = Recorder()
    recorder.install(modules)
    t_main0 = time.perf_counter()
    rc = kommute.cli.main(argv)
    t_main1 = time.perf_counter()
    sys.stdout.flush()
    t_flushed = time.perf_counter()
    marks = {"script": T_SCRIPT, "imported": t_imported, "main0": t_main0,
             "main1": t_main1, "flushed": t_flushed}
    recorder.dump(out_path, request_id, marks)
    with open(out_path + ".end", "w", encoding="utf-8") as f:
        f.write(repr(time.perf_counter()))
    return rc


if __name__ == "__main__":
    sys.exit(main())
