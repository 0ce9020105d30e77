"""
End-to-end benchmark of the kommute CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  One closed-loop client sends one
request at a time, each as a fresh ``python -m kommute.cli`` process that
imports the checkout's ``src/``, until S seconds of request time have been
measured, in whole decks and at least MIN_DECKS[workload] of them.  Every
response is checked outside the timed region.  ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` runs each request twice, plain and under
``tracer.py``, and reports the per-layer metrics.  The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics; the line before it
holds the details (machine, load, host speed probe, tail percentile,
sample counts).
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import math
import os
import random
import selectors
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import reference as ref
import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
TRACER = Path(tracer.__file__).resolve()
# A run measures whole decks, so every run has the same cost mix, and at least
# this many.  The tail percentile is fixed from that least request count, so
# every run of a workload reports the same percentile (see tail_samples).
MIN_DECKS = {"enumerate_stream": 2, "verify_matrix": 4, "closed_forms": 2}
PROBE_LOOPS = 50_000
SETUP_REPS = 9
STARTUP_REPS = 5
IMPORT_REPS = 3
REQUEST_TIMEOUT_S = 60.0
# forks and execs the child, waits for it, and reports the fork and reap
# times, its wait status and its own rusage on the fd given as argv[1]
LAUNCHER = """
import os, sys, time
fd = int(sys.argv[1])
t0 = time.perf_counter()
pid = os.fork()
if pid == 0:
    os.close(fd)
    os.execv(sys.argv[2], sys.argv[2:])
_, status, ru = os.wait4(pid, 0)
t1 = time.perf_counter()
os.write(fd, f"{t0!r} {t1!r} {status} {ru.ru_utime!r} {ru.ru_stime!r} {ru.ru_maxrss}".encode())
"""


@dataclass
class Response:
    wall: float
    cpu: float
    rss_kb: int
    first_output: float
    rc: int
    stdout: bytes
    t_spawn: float
    t_exit: float


class Client:
    """Spawns one child at a time from a private working directory."""

    def __init__(self, work: Path):
        self.work = work
        self.cwd = work / "cwd"
        self.cwd.mkdir(parents=True)
        self.stderr_path = work / "stderr.txt"
        env = {k: v for k, v in os.environ.items()
               if not k.startswith(("PYTHON", "KOMMUTE_"))}
        env["PYTHONPATH"] = str(ROOT / "src")
        self.env = env

    def spawn(self, args) -> Response:
        """
        Run ``python ARGS`` to completion.  A small launcher forks the child,
        so the child's ru_maxrss is not raised to this process's high-water
        mark, which fork and exec would pass on.
        """
        report_r, report_w = os.pipe()
        with open(self.stderr_path, "wb") as err:
            proc = subprocess.Popen(
                [sys.executable, "-I", "-S", "-c", LAUNCHER, str(report_w),
                 sys.executable, *args],
                stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=err,
                cwd=self.cwd, env=self.env, pass_fds=(report_w,),
                start_new_session=True)
        os.close(report_w)
        chunks, first, last = [], None, None
        deadline = time.perf_counter() + REQUEST_TIMEOUT_S
        with os.fdopen(report_r, "rb") as report_file:
            try:
                with selectors.DefaultSelector() as sel:
                    sel.register(proc.stdout, selectors.EVENT_READ)
                    while True:
                        left = deadline - time.perf_counter()
                        if left <= 0 or not sel.select(left):
                            raise TimeoutError(f"{args[:3]} ran over {REQUEST_TIMEOUT_S} s")
                        data = os.read(proc.stdout.fileno(), 1 << 16)
                        if not data:
                            break
                        last = time.perf_counter()
                        if first is None:
                            first = last
                        chunks.append(data)
            except BaseException:
                # the launcher leads the child's process group: end them both
                with contextlib.suppress(ProcessLookupError):
                    os.killpg(proc.pid, signal.SIGKILL)
                raise
            finally:
                proc.wait()
                proc.stdout.close()
            report = report_file.read().split()
        if proc.returncode or len(report) != 6:
            raise RuntimeError(f"launcher failed for {args[:3]}: {self.stderr_tail()}")
        t0, t1, status, user, system, rss_kb = report
        t0, t1 = float(t0), max(float(t1), last or 0.0)
        return Response(t1 - t0, float(user) + float(system), int(rss_kb),
                        (first or t1) - t0, os.waitstatus_to_exitcode(int(status)),
                        b"".join(chunks), t0, t1)

    def cli(self, argv) -> Response:
        return self.spawn(["-m", "kommute.cli", *argv])

    def stderr_tail(self) -> str:
        return self.stderr_path.read_text(errors="replace")[-300:].strip()


# -- statistics -------------------------------------------------------------------


def tail_percentile(samples: int) -> int | None:
    """The highest whole percentile with at least 10 samples above it."""
    return 100 * (samples - 10) // samples if samples > 10 else None


def tail_samples(workload: str) -> int:
    """The fewest requests a run of the workload measures."""
    return MIN_DECKS[workload] * workloads.deck_size(workload)


def percentile(values, q: int) -> float:
    """Nearest-rank percentile q of values."""
    ordered = sorted(values)
    return ordered[max(1, -(-q * len(ordered) // 100)) - 1]


def metric(value, unit):
    return {"value": value, "unit": unit}


def host_probe() -> float:
    """Seconds for a fixed pure-Python loop: how fast the host runs right now."""
    t0 = time.perf_counter()
    x = 0
    for i in range(PROBE_LOOPS):
        x += i * i % 7
    return time.perf_counter() - t0


def probe_summary(probes: list[float]) -> dict:
    """Probe times in ms; a max/min far above 1 means the host changed speed."""
    ms = [1e3 * p for p in probes]
    return {"before_ms": ms[0], "after_ms": ms[-1], "median_ms": statistics.median(ms),
            "min_ms": min(ms), "max_ms": max(ms), "max_over_min": max(ms) / min(ms)}


# -- phases ---------------------------------------------------------------------


class Failures:
    def __init__(self):
        self.attempted = 0
        self.reasons: list[str] = []

    def record(self, req, resp, reason, client):
        self.attempted += 1
        if reason:
            detail = client.stderr_tail() if resp.rc else ""
            self.reasons.append(f"{' '.join(req.argv)}: {reason} {detail}".strip())


def set_up(client: Client, workload: str, seed: int, reps: int):
    """
    Seeded generation, the reference table and a warm-up call that
    compiles kommute's bytecode afresh, timed; the median of ``reps``.
    """
    times = []
    for rep in range(reps):
        t0 = time.perf_counter()
        table = ref.load_table()
        decks = workloads.decks(workload, seed)
        decks = itertools.chain([next(decks)], decks)
        shutil.rmtree(ROOT / "src" / "kommute" / "__pycache__", ignore_errors=True)
        resp = client.cli(workloads.WARMUP[workload])
        if resp.rc != 0:
            raise RuntimeError(f"warm-up call failed: {client.stderr_tail()}")
        times.append(time.perf_counter() - t0)
    return statistics.median(times), table, decks


def witness_lines(req, resp) -> int:
    return resp.stdout.count(b"\n") if req.kind == "enumerate" else 0


def measure(client, workload, seed, seconds, table, decks, probes):
    """The plain closed loop: end-to-end metrics and details."""
    rng = random.Random(f"check:{workload}:{seed}")
    fails = Failures()
    done, spent = [], 0.0
    witnesses = 0
    least = tail_samples(workload)
    for deck in decks:
        if spent >= seconds and len(done) >= least:
            break
        for req in deck:
            resp = client.cli(req.argv)
            probes.append(host_probe())
            spent += resp.wall
            fails.record(req, resp, workloads.check(req, resp.rc, resp.stdout, table, rng),
                         client)
            done.append(resp)
            witnesses += witness_lines(req, resp)
    walls = [r.wall for r in done]
    q = tail_percentile(least)
    metrics = {
        "latency_p50_s": metric(statistics.median(walls), "s"),
        "latency_tail_s": metric(percentile(walls, q), "s"),
        "cpu_p50_s": metric(statistics.median(r.cpu for r in done), "s"),
        "peak_rss_mb": metric(max(r.rss_kb for r in done) / 1024, "MB"),
        "first_output_p50_s": metric(statistics.median(r.first_output for r in done), "s"),
    }
    # wall time a child spent off the CPU: high when the host is contended
    offcpu = statistics.median(r.wall - r.cpu for r in done)
    details = {"requests": len(done), "tail_percentile": q, "measured_s": spent,
               "offcpu_p50_s": offcpu, "witnesses_per_s": witnesses / spent}
    return metrics, details, fails


def host_floor(client: Client) -> tuple[float, float]:
    """Median interpreter start-up, and cumulative -X importtime of kommute.cli."""
    startup = statistics.median(client.spawn(["-c", "pass"]).wall for _ in range(STARTUP_REPS))
    imports = []
    for _ in range(IMPORT_REPS):
        client.spawn(["-X", "importtime", "-c", "import kommute.cli"])
        for line in client.stderr_path.read_text().splitlines():
            fields = line.split("|")
            if len(fields) == 3 and fields[2].strip() == "kommute.cli":
                imports.append(int(fields[1]) / 1e6)
    return startup, statistics.median(imports)


JOBS_PROBE = """
import sys, time
from kommute import oracle, perm
beta = perm.parse_permutation(sys.argv[1], 9)
times = []
for jobs in (1, 2):
    t0 = time.perf_counter()
    oracle.distribution(beta, jobs=jobs, max_degree=9)
    times.append(time.perf_counter() - t0)
print(times[0] / times[1])
"""


def jobs2_speedup(client: Client, seed: int) -> float:
    """The same S_9 histogram at jobs=1 over jobs=2 (1.0 on a single CPU)."""
    if len(os.sched_getaffinity(0)) < 2:
        return 1.0
    rng = random.Random(f"jobs:{seed}")
    text, _ = workloads.random_conjugate(rng.choice(list(ref.partitions(9))), rng)
    resp = client.spawn(["-c", JOBS_PROBE, text])
    if resp.rc != 0:
        raise RuntimeError(f"jobs probe failed: {client.stderr_tail()}")
    return float(resp.stdout)


class LayerStats:
    """Per-layer sums over the traced requests."""

    def __init__(self):
        self.requests = 0
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.busy: dict[str, float] = {}
        self.items: dict[str, int] = {}
        self.tallied_calls: dict[str, int] = {}
        self.tallied_items: dict[str, int] = {}
        self.layer_self: dict[str, float] = {}
        self.host = {"startup": 0.0, "import": 0.0, "exit": 0.0, "tracer": 0.0}
        self.scanned = 0
        self.type_ratios: list[float] = []
        self.first_witness: list[float] = []
        self.traced_walls: list[float] = []
        self.ratios: list[float] = []
        self.unaccounted: list[float] = []
        self.output_bytes = 0

    def add(self, dump: dict, dumped: float, traced: Response, plain: Response):
        marks, spans = dump["marks"], dump["spans"]
        selfs = tracer.self_times(spans)
        self.requests += 1
        for name, (calls, items, _, own) in dump["tallies"].items():
            self.tallied_calls[name] = self.tallied_calls.get(name, 0) + calls
            self.tallied_items[name] = self.tallied_items.get(name, 0) + items
            self.self_s[name] = self.self_s.get(name, 0.0) + own
            layer = name.split(".")[0]
            self.layer_self[layer] = self.layer_self.get(layer, 0.0) + own
        dist_types = []
        first = None
        for span, own in zip(spans, selfs):
            name = span[tracer.NAME]
            self.calls[name] = self.calls.get(name, 0) + 1
            self.self_s[name] = self.self_s.get(name, 0.0) + own
            self.busy[name] = self.busy.get(name, 0.0) + span[tracer.BUSY]
            self.items[name] = self.items.get(name, 0) + span[tracer.ITEMS]
            layer = name.split(".")[0]
            self.layer_self[layer] = self.layer_self.get(layer, 0.0) + own
            if name == "oracle.distribution":
                n, parts = span[tracer.TAG]
                self.scanned += math.factorial(n)
                dist_types.append(tuple(parts))
            if name in ("construct.single_cycle_pairs", "construct.fpf_pairs"):
                if span[tracer.FIRST] is not None:
                    first = min(first or math.inf, span[tracer.FIRST] - marks["main0"])
        if dist_types:
            self.type_ratios.append(len(set(dist_types)) / len(dist_types))
        if first is not None:
            self.first_witness.append(first)
        host = {
            "startup": marks["script"] - traced.t_spawn,
            "import": marks["imported"] - marks["script"],
            "exit": (marks["flushed"] - marks["main1"]) + (traced.t_exit - dumped),
            "tracer": (marks["main0"] - marks["imported"]) + (dumped - marks["flushed"]),
        }
        for key, value in host.items():
            self.host[key] += value
        tallied = sum(t[tracer.TALLY_SELF] for t in dump["tallies"].values())
        accounted = host["startup"] + host["import"] + sum(selfs) + tallied + host["exit"]
        self.unaccounted.append((traced.wall - accounted) / traced.wall)
        self.traced_walls.append(traced.wall)
        self.ratios.append(traced.wall / plain.wall)
        self.output_bytes += len(traced.stdout)

    def metrics(self, startup: float, import_s: float, jobs2: float, plain: dict) -> dict:
        r = max(self.requests, 1)
        calls = {**self.calls, **self.tallied_calls}

        def per_req(table, *names):
            return sum(table.get(name, 0) for name in names) / r

        def rate(num, den):
            return num / den if den else 0.0

        witnesses = self.items.get("construct.single_cycle_pairs", 0) + self.items.get(
            "construct.fpf_pairs", 0)
        out = {
            "oracle.distribution.calls": (per_req(calls, "oracle.distribution"), "count"),
            "oracle.distribution.self_s": (per_req(self.self_s, "oracle.distribution"), "s"),
            "oracle.scan_rate_perm_per_s": (
                rate(self.scanned, self.self_s.get("oracle.distribution", 0.0)), "1/s"),
            "oracle.distinct_type_ratio": (
                statistics.fmean(self.type_ratios) if self.type_ratios else 0.0, "fraction"),
            "oracle.count_by_profile.self_s": (
                per_req(self.self_s, "oracle.count_by_profile"), "s"),
            "oracle.filter.self_s": (per_req(
                self.self_s, "oracle.filter_by_profile", "oracle.filter_by_distance"), "s"),
            "oracle.even_odd_split.self_s": (per_req(self.self_s, "oracle.even_odd_split"), "s"),
            "oracle.enumerate_sn.perms": (per_req(self.tallied_items, "oracle.enumerate_sn"),
                                          "count"),
            "oracle.jobs2_speedup": (jobs2, "ratio"),
            "blocks.verify_characterization.calls": (
                per_req(calls, "blocks.verify_characterization"), "count"),
            "blocks.verify_characterization.self_s": (
                per_req(self.self_s, "blocks.verify_characterization"), "s"),
            "blocks.profile.self_s": (per_req(self.self_s, "blocks.profile"), "s"),
            "blocks.bad_points.calls": (per_req(calls, "blocks.bad_points"), "count"),
            "blocks.bad_points.self_s": (per_req(self.self_s, "blocks.bad_points"), "s"),
            "construct.witnesses": (witnesses / r, "count"),
            "construct.self_s": (per_req(self.layer_self, "construct"), "s"),
            "construct.witness_rate_per_s": (
                rate(witnesses, self.layer_self.get("construct", 0.0)), "1/s"),
            "construct.first_witness_s": (
                statistics.median(self.first_witness) if self.first_witness else 0.0, "s"),
            "construct.outer_assignments.calls": (
                per_req(calls, "construct.outer_assignments"), "count"),
            "cli.enumerate.self_s": (per_req(self.self_s, "cli.run_enumerate"), "s"),
            "cli.verify.self_s": (per_req(self.self_s, "cli.run_verify"), "s"),
            "cli.count.self_s": (per_req(self.self_s, "cli.run_count"), "s"),
            "cli.output_bytes": (self.output_bytes / r, "bytes"),
            "cli.import_s": (import_s, "s"),
            "host.python_startup_s": (startup, "s"),
            "perm.parse_permutation.self_s": (
                per_req(self.self_s, "perm.parse_permutation"), "s"),
            "formulas.count.calls": (per_req(calls, "formulas.count"), "count"),
            "formulas.count.mean_us": (1e6 * rate(
                self.busy.get("formulas.count", 0.0), self.calls.get("formulas.count", 0)),
                "us"),
            "formulas.successor_free_cycles.calls": (
                per_req(calls, "formulas.successor_free_cycles"), "count"),
            "formulas.successor_free_cycles.self_s": (
                per_req(self.self_s, "formulas.successor_free_cycles"), "s"),
            "formulas.deranged_matchings.self_s": (
                per_req(self.self_s, "formulas.deranged_matchings"), "s"),
            "series.ncycle_egf.self_s": (per_req(self.self_s, "series.ncycle_egf"), "s"),
            "series.fpf_involution_egf.self_s": (
                per_req(self.self_s, "series.fpf_involution_egf"), "s"),
            "series.mul.calls": (per_req(calls, "series.mul"), "count"),
            "trace.overhead_ratio": (statistics.median(self.ratios), "ratio"),
            "trace.unaccounted_ratio": (statistics.fmean(self.unaccounted), "fraction"),
            "trace.wall_s": (statistics.fmean(self.traced_walls), "s"),
            "trace.tracer_s": (self.host["tracer"] / r, "s"),
            "trace.requests": (self.requests, "count"),
            "host.startup_s": (self.host["startup"] / r, "s"),
            "host.import_s": (self.host["import"] / r, "s"),
            "host.exit_s": (self.host["exit"] / r, "s"),
        }
        for layer in tracer.BOUNDARIES:
            if layer != "construct":
                out[f"{layer}.self_s"] = (per_req(self.layer_self, layer), "s")
        out.update(plain)
        return {name: metric(value, unit) for name, (value, unit) in out.items()}


def read_dump(spans_path: Path, end_path: Path, rid: int) -> tuple[dict, float] | None:
    """The traced child's spans and the time it finished writing them, if it did."""
    try:
        dump = tracer.load(spans_path)
        dumped = float(end_path.read_text())
    except (OSError, ValueError):
        return None
    return (dump, dumped) if dump["request"] == rid else None


def measure_traced(client, workload, seed, seconds, table, decks, probes):
    """Each request plain and then traced; per-layer metrics."""
    rng = random.Random(f"check:{workload}:{seed}")
    fails = Failures()
    startup, import_s = host_floor(client)
    jobs2 = jobs2_speedup(client, seed)
    stats = LayerStats()
    spans_path = client.work / "spans.json"
    end_path = client.work / "spans.json.end"
    spent = plain_spent = 0.0
    witnesses = 0
    for rid, req in enumerate(itertools.chain.from_iterable(decks)):
        if spent >= seconds and stats.requests:
            break
        probes.append(host_probe())
        plain = client.cli(req.argv)
        fails.record(req, plain, workloads.check(req, plain.rc, plain.stdout, table, rng),
                     client)
        spans_path.unlink(missing_ok=True)
        end_path.unlink(missing_ok=True)
        traced = client.spawn([str(TRACER), str(spans_path), str(rid), "--", *req.argv])
        dump = read_dump(spans_path, end_path, rid)
        reason = workloads.check(req, traced.rc, traced.stdout, table, rng)
        fails.record(req, traced, reason or (None if dump else "no span dump"), client)
        spent += plain.wall + traced.wall
        plain_spent += plain.wall
        witnesses += witness_lines(req, plain)
        if dump:
            stats.add(dump[0], dump[1], traced, plain)
    plain_metrics = {
        "witnesses_per_s": (witnesses / plain_spent, "1/s"),
        "failed_ratio": (len(fails.reasons) / fails.attempted, "fraction"),
        "host.probe_ms": (1e3 * statistics.median(probes), "ms"),
    }
    metrics = stats.metrics(startup, import_s, jobs2, plain_metrics)
    details = {"requests": stats.requests, "measured_s": spent}
    return metrics, details, fails


def commit_id() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        text = head.read_text().strip()
        if text.startswith("ref: "):
            return (ROOT / ".git" / text[5:]).read_text().strip()
        return text
    except OSError:
        return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "kommute" / "cli.py").is_file():
        print(f"perfbench: no kommute sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    # a plain kill from outside still runs the clean-up below
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    load_before = os.getloadavg()
    tmp_root = ROOT / ".perfbench_tmp"
    work = tmp_root / f"run-{os.getpid()}"
    try:
        client = Client(work)
        reps = 1 if args.trace else SETUP_REPS
        probes = [host_probe()]
        setup_s, table, decks = set_up(client, args.workload, args.seed, reps)
        phase = measure_traced if args.trace else measure
        metrics, details, fails = phase(client, args.workload, args.seed, args.seconds,
                                        table, decks, probes)
        probes.append(host_probe())
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            tmp_root.rmdir()
        except OSError:
            pass
    if not args.trace:
        metrics = {"setup_s": metric(setup_s, "s"), **metrics}
    for reason in fails.reasons[:10]:
        print(f"perfbench: wrong answer: {reason}", file=sys.stderr)
    details.update({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "python": sys.version.split()[0], "nproc": len(os.sched_getaffinity(0)),
        "loadavg_before": load_before, "loadavg_after": os.getloadavg(),
        "host_probe": probe_summary(probes),
        "commit": commit_id(),
    })
    print(json.dumps({"details": details}))
    print(json.dumps({"correct": not fails.reasons, "attempted": fails.attempted,
                      "failed": len(fails.reasons), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
