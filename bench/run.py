"""End-to-end and per-layer benchmark of torusconj.

    python3 bench/run.py --workload decide --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 0

Workloads (closed loop, one client, no threads; each operation is one
in-process `torusconj.cli.main([...])` call or one library call):

* decide          - `decide` and `conj-ung` on seeded k-block twistor tori
                    (gen_decide.py); graph maps, slot validation, black
                    matching and the fiber system scale with k.
* whitehead-orbit - `whitehead orbit` on fresh rank-2/3 marking pairs
                    (gen_orbit.py); Whitehead alone, no input repeats.
* certify         - `minkowski certify` (rank 2/3, plain and --product, and
                    --zsquare), `congruence_kernel` and `characteristic_closure`
                    on seeded finite-quotient subgroups; the only workload
                    using minkowski and Stallings fiber products.

A run measures whole rounds of a fixed operation mix, starting a new round
while less than --seconds of operation time has passed, so every run has the
same mix.  Operation time is process CPU time and covers parsing, deciding
and serializing; the output checks (checks.py, and `verify-witness` on every
positive verdict) run outside it.  Reported times are rescaled by a
calibration loop timed between operations (see REFERENCE_MS).

--trace 0 prints the end-to-end metrics.  --trace 1 runs a traced pass and
then an untraced pass of the same number of rounds on fresh inputs, writes
the per-layer table to .bench_out/, and prints the per-layer metrics with
the tracing overhead (traced over untraced operation time).

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import gc
import importlib
import io
import itertools
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("decide", "whitehead-orbit", "certify")

# Tail percentile, fixed so that runs with a round more or less report the
# same metric.  For decide (~110 operations in 30 s) and certify (~130) it is
# the highest of 50/75/90/95/99 with at least ten samples beyond it.  For
# whitehead-orbit (~2400) that would be p99, but its tail comes from the
# heavy-tailed rank-3 plateau searches, so it depends on which inputs a seed
# draws: over six seeds the quartiles of p99 spread by ~38% of the median and
# those of p95 by ~10%, p90 by ~5%, so p90 is reported there too.  The
# printed latency ladder still shows p95 and p99.
TAIL_PERCENTILE = 90

# Operation and set-up times are the process's CPU time.  The library is
# single-threaded and CPU-bound, and on a shared host the time the host
# withholds from the process (7-17% of wall time on a shared 2-vCPU VM,
# varying by the minute) would otherwise dominate the spread between runs.
clock = time.process_time

# Even CPU time changes by up to 1.7x within a minute on a shared 2-vCPU VM,
# as other tenants load the host's cores.  So a fixed loop of the
# benchmark's own word code (Calibration) runs after every operation and
# every set-up, and each time is rescaled to a core on which that loop takes
# REFERENCE_MS, using the loop's times within CALIBRATION_WINDOW_S of the
# timed interval.  On that VM, with another process switching on and off
# every few seconds, the range of operations per second over six runs of one
# seed fell from 24% of the median to 4%.
REFERENCE_MS = 1.5
CALIBRATION_WINDOW_S = 1.0

SETUP_REPEATS = 7
FRESH_INPUT_TRIES = 1000
WARMUP_SEED_OFFSET = 1_000_003


# ---------------------------------------------------------------------------
# operations


@dataclass
class Outcome:
    status: str  # "ok" | "undecided" | "failed"
    reason: str = ""


@dataclass
class Operation:
    name: str  # identifies the input, for failure reports
    call: Callable[[], object]  # the timed part
    check: Callable[[object], Outcome]  # untimed


@dataclass
class CliResult:
    code: object  # exit code, or None after an exception
    stdout: str
    stderr: str


def run_cli(argv: List[str]) -> CliResult:
    from torusconj import cli

    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except Exception:  # the run goes on; the operation counts as failed
        return CliResult(None, out.getvalue(), traceback.format_exc(limit=3))
    return CliResult(code, out.getvalue(), err.getvalue())


def cli_outcome(result: CliResult) -> Optional[Outcome]:
    """Failure or undecided from the exit code, or None to check further."""
    if result.code is None:
        return Outcome("failed", "exception: " + result.stderr.strip().splitlines()[-1])
    if result.code == 2:
        return Outcome("undecided", result.stderr.strip() or result.stdout.strip())
    if result.code != 0:
        return Outcome("failed", f"exit code {result.code}: {result.stderr.strip()}")
    return None


def library_call(fn: Callable[[], object]) -> Callable[[], object]:
    def call():
        try:
            return fn()
        except Exception as exc:  # recorded as a failed operation
            from torusconj.errors import ResourceError

            if isinstance(exc, ResourceError):
                return Outcome("undecided", f"resource limit: {exc}")
            return Outcome("failed", "exception: " + repr(exc))

    return call


# ---------------------------------------------------------------------------
# workloads


class Workload:
    """Builds the operations of round `r`; inputs come from the seed only."""

    def __init__(self, seed: int, workdir: Path):
        self.rng = random.Random(seed)
        self.workdir = workdir
        self._prepared: Dict[int, Optional[List[Operation]]] = {}

    def prepare(self, r: int) -> None:
        """Generate and write round `r` ahead of time (during set-up)."""
        self._prepared[r] = self.build(r)

    def round(self, r: int) -> Optional[List[Operation]]:
        if r in self._prepared:
            return self._prepared.pop(r)
        return self.build(r)

    def build(self, r: int) -> Optional[List[Operation]]:
        """The operations of round `r`, or None once the inputs run out."""
        raise NotImplementedError

    def warmup(self) -> List[Operation]:
        """One operation per kind, on inputs the measured rounds never use."""
        raise NotImplementedError


class DecideWorkload(Workload):
    # (poly rank, blocks): half Z^2 (poly rank 1), half F_r x Z.  F_2 x Z
    # stops at k = 3 and F_3 x Z at k = 1: on a 2.1 GHz vCPU an F_2 x Z, k = 4
    # decision takes 4-5 s, and F_3 x Z, k = 2 positives 0.2 to 2 s, either of
    # which would leave a 30 s run only a few rounds to average over.
    STRATA = [(1, 1), (1, 2), (1, 3), (1, 4), (2, 1), (2, 2), (2, 3), (3, 1)]

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.seen: set = set()

    def build(self, r: int) -> Optional[List[Operation]]:
        ops = []
        for p, k in self.STRATA:
            for positive in (True, False):
                command = "decide" if (r + positive) % 2 else "conj-ung"
                ops.append(self._operation(f"r{r}", command, k, p, positive))
        return None if None in ops else ops

    def warmup(self) -> List[Operation]:
        return [self._operation("warmup", command, 1, 3, True) for command in ("decide", "conj-ung")]

    def _operation(self, tag: str, command: str, k: int, p: int,
                   positive: bool) -> Optional[Operation]:
        from gen_decide import make_case

        slot = "Z2" if p == 1 else f"F{p}xZ"
        name = f"{tag}-{command}-{slot}-k{k}-{'pos' if positive else 'neg'}"
        # small strata (Z^2, k = 1) would otherwise repeat inputs
        for _ in range(FRESH_INPUT_TRIES):
            case = make_case(self.rng, command, k, p, positive)
            if command == "decide":
                key = (command, case.a.jsj_text(), case.b.jsj_text())
            else:
                key = (command, case.a.side_text(), case.b.side_text())
            if key not in self.seen:
                self.seen.add(key)
                break
        else:
            return None
        paths = case.write(self.workdir / name)
        if command == "decide":
            argv = ["decide", "--jsj-a", paths["jsj_a"], "--jsj-b", paths["jsj_b"]]
        else:
            argv = ["conj-ung", "--alpha", paths["alpha"], "--beta", paths["beta"]]
        argv += ["--whitelists", paths["whitelists"], "--witness-out", paths["witness"]]
        twists = " | ".join(
            f"{side}: " + " / ".join(" ".join(map(str, w)) for w in t.twists)
            for side, t in (("a", case.a), ("b", case.b))
        )

        def check(result: CliResult) -> Outcome:
            early = cli_outcome(result)
            if early is not None:
                return early
            status = result.stdout.splitlines()[0].partition(":")[2].strip()
            if (status == case.positive_status) != case.positive:
                kind = "positive" if case.positive else "negative"
                return Outcome("failed", f"status {status} on a {kind}; {twists}")
            if case.positive:
                verified = run_cli([
                    "verify-witness", "--jsj-a", paths["jsj_a"], "--jsj-b", paths["jsj_b"],
                    "--witness", paths["witness"],
                ])
                if verified.code != 0 or "witness verified" not in verified.stdout:
                    return Outcome("failed", f"verify-witness rejected the witness; {twists}")
            return Outcome("ok")

        return Operation(name, lambda: run_cli(argv), check)


class OrbitWorkload(Workload):
    # (rank, word lengths, Nielsen moves).  Rank-3 words stay at length <= 3:
    # at length 4 a single negative pair can take half a minute on a 2.1 GHz
    # vCPU, which no run of this length could average out.
    STRATA = [(2, (6, 6), 3), (2, (8, 10), 4), (3, (3, 3), 3), (3, (2, 3), 3)]

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.seen: set = set()

    def build(self, r: int) -> Optional[List[Operation]]:
        ops = [
            self._operation(f"r{r}", rank, lengths, moves, positive)
            for rank, lengths, moves in self.STRATA
            for positive in (True, False)
        ]
        return None if None in ops else ops

    def warmup(self) -> List[Operation]:
        return [self._operation("warmup", rank, (2, 2), 2, True) for rank in (2, 3)]

    def _operation(self, tag, rank, lengths, moves, positive) -> Optional[Operation]:
        from checks import check_orbit_witness
        from gen_orbit import make_case

        for _ in range(FRESH_INPUT_TRIES):
            case = make_case(self.rng, rank, lengths, moves, positive)
            keys = set(case.keys())
            if len(keys) == 2 and not keys & self.seen:
                self.seen.update(keys)
                break
        else:
            return None
        argv = case.argv()
        name = f"{tag}-rank{rank}-{'pos' if positive else 'neg'}: {argv[2]} vs {argv[3]}"

        def check(result: CliResult) -> Outcome:
            early = cli_outcome(result)
            if early is not None:
                return early
            answer = result.stdout.split("\n", 1)[0].strip()
            if answer != case.expected:
                return Outcome("failed", f"answered {answer}, expected {case.expected}")
            if positive:
                reason = check_orbit_witness(rank, case.m1, case.m2, result.stdout)
                if reason:
                    return Outcome("failed", reason)
            return Outcome("ok")

        return Operation(name, lambda: run_cli(argv), check)


class CertifyWorkload(Workload):
    # `minkowski certify` kinds; each round uses a fresh pair of search
    # bounds per kind, so no command line repeats within a run
    KINDS = [(2, False), (3, False), (2, True), (3, True)]
    BOUNDS = [(d, l) for d in range(4, 13) for l in range(2, 6)]
    # Finite quotients (rank, degree) for the kernel operations, one of each
    # per round.  Closures are taken of kernels whose image has order <= 8:
    # larger images (rank-3 degree-3, rank-2 S_4) exceed the state budget.
    # A round then holds three operations under 30 ms (two kernels, one
    # closure), two rank-2 certifies near 50 ms and three above 200 ms, so
    # the median falls in the middle of the rank-2 certifies rather than on
    # the edge between two groups, where it jumped by up to 30% between
    # seeds; a rank-2 degree-3 closure (~3 ms) would put it on that edge.
    KERNEL_STRATA = [(2, 3), (2, 4), (3, 3)]
    CLOSURE_STRATA = [(2, 4)]
    CLOSURE_IMAGE_ORDER = 8

    def __init__(self, seed: int, workdir: Path):
        from perm import group_closure

        super().__init__(seed, workdir)
        self.bounds = {kind: self.rng.sample(self.BOUNDS, len(self.BOUNDS)) for kind in self.KINDS}
        self.closure_pools = []
        for rank, degree in self.CLOSURE_STRATA:
            pool = [t for t in transitive_tuples(rank, degree)
                    if len(group_closure(t)) <= self.CLOSURE_IMAGE_ORDER]
            self.closure_pools.append(self.rng.sample(pool, len(pool)))
        self.seen_stabilizers: set = set()

    def build(self, r: int) -> Optional[List[Operation]]:
        if r >= min(len(self.BOUNDS), *map(len, self.closure_pools)):
            return None  # inputs exhausted: the run ends early
        ops = [self._certify_zsquare()] if r == 0 else []
        for rank, product in self.KINDS:
            ops.append(self._certify(rank, product, *self.bounds[(rank, product)][r]))
        ops += [self._kernel(rank, degree) for rank, degree in self.KERNEL_STRATA]
        ops += [self._closure(pool[r]) for pool in self.closure_pools]
        return None if None in ops else ops

    def warmup(self) -> List[Operation]:
        # bounds, degrees and ranks outside the measured strata
        return [
            self._certify(2, False, 13, 3),
            self._kernel(3, 2),
            self._closure(((1, 0), (0, 1))),
        ]

    def _certify(self, rank, product, degree, length) -> Operation:
        from checks import check_certificate

        argv = ["minkowski", "certify", "--rank", str(rank), "--degree-bound", str(degree),
                "--length-bound", str(length)] + (["--product"] if product else [])

        def check(result: CliResult) -> Outcome:
            early = cli_outcome(result)
            if early is not None:
                return early
            reason = check_certificate(result.stdout, rank, product)
            return Outcome("failed", reason) if reason else Outcome("ok")

        return Operation(" ".join(argv), lambda: run_cli(argv), check)

    def _certify_zsquare(self) -> Operation:
        from checks import check_zsquare

        argv = ["minkowski", "certify", "--zsquare"]

        def check(result: CliResult) -> Outcome:
            early = cli_outcome(result)
            if early is not None:
                return early
            reason = check_zsquare(result.stdout)
            return Outcome("failed", reason) if reason else Outcome("ok")

        return Operation(" ".join(argv), lambda: run_cli(argv), check)

    def _kernel(self, rank: int, degree: int) -> Optional[Operation]:
        """congruence_kernel(H, 2) for H the stabilizer of a point under a
        fresh transitive action."""
        from checks import Graph, check_contained, graph_of

        for _ in range(FRESH_INPUT_TRIES):
            perms = random_transitive(self.rng, rank, degree)
            if perms not in self.seen_stabilizers:
                self.seen_stabilizers.add(perms)
                break
        else:
            return None
        fwd = [list(p) for p in perms]

        def call():
            from torusconj.freegroup import FreeGroup, SubgroupGraph, congruence_kernel

            return congruence_kernel(SubgroupGraph(FreeGroup(rank), degree, fwd), 2)

        def check(result) -> Outcome:
            if isinstance(result, Outcome):
                return result
            graph = graph_of(result)
            if not graph.is_complete():
                return Outcome("failed", "congruence kernel has infinite index")
            reason = check_contained(graph, Graph(rank, fwd))
            return Outcome("failed", reason) if reason else Outcome("ok")

        return Operation(f"congruence_kernel(stabilizer {perms}, 2)", library_call(call), check)

    def _closure(self, perms) -> Operation:
        """characteristic_closure of the kernel of a finite quotient."""
        from checks import check_characteristic, check_contained, graph_of

        rank = len(perms)
        degree = len(perms[0])
        holder: Dict[str, object] = {}

        def call():
            from torusconj.freegroup import FreeGroup
            from torusconj.minkowski import FiniteQuotient, characteristic_closure

            kernel = FiniteQuotient(FreeGroup(rank), degree, perms).kernel_graph()
            holder["kernel"] = kernel
            return characteristic_closure(kernel)

        def check(result) -> Outcome:
            if isinstance(result, Outcome):
                return result
            graph = graph_of(result)
            reason = check_characteristic(graph) or check_contained(graph, graph_of(holder["kernel"]))
            return Outcome("failed", reason) if reason else Outcome("ok")

        return Operation(f"characteristic_closure(kernel of {perms})", library_call(call), check)


def transitive_tuples(rank: int, degree: int) -> List[Tuple[Tuple[int, ...], ...]]:
    perms = list(itertools.permutations(range(degree)))
    return [t for t in itertools.product(perms, repeat=rank) if _transitive(t)]


def random_transitive(rng: random.Random, rank: int, degree: int):
    while True:
        t = tuple(tuple(rng.sample(range(degree), degree)) for _ in range(rank))
        if _transitive(t):
            return t


def _transitive(perms) -> bool:
    seen, frontier = {0}, [0]
    while frontier:
        x = frontier.pop()
        for p in perms:
            for y in (p[x], p.index(x)):
                if y not in seen:
                    seen.add(y)
                    frontier.append(y)
    return len(seen) == len(perms[0])


WORKLOAD_CLASSES = {
    "decide": DecideWorkload,
    "whitehead-orbit": OrbitWorkload,
    "certify": CertifyWorkload,
}


# ---------------------------------------------------------------------------
# measuring


class Calibration:
    """Times a fixed loop between operations to track the host's speed."""

    ROUNDS = 25

    def __init__(self):
        self.stamps: List[float] = []  # wall clock at each sample
        self.samples: List[float] = []  # the loop's CPU time

    @classmethod
    def _reference_loop(cls) -> int:
        # word substitution and cyclic keys, the kind of work the library does,
        # in the benchmark's own code so that no change to the library moves it
        from gen_orbit import cyclic_key, random_cyclic_word, random_nielsen_product, substitute

        rng = random.Random(0)
        total = 0
        for _ in range(cls.ROUNDS):
            phi = random_nielsen_product(rng, 3, 4)
            total += len(cyclic_key(substitute(random_cyclic_word(rng, 3, 6), phi)))
        return total

    def follow(self, seconds: float) -> None:
        """Sample after `seconds` of timed work: once, or more after a long
        operation, so the loop takes about 2% of the timed time."""
        for _ in range(max(1, round(0.02 * seconds / (REFERENCE_MS / 1000)))):
            self.sample()

    def sample(self) -> None:
        # the collector stays off, so the program's heap and gc settings cannot move it
        enabled = gc.isenabled()
        gc.disable()
        wall = time.perf_counter()
        start = clock()
        self._reference_loop()
        self.samples.append(clock() - start)
        self.stamps.append((wall + time.perf_counter()) / 2)
        if enabled:
            gc.enable()

    def scale(self, start: float, end: float) -> float:
        """Reference-core time per second of CPU time over the wall-clock
        interval [start, end]; the nearest sample stands in if none is in
        the window."""
        lo = bisect.bisect_left(self.stamps, start - CALIBRATION_WINDOW_S)
        hi = bisect.bisect_right(self.stamps, end + CALIBRATION_WINDOW_S)
        window = self.samples[lo:hi] or [self.samples[min(lo, len(self.samples) - 1)]]
        return REFERENCE_MS / (1000 * statistics.median(window))


@dataclass
class Record:
    name: str
    seconds: float  # CPU time
    outcome: Outcome
    start: float  # wall clock
    end: float


def measure(workload: Workload, seconds: float, rounds: Optional[int] = None,
            wrap: Optional[Callable] = None,
            calibration: Optional[Calibration] = None) -> Tuple[List[Record], int]:
    """Run whole rounds until `seconds` of operation time have passed (or
    exactly `rounds` rounds); return the records and the round count."""
    records: List[Record] = []
    elapsed = 0.0
    r = 0
    while (elapsed < seconds) if rounds is None else (r < rounds):
        ops = workload.round(r)
        if ops is None:
            break
        for op in ops:
            wall = time.perf_counter()
            start = clock()
            result = wrap(op.call) if wrap else op.call()
            duration = clock() - start
            wall_end = time.perf_counter()
            elapsed += duration
            records.append(Record(op.name, duration, checked(op, result), wall, wall_end))
            if calibration:
                calibration.follow(duration)
        r += 1
    return records, r


def checked(op: Operation, result) -> Outcome:
    try:
        return op.check(result)
    except Exception:  # a check that cannot read the output fails the operation
        return Outcome("failed", "unreadable output: " + traceback.format_exc(limit=2))


def setup(workload_name: str, seed: int, workdir: Path,
          calibration: Calibration) -> Tuple[Workload, float]:
    """Set up SETUP_REPEATS times: import the program afresh, generate and
    write the first round, and warm up once per operation kind from a seed
    the measured inputs never use.  Return the last workload and the median
    set-up time, rescaled by the calibration."""
    cls = WORKLOAD_CLASSES[workload_name]
    times = []
    calibration.sample()
    for repeat in range(SETUP_REPEATS):
        wall = time.perf_counter()
        start = clock()
        for name in [m for m in sys.modules if m.split(".")[0] == "torusconj"]:
            del sys.modules[name]
        importlib.import_module("torusconj.cli")
        workload = cls(seed, workdir / f"run{repeat}")
        workload.prepare(0)
        warm = cls(seed + WARMUP_SEED_OFFSET * (repeat + 1), workdir / f"warmup{repeat}")
        for op in warm.warmup():
            checked(op, op.call())
        seconds = clock() - start
        wall_end = time.perf_counter()
        calibration.follow(seconds)
        times.append(seconds * calibration.scale(wall, wall_end))
    return workload, statistics.median(times)


def nearest_rank(n: int, pct: float) -> int:
    return max(1, -(-n * pct // 100))


def percentile(sorted_values: List[float], pct: float) -> float:
    """Nearest-rank percentile."""
    return sorted_values[int(nearest_rank(len(sorted_values), pct)) - 1]


def end_to_end(records: List[Record], setup_s: float,
               calibration: Calibration) -> Dict[str, dict]:
    """The end-to-end metrics, operation times rescaled by the calibration."""
    times = sorted(rec.seconds * calibration.scale(rec.start, rec.end) for rec in records)
    n = len(times)
    pct = TAIL_PERCENTILE
    beyond = n - int(nearest_rank(n, pct))
    failed = sum(rec.outcome.status == "failed" for rec in records)
    undecided = sum(rec.outcome.status == "undecided" for rec in records)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "ops_per_s": {"value": n / sum(times), "unit": "1/s"},
        "latency_p50_ms": {"value": 1000 * statistics.median(times), "unit": "ms"},
        "latency_tail_ms": {
            "value": 1000 * percentile(times, pct), "unit": "ms",
            "percentile": pct, "samples": n, "beyond": beyond,
        },
        "failed_ratio": {"value": failed / n, "unit": "ratio"},
        "undecided_ratio": {"value": undecided / n, "unit": "ratio"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": peak_kb / 1024, "unit": "MB"},
    }


def per_layer(tracer, rounds: int, traced_s: float, untraced_s: float) -> Dict[str, dict]:
    """Per-function calls, total and self time (span wall time), the self
    time as a share of all operation spans, work counters and the named
    ratios; the overhead compares the passes' operation CPU times."""
    table = tracer.layer_table()
    counts = tracer.counts
    span_total = table["bench.operation"]["total_s"]
    metrics: Dict[str, dict] = {}
    for name, row in sorted(table.items()):
        metrics[f"{name}.calls"] = {"value": row["calls"], "unit": "count"}
        metrics[f"{name}.total_s"] = {"value": row["total_s"], "unit": "s"}
        metrics[f"{name}.self_s"] = {"value": row["self_s"], "unit": "s"}
        metrics[f"{name}.self_share"] = {"value": row["self_s"] / span_total, "unit": "ratio"}
    for name, value in sorted(counts.items()):
        metrics[name] = {"value": value, "unit": "count"}

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    graph_maps = counts["gog.graph_isomorphisms.yields"]
    metrics.update({
        "pipeline.assemble.yield_ratio": {
            "value": ratio(counts["pipeline.assemble.morphisms"], graph_maps), "unit": "ratio"},
        "pipeline.match_black.accepted_ratio": {
            "value": ratio(counts["pipeline.match_black.accepted"],
                           table.get("pipeline.match_black", {}).get("calls", 0)), "unit": "ratio"},
        "whitehead.moves_per_question": {
            "value": ratio(counts["whitehead.WhiteheadMove.apply_marking.calls"],
                           counts["whitehead.questions"]), "unit": "count"},
        "whitehead.distinct_marking_ratio": {
            "value": ratio(counts["whitehead.distinct_markings"], counts["whitehead.markings"]),
            "unit": "ratio"},
        "whitehead.same_orbit.positive_ratio": {
            "value": ratio(counts["whitehead.same_orbit.positive"],
                           table.get("whitehead.same_orbit", {}).get("calls", 0)), "unit": "ratio"},
        "fibercorrect.solve.solvable_ratio": {
            "value": ratio(counts["fibercorrect.solve.solvable"],
                           table.get("fibercorrect.solve", {}).get("calls", 0)), "unit": "ratio"},
        "trace.overhead": {"value": ratio(traced_s, untraced_s), "unit": "ratio"},
        "trace.rounds": {"value": rounds, "unit": "count"},
        "trace.spans": {"value": tracer.span_count(), "unit": "count"},
    })
    return metrics


def layer_violations(workload_name: str, metrics: Dict[str, dict]) -> List[str]:
    """Layers a workload must not reach."""
    forbidden = {"certify": ("whitehead.",), "whitehead-orbit": ("gog.", "pipeline.")}
    return [
        name for name, metric in metrics.items()
        if name.startswith(forbidden.get(workload_name, ()))
        and name.endswith((".calls", ".yields")) and metric["value"]
    ]


def declared(kind: str) -> Dict[str, str]:
    """Name -> unit of the metrics BENCHMARK.json declares."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[kind]}


def report(workload_name: str, records: List[Record], metrics: Dict[str, dict]) -> None:
    failures = [rec for rec in records if rec.outcome.status == "failed"]
    print(f"workload {workload_name}: {len(records)} operations, {len(failures)} failed")
    for rec in failures:
        print(f"  FAILED {rec.name}: {rec.outcome.reason}")
    for name, metric in metrics.items():
        extra = ""
        if "percentile" in metric:
            extra = (f"  (p{metric['percentile']} of {metric['samples']} samples,"
                     f" {metric['beyond']} beyond)")
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}{extra}")


def run_one(args) -> int:
    if not (ROOT / "src" / "torusconj").is_dir():
        print(f"no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(BENCH_DIR))
    sys.path.insert(0, str(ROOT / "src"))
    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        calibration = Calibration()
        workload, setup_s = setup(args.workload, args.seed, workdir, calibration)
        if args.trace:
            from layers import Tracer

            tracer = Tracer()
            tracer.install()
            try:
                traced, rounds = measure(workload, args.seconds / 2, wrap=tracer.operation)
            finally:
                tracer.remove()
            untraced, _ = measure(workload, 0, rounds=rounds)
            records = traced + untraced
            metrics = per_layer(
                tracer, rounds,
                sum(r.seconds for r in traced), sum(r.seconds for r in untraced),
            )
            violations = layer_violations(args.workload, metrics)
            out_dir = ROOT / ".bench_out"
            out_dir.mkdir(exist_ok=True)
            with open(out_dir / f"layers-{args.workload}-{args.seed}.json", "w",
                      encoding="utf-8") as handle:
                json.dump({"workload": args.workload, "seed": args.seed,
                           "layer_violations": violations, "metrics": metrics}, handle, indent=1)
            wanted = declared("per_layer")
        else:
            records, _ = measure(workload, args.seconds, calibration=calibration)
            samples = sorted(calibration.samples)
            print(f"calibration: {len(samples)} samples of the reference loop, median "
                  f"{1000 * statistics.median(samples):.4g} ms, quartiles "
                  + ", ".join(f"{1000 * q:.4g}" for q in statistics.quantiles(samples, n=4)[::2])
                  + f" ms; times rescaled to {REFERENCE_MS} ms")
            metrics = end_to_end(records, setup_s, calibration)
            violations = []
            wanted = declared("end_to_end")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report(args.workload, records, metrics)
    times = sorted(rec.seconds for rec in records)
    print("  unscaled latency ladder: " + ", ".join(
        f"p{p} {1000 * percentile(times, p):.4g} ms" for p in (50, 75, 90, 95, 99)))
    for name in violations:
        print(f"  LAYER SEPARATION VIOLATED: {name} = {metrics[name]['value']}")
    failed = sum(rec.outcome.status == "failed" for rec in records)
    result = {
        "correct": failed == 0 and not violations,
        "attempted": len(records),
        "failed": failed,
        # a function the workload never reaches reports zero
        "metrics": {
            name: {"value": metrics[name]["value"] if name in metrics else 0, "unit": unit}
            for name, unit in wanted.items()
        },
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload, each in a fresh process."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
