"""The four end-to-end workloads, driven from outside the program.

Each function takes ``(seed, seconds)`` and returns a :class:`Result`.
The service workloads drive a ``python -m repro.service`` subprocess with
one closed-loop client on one keep-alive connection; ``sweep`` drives the
``python -m repro.pipeline`` CLI.  Every response is checked (see
``gen.py``); a wrong answer, a non-200, a timeout or a connection error
counts as a failed operation, and any failure makes the run incorrect.
"""

from __future__ import annotations

import json
import math
import random
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import gen
import sut

#: A latency percentile is reported only with at least ten samples beyond
#: it, so p90 needs 100; the measured phase runs past ``--seconds`` until
#: it has them, but never past :data:`HARD_STOP_S` (which, with setup and
#: one timed-out operation, keeps a run within three minutes).
MIN_SAMPLES = 100
HARD_STOP_S = 100.0
#: Wall-clock budget of one CLI sweep (a healthy one takes about 6 s).
SWEEP_TIMEOUT_S = 40.0
#: Spawns timed per run for ``setup_s`` (its median is reported).
SETUP_SPAWNS = 5
#: The cold workload measures whole blocks of the generator's Latin
#: design (eight rounds of eight requests), each on a fresh server and
#: store, in groups of this many (one per slice of every stratum, see
#: ``gen.SUB_STRATA``), so every run asks the same mix whatever the host's
#: speed, and p90 has well over ten samples beyond it.
BLOCK_ROUNDS = 8
MIN_BLOCKS = gen.SUB_STRATA
#: Small unmeasured cold requests, one per builder, that finish the lazy
#: imports of every builder module before timing starts.
WARMUPS = 8
#: Size of the hot and disk workloads' key set: a few dozen entries, far
#: under the service's 4096-entry memory tier.
KEY_SET = 24

SWEEP_SIZES = ("8", "16", "32", "64", "128")
MIN_SWEEPS = 3


@dataclass
class Result:
    """One run: metric values with units and sample counts, op tallies."""

    metrics: Dict[str, Tuple[float, str, int]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    extra: Dict[str, Any] = field(default_factory=dict)

    def put(self, name: str, value: float, unit: str, samples: int) -> None:
        self.metrics[name] = (float(value), unit, int(samples))

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.errors


def quantile(values: List[float], q: float) -> float:
    """The Harrell-Davis estimate of quantile ``q``: the mean of the order
    statistics weighted by the Beta(q(n+1), (1-q)(n+1)) density.

    Latencies over HTTP come in steps of the kernel's 4 ms timer tick (the
    service's responses wait on the client's delayed ACK), so a single
    order statistic jumps by a whole step when one request crosses it; the
    weighted mean moves by the share of requests that did.
    """
    xs = sorted(values)
    n = len(xs)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    steps = 16  # midpoint rule inside each order statistic's interval
    weights = [sum(math.exp(log_norm + (a - 1) * math.log(t) + (b - 1) * math.log1p(-t))
                   for t in ((i + (j + 0.5) / steps) / n for j in range(steps)))
               for i in range(n)]
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def percentiles(latencies_ms: List[float]) -> Tuple[float, float]:
    """(p50, p90); p90 only has support with >= MIN_SAMPLES samples."""
    return quantile(latencies_ms, 0.5), quantile(latencies_ms, 0.9)


class Client:
    """The closed-loop client: one request in flight, each one checked.

    With :meth:`track_peaks` it also records the server process's peak
    resident set during each request.
    """

    def __init__(self, server: sut.Server, result: Result) -> None:
        self.server = server
        self.result = result
        self.peaks: Optional[List[float]] = None

    def track_peaks(self, peaks: List[float]) -> None:
        """Append each later request's peak RSS (MiB) to ``peaks``."""
        self.peaks = peaks
        sut.reset_peak_rss(self.server.proc.pid)

    def _record_peak(self) -> None:
        if self.peaks is not None:
            self.peaks.append(self.server.peak_rss_mib())
            sut.reset_peak_rss(self.server.proc.pid)

    def fetch(self, query: Dict[str, Any], tier: str) -> Optional[Tuple[float, bytes]]:
        """GET ``query``; returns ``(latency ms, body)`` or ``None`` on a
        transport failure or a non-200 / wrong-tier answer (counted)."""
        self.result.attempted += 1
        start = time.perf_counter()
        try:
            status, headers, body = self.server.get(gen.query_path(query))
        except Exception as exc:  # timeout, reset, refused, bad status line
            self.result.fail(f"{query['kind']} n={query['n']}: {type(exc).__name__}: {exc}")
            return None
        latency = (time.perf_counter() - start) * 1e3
        self._record_peak()
        if status != 200:
            self.result.fail(f"{query['kind']} n={query['n']}: HTTP {status}: {body[:200]!r}")
            return None
        if headers.get("x-repro-cache") != tier:
            self.result.fail(f"{query['kind']} n={query['n']}: served from "
                             f"{headers.get('x-repro-cache')!r}, workload needs {tier!r}")
            return None
        return latency, body

    def compute(self, query: Dict[str, Any]) -> Optional[Tuple[float, bytes]]:
        """A cold request whose payload is checked against the references."""
        got = self.fetch(query, "computed")
        if got is not None:
            problems = gen.check_estimate(query, json.loads(got[1]))
            if problems:
                self.result.fail(f"{query['kind']} n={query['n']}: {'; '.join(problems)}")
                return None
        return got


def _spawn_timings(count: int) -> List[float]:
    """Spawn-to-healthz of ``count`` throwaway servers on empty stores."""
    timings = []
    for _ in range(count):
        server = sut.Server(sut.scratch("setup-store"))
        timings.append(server.setup_s)
        server.stop()
    return timings


def _service_metrics(result: Result, latencies: List[float], wall_s: float,
                     cpu_ms: Tuple[float, int], peaks: List[float], setup: List[float],
                     passes: List[float]) -> None:
    """``cpu_ms`` is (CPU ms per request, the sample count behind it);
    ``peaks`` the server's peak RSS during each request, whose p90 is
    reported: the peak memory nine requests in ten stay under."""
    count = len(latencies)
    p50, p90 = percentiles(latencies)
    result.put("setup_s", statistics.median(setup), "s", len(setup))
    result.put("latency_p50_ms", p50, "ms", count)
    result.put("latency_p90_ms", p90, "ms", count)
    result.put("throughput_rps", count / wall_s, "1/s", count)
    result.put("cpu_ms_per_op", cpu_ms[0], "ms", cpu_ms[1])
    result.put("sweep_s", statistics.median(passes), "s", len(passes))
    result.put("peak_rss_mb", quantile(peaks, 0.9), "MiB", len(peaks))


def _enough(elapsed: float, seconds: float, samples: int) -> bool:
    return (elapsed >= seconds and samples >= MIN_SAMPLES) or elapsed >= HARD_STOP_S


def estimate_cold(seed: int, seconds: float) -> Result:
    """Every request a distinct spec on a fresh store: all computed.

    The measured phase is whole blocks of the generator's Latin design
    (every builder at every size stratum once), in groups of
    :data:`MIN_BLOCKS` until ``seconds`` of measuring have passed, each
    block on a freshly started server and store.
    """
    result = Result()
    setup = _spawn_timings(SETUP_SPAWNS - MIN_BLOCKS)
    rounds = gen.request_rounds(seed, warmups=WARMUPS)
    warmups = next(rounds)
    queries: List[Dict[str, Any]] = []
    latencies: List[float] = []
    passes: List[float] = []
    peaks: List[float] = []
    cpu = measured = 0.0
    blocks = 0
    while not blocks or blocks % MIN_BLOCKS or not _enough(measured, seconds, len(latencies)):
        server = sut.Server(sut.scratch("cold-store"))
        setup.append(server.setup_s)
        client = Client(server, result)
        for query in warmups:  # lazy imports of every builder; not measured
            client.compute(query)
        client.track_peaks(peaks)
        sent = len(queries)
        cpu0, start = server.cpu_s(), time.perf_counter()
        for _ in range(BLOCK_ROUNDS):
            round_time = 0.0
            for query in next(rounds):
                queries.append(query)
                got = client.compute(query)
                if got is not None:
                    latencies.append(got[0])
                    round_time += got[0] / 1e3
            passes.append(round_time)
        measured += time.perf_counter() - start
        cpu += server.cpu_s() - cpu0
        blocks += 1
        status, _, body = server.get("/statsz")
        server.stop()
        computed = json.loads(body)["cache"]["result_tier"]["misses"] if status == 200 else -1
        expected = len(queries) - sent + len(warmups)
        if computed != expected:
            result.errors.append(f"store computed {computed} results for {expected} "
                                 "distinct requests: not all cold")
    if latencies:
        _service_metrics(result, latencies, measured, (cpu * 1e3 / len(latencies),
                                                       len(latencies)),
                         peaks, setup, passes)
    result.extra.update(queries=queries, blocks=blocks)
    return result


def _prime(client: Client, keys: List[Dict[str, Any]]) -> Dict[str, bytes]:
    """Compute every key once (checked); returns the bytes to expect."""
    recorded = {}
    for query in keys:
        got = client.compute(query)
        if got is not None:
            recorded[gen.query_key(query)] = got[1]
    return recorded


def _replay_pass(client: Client, keys: List[Dict[str, Any]], recorded: Dict[str, bytes],
                 tier: str, rng: random.Random, latencies: List[float]) -> float:
    """One pass over the key set in a fresh shuffled order; returns the
    pass's summed latency in seconds."""
    order = keys[:]
    rng.shuffle(order)
    total = 0.0
    for query in order:
        got = client.fetch(query, tier)
        if got is None:
            continue
        if got[1] != recorded.get(gen.query_key(query)):
            client.result.fail(f"{query['kind']} n={query['n']}: {tier} bytes differ "
                               "from the computed response")
            continue
        latencies.append(got[0])
        total += got[0] / 1e3
    return total


def _primed_store(seed: int, result: Result) -> Tuple[Path, List[Dict[str, Any]],
                                                   Dict[str, bytes], Client]:
    """Setup of the hot and disk workloads: :data:`KEY_SET` estimates
    computed (and checked) into a fresh store by a server that is then
    stopped, so the measured servers never computed anything."""
    store = sut.scratch("keyed-store")
    server = sut.Server(store)
    client = Client(server, result)
    keys = gen.request_set(seed, KEY_SET)
    recorded = _prime(client, keys)
    server.stop()
    return store, keys, recorded, client


def estimate_hot(seed: int, seconds: float) -> Result:
    """A few dozen estimates computed in setup and loaded once into a
    fresh server's memory tier; every measured request is then a memory
    hit that must repeat the computed bytes exactly."""
    result = Result()
    store, keys, recorded, client = _primed_store(seed, result)
    setup = _spawn_timings(SETUP_SPAWNS - 1)
    server = sut.Server(store)
    setup.append(server.setup_s)
    client.server = server
    rng = random.Random(seed ^ 0x5EED)
    _replay_pass(client, keys, recorded, "disk", rng, [])  # promote; not measured
    latencies: List[float] = []
    passes: List[float] = []
    cpus: List[float] = []
    peaks: List[float] = []
    client.track_peaks(peaks)
    start = time.perf_counter()
    while not _enough(time.perf_counter() - start, seconds, len(latencies)):
        cpu0 = server.cpu_s(ended=False)
        passes.append(_replay_pass(client, keys, recorded, "memory", rng, latencies))
        cpus.append((server.cpu_s(ended=False) - cpu0) * 1e3 / len(keys))
    wall = time.perf_counter() - start
    server.stop()
    if latencies:
        _service_metrics(result, latencies, wall, (statistics.median(cpus), len(cpus)), peaks,
                         setup, passes)
    result.extra.update(queries=keys)
    return result


def estimate_disk(seed: int, seconds: float) -> Result:
    """Estimates computed into a store in setup; the server is then
    restarted over it again and again and every entry touched once per
    restart, so each measured request is a disk-tier hit."""
    result = Result()
    store, keys, recorded, client = _primed_store(seed, result)
    rng = random.Random(seed ^ 0xD15C)
    latencies: List[float] = []
    passes: List[float] = []
    setup: List[float] = []
    cpus: List[float] = []
    peaks: List[float] = []
    start = time.perf_counter()
    while not _enough(time.perf_counter() - start, seconds, len(latencies)):
        server = sut.Server(store)
        setup.append(server.setup_s)
        client.server = server
        client.track_peaks(peaks)
        cpu0 = server.cpu_s(ended=False)
        passes.append(_replay_pass(client, keys, recorded, "disk", rng, latencies))
        cpus.append((server.cpu_s(ended=False) - cpu0) * 1e3 / len(keys))
        server.stop()
    if latencies:
        _service_metrics(result, latencies, sum(passes), (statistics.median(cpus), len(cpus)),
                         peaks, setup, passes)
    result.extra.update(queries=keys, restarts=len(setup))
    return result


def _sweep_args(out: Path, *extra: str) -> List[str]:
    return ["-m", "repro.pipeline", "--sizes", *SWEEP_SIZES, "--out", str(out), *extra]


def sweep(seed: int, seconds: float) -> Result:
    """``python -m repro.pipeline`` over all six tables, sizes 8..128,
    default modexp rows and workers, from spawn to ``tables.json``.

    The seed only varies the sweep seed (the Monte-Carlo streams); the
    configuration is the batch user's fixed one.
    """
    result = Result()
    setup = []
    for _ in range(SETUP_SPAWNS + 2):
        code, wall, _, _ = sut.run_cli(["-m", "repro.pipeline", "--help"], SWEEP_TIMEOUT_S)
        if code:
            result.errors.append(f"--help exited {code}")
            return result
        setup.append(wall)
    sweep_seed = str(seed % (1 << 31))
    ref_dir = sut.scratch("sweep-ref")
    code, _, _, _ = sut.run_cli(_sweep_args(ref_dir, "--workers", "0", "--seed", sweep_seed),
                                2 * SWEEP_TIMEOUT_S)
    if code:
        result.errors.append(f"serial reference sweep exited {code}")
        return result
    reference = json.loads((ref_dir / "tables.json").read_text())
    result.errors += [f"reference: {e}" for e in gen.check_artifact(reference)[:10]]
    walls: List[float] = []
    cpus: List[float] = []
    rss: List[float] = []
    task_ms: List[float] = []
    tasks = 0
    start = time.perf_counter()
    while (len(walls) < MIN_SWEEPS or time.perf_counter() - start < seconds) \
            and time.perf_counter() - start < HARD_STOP_S - SWEEP_TIMEOUT_S:
        out = sut.scratch("sweep-out")
        result.attempted += 1
        code, wall, cpu, maxrss = sut.run_cli(_sweep_args(out, "--seed", sweep_seed),
                                              SWEEP_TIMEOUT_S)
        if code:
            result.fail(f"sweep exited {code}")
            continue
        artifact = json.loads((out / "tables.json").read_text())
        report = json.loads((out / "run_report.json").read_text())
        if not gen.same_artifact(artifact, reference):
            result.fail("tables.json differs from the serial reference")
            continue
        bad = [t["key"] for t in report["tasks"] if t["status"] != "ok"] + \
            [f["key"] for f in report["failures"]]
        if bad:
            result.fail(f"tasks not ok: {bad[:5]}")
            continue
        walls.append(wall)
        cpus.append(cpu)
        rss.append(maxrss)
        tasks += len(report["tasks"])
        task_ms += [t["elapsed"] * 1e3 for t in report["tasks"]]
    if walls:
        p50, p90 = percentiles(task_ms)
        result.put("setup_s", statistics.median(setup), "s", len(setup))
        result.put("latency_p50_ms", p50, "ms", len(task_ms))
        result.put("latency_p90_ms", p90, "ms", len(task_ms))
        result.put("throughput_rps", tasks / sum(walls), "1/s", tasks)
        result.put("cpu_ms_per_op", sum(cpus) * 1e3 / tasks, "ms", tasks)
        result.put("sweep_s", statistics.median(walls), "s", len(walls))
        result.put("peak_rss_mb", statistics.median(rss), "MiB", len(rss))
    result.extra.update(sweeps=len(walls), tasks=tasks)
    return result


WORKLOADS = {
    "estimate-cold": estimate_cold,
    "estimate-hot": estimate_hot,
    "estimate-disk": estimate_disk,
    "sweep": sweep,
}
