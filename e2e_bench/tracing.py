"""The traced run: per-layer times and counts, from the benchmark's own files.

Nothing under ``src/`` is edited.  :class:`Tracer` wraps the public
functions at each layer boundary (see :data:`TARGETS`) for the duration of
a pass and records one span per call — name, start, end, parent span and
request id — in memory; the spans are written to
``.e2e_bench/results/spans-<workload>-seed<seed>.jsonl`` at the end.  A
layer's self time is its span time minus the time of the spans it caused.

Each workload replays its generated inputs twice in this process: once
untraced and once traced, on equally fresh state.  The difference of the
two end-to-end times is reported as the tracing overhead.  On
``estimate-cold`` the two replays are interleaved request by request, on
two servers, so the difference is paired and a drift of the host's speed
cancels.  The service runs in a thread of this process (so its spans are
visible here) and the sweep's layer split comes from ``run_sweep`` with
``workers=0``.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import random
import statistics
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

import gen
import sut
import workloads

if str(sut.SRC) not in sys.path:
    sys.path.insert(0, str(sut.SRC))

#: Share of ``--seconds`` each of the two passes of a service workload gets.
PASS_SHARE = 0.4


def _tier(tracer: "Tracer", result: Any, args, kwargs) -> None:
    tracer.counts[f"tier.{result[1]}"] += 1


def _bytes_out(tracer: "Tracer", result: Any, args, kwargs) -> None:
    tracer.samples["response_bytes"].append(len(result) + 1)  # + the newline


def _bytes_written(tracer: "Tracer", result: Any, args, kwargs) -> None:
    tracer.samples["bytes_written"].append(result.stat().st_size)


def _instructions(tracer: "Tracer", result: Any, args, kwargs) -> None:
    tracer.samples["instructions"].append(len(result.instructions))


def _fused_runs(tracer: "Tracer", result: Any, args, kwargs) -> None:
    tracer.samples["fused_runs"].append(result.fusion_stats()["runs"])


def _source_lines(tracer: "Tracer", result: Any, args, kwargs) -> None:
    source = getattr(result, "__fused_source__", None) or getattr(result, "__vector_source__", "")
    tracer.samples["source_lines"].append(source.count("\n"))


def _choice(tracer: "Tracer", result: Any, args, kwargs) -> None:
    tracer.counts[f"choice.{result}"] += 1


#: (module, attribute path, span name, post-call recorder).  ``root``
#: spans start a request and carry its id to every span below them.
TARGETS: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("repro.service.http", "ReproRequestHandler.do_GET", "service.http", None),
    ("repro.service.http", "ReproRequestHandler._send", "service.http.send", None),
    ("repro.service.api", "EstimateRequest.from_mapping", "service.api.parse", None),
    ("repro.service.api", "EstimateRequest.fingerprint", "service.api.parse", None),
    ("repro.service.api", "canonical_json", "service.api.serialize", _bytes_out),
    ("repro.service.api", "compute_estimate", "service.api.compute", None),
    ("repro.service.store", "PersistentCircuitCache.result", "service.store.lookup", _tier),
    ("repro.service.store", "PersistentCircuitCache.load_result", "service.store.load", None),
    ("repro.service.store", "PersistentCircuitCache.store_result", "service.store.write",
     _bytes_written),
    ("repro.pipeline.cache", "build_spec", "pipeline.cache.build", None),
    ("repro.arithmetic.builders", "Built.counts", "circuits.counts", None),
    ("repro.transform.compile", "compile_program", "transform.compile", _instructions),
    ("repro.transform.compile", "fuse_program", "transform.fuse", _fused_runs),
    ("repro.sim.kernels", "build_kernel", "sim.kernels.gen", _source_lines),
    ("repro.sim.kernels", "build_vector_kernel", "sim.kernels.gen", _source_lines),
    ("repro.sim.dispatch.cost", "CostModel.choose", "sim.dispatch.choose", _choice),
    ("repro.sim.dispatch", "ShardPool.__init__", "sim.dispatch.shardpool", None),
    ("repro.sim.dispatch", "ShardPool.run", "sim.dispatch.shardpool", None),
    ("repro.sim.dispatch", "ShardPool.close", "sim.dispatch.shardpool", None),
    ("repro.sim.bitplane", "BitplaneSimulator.run_compiled", "sim.bitplane.run", None),
    ("repro.pipeline.montecarlo", "mc_expected_counts", "pipeline.montecarlo", None),
    ("repro.pipeline.runner", "run_sweep", "pipeline.runner", None),
    ("repro.pipeline.artifacts", "sweep_artifact", "pipeline.artifacts", None),
    ("repro.pipeline.artifacts", "write_artifact", "pipeline.artifacts", None),
    ("repro.pipeline.artifacts", "run_report", "pipeline.artifacts", None),
    ("repro.pipeline.artifacts", "write_run_report", "pipeline.artifacts", None),
)
ROOT_SPAN = "service.http"

Span = Tuple[int, str, float, float, Optional[int], Optional[int]]


class Tracer:
    """In-memory spans plus counters, installed by patching :data:`TARGETS`."""

    def __init__(self) -> None:
        self.spans: List[Span] = []  # (id, name, start, end, parent, request)
        self.counts: Dict[str, int] = defaultdict(int)
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self.missing: List[str] = []
        self.wrapper_s: List[float] = []
        self._ids = itertools.count(1)
        self._requests = itertools.count(1)
        self._local = threading.local()
        self._undo: List[Tuple[Any, str, Any]] = []

    def _wrap(self, name: str, fn: Callable, after: Optional[Callable]) -> Callable:
        tracer, root = self, name == ROOT_SPAN

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            entered = time.perf_counter()
            local = tracer._local
            stack = local.__dict__.setdefault("stack", [])
            if root:
                local.request = next(tracer._requests)
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append((span_id, name, start, end, parent,
                                     getattr(local, "request", None)))
                if root:
                    local.request = None
            if after is not None:
                after(tracer, result, args, kwargs)
            # the wrapper's own time, outside the span and charged to its parent
            tracer.wrapper_s.append(time.perf_counter() - entered - (end - start))
            return result

        return traced

    def install(self) -> None:
        for module_name, path, name, after in TARGETS:
            try:
                module = importlib.import_module(module_name)
                *owners, attr = path.split(".")
                owner = functools.reduce(getattr, owners, module)
                raw = owner.__dict__[attr] if owners else getattr(module, attr)
            except (ImportError, AttributeError, KeyError):
                if f"{module_name}.{path}" not in self.missing:
                    self.missing.append(f"{module_name}.{path}")
                continue
            if isinstance(raw, classmethod):
                self._set(owner, attr, classmethod(self._wrap(name, raw.__func__, after)))
            elif owners:
                self._set(owner, attr, self._wrap(name, raw, after))
            else:  # a function: replace it wherever it was imported by name
                wrapped = self._wrap(name, raw, after)
                for mod in list(sys.modules.values()):
                    if getattr(mod, "__name__", "").startswith("repro"):
                        for key, value in list(vars(mod).items()):
                            if value is raw:
                                self._set(mod, key, wrapped)

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def layers(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, total (inclusive) and self seconds."""
        child: Dict[Optional[int], float] = defaultdict(float)
        for _, _, start, end, parent, _ in self.spans:
            child[parent] += end - start
        out: Dict[str, Dict[str, float]] = defaultdict(lambda: {"calls": 0, "total": 0.0, "self": 0.0})
        for span_id, name, start, end, _, _ in self.spans:
            row = out[name]
            row["calls"] += 1
            row["total"] += end - start
            row["self"] += end - start - child[span_id]
        return out

    def dump(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for span_id, name, start, end, parent, request in self.spans:
                fh.write(json.dumps({"id": span_id, "name": name, "start": start, "end": end,
                                     "parent": parent, "request": request}) + "\n")


class InProcessServer(sut.Endpoint):
    """``repro.service.serve`` on a thread of this process."""

    def __init__(self, store) -> None:
        from repro.service import serve

        self.httpd = serve(port=0, store=str(store))
        self.port = self.httpd.server_address[1]
        self.thread = threading.Thread(target=self.httpd.serve_forever, daemon=True)
        self.thread.start()

    @property
    def cache(self):
        return self.httpd.state.cache

    def stop(self) -> None:
        self.close_conn()
        self.httpd.shutdown()
        self.httpd.server_close()
        self.httpd.state.jobs.shutdown()
        self.thread.join(timeout=10)


def _ratio(hits: int, misses: int) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def _cache_delta(before: Dict[str, Any], after: Dict[str, Any]) -> Tuple[float, float]:
    d = {k: after[k] - before[k] for k in ("hits", "misses", "program_hits", "program_misses")}
    return _ratio(d["hits"], d["misses"]), _ratio(d["program_hits"], d["program_misses"])


def _mean(values: List[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def _layer_metrics(result: workloads.Result, tracer: Tracer, ops: int) -> None:
    """The per-layer metrics every workload reports (0 where a layer does
    not run); times are milliseconds per operation."""
    layers = tracer.layers()

    def ms(name: str, key: str = "self") -> float:
        return layers[name][key] * 1e3 / ops if name in layers else 0.0

    put = result.put
    put("service.http.handler_ms", ms("service.http", "total"), "ms", ops)
    put("service.http.self_ms", ms("service.http"), "ms", ops)
    put("service.http.send_ms", ms("service.http.send"), "ms", ops)
    put("service.api.parse_ms", ms("service.api.parse"), "ms", ops)
    put("service.api.serialize_ms", ms("service.api.serialize"), "ms", ops)
    put("service.api.compute_ms", ms("service.api.compute"), "ms", ops)
    put("service.api.response_bytes", _mean(tracer.samples["response_bytes"]), "B",
        len(tracer.samples["response_bytes"]))
    for tier, metric in (("memory", "memory_hits"), ("disk", "disk_hits"),
                         ("computed", "computed")):
        put(f"service.store.{metric}", tracer.counts[f"tier.{tier}"], "count", ops)
    put("service.store.lookup_ms", ms("service.store.lookup"), "ms", ops)
    put("service.store.load_ms", ms("service.store.load"), "ms", ops)
    put("service.store.write_ms", ms("service.store.write"), "ms", ops)
    put("service.store.bytes_written", sum(tracer.samples["bytes_written"]) / ops, "B", ops)
    put("pipeline.cache.build_ms", ms("pipeline.cache.build"), "ms", ops)
    put("circuits.counts.counts_ms", ms("circuits.counts"), "ms", ops)
    put("transform.compile.compile_ms", ms("transform.compile"), "ms", ops)
    put("transform.compile.fuse_ms", ms("transform.fuse"), "ms", ops)
    put("transform.compile.instructions", _mean(tracer.samples["instructions"]), "count",
        len(tracer.samples["instructions"]))
    put("transform.compile.fused_runs", _mean(tracer.samples["fused_runs"]), "count",
        len(tracer.samples["fused_runs"]))
    put("sim.kernels.gen_ms", ms("sim.kernels.gen"), "ms", ops)
    put("sim.kernels.source_lines", _mean(tracer.samples["source_lines"]), "count",
        len(tracer.samples["source_lines"]))
    put("sim.dispatch.choose_ms", ms("sim.dispatch.choose"), "ms", ops)
    for backend in ("codegen", "sharded"):
        put(f"sim.dispatch.choice.{backend}", tracer.counts[f"choice.{backend}"], "count", ops)
    put("sim.dispatch.shardpool_ms", ms("sim.dispatch.shardpool"), "ms", ops)
    put("sim.bitplane.run_ms", ms("sim.bitplane.run"), "ms", ops)
    put("pipeline.montecarlo.mc_ms", ms("pipeline.montecarlo", "total"), "ms", ops)
    put("pipeline.montecarlo.self_ms", ms("pipeline.montecarlo"), "ms", ops)
    put("pipeline.runner.sweep_ms", ms("pipeline.runner", "total"), "ms", ops)
    put("pipeline.runner.self_ms", ms("pipeline.runner"), "ms", ops)
    put("pipeline.artifacts.write_ms", ms("pipeline.artifacts"), "ms", ops)
    put("trace.wrapper_ms", sum(tracer.wrapper_s) * 1e3 / ops, "ms", ops)
    result.extra["layers"] = {k: {"calls": v["calls"], "total_ms": v["total"] * 1e3,
                                  "self_ms": v["self"] * 1e3} for k, v in layers.items()}
    result.extra["choices"] = {k[7:]: v for k, v in tracer.counts.items()
                               if k.startswith("choice.")}
    for target in tracer.missing:  # a renamed layer must not read as a free one
        result.errors.append(f"trace target {target} not found: its layer is unmeasured")


def _span_escape_guard(result: workloads.Result, layers: Dict[str, Dict[str, float]]) -> None:
    """Every span of a service pass runs inside a request, so the layers'
    self times (the handler's own included) partition the handler time;
    a gap means a span escaped its request (e.g. to another thread)."""
    handler = layers[ROOT_SPAN]["total"]
    selfs = sum(row["self"] for row in layers.values())
    if abs(selfs - handler) > 1e-3 * handler:
        result.errors.append(f"span self times {selfs:.6f}s do not add up to handler "
                             f"time {handler:.6f}s")


def _handler_accounting(result: workloads.Result) -> None:
    """The traced layers account for the handler time to within the
    tracing overhead: what the handler spent outside every traced layer
    (``service.http.self_ms``) is at most the tracer's own time.

    The tracer's time is measured directly (``trace.wrapper_ms``: each
    wrapper's time outside its span), because the end-to-end difference
    ``trace.overhead_ms`` of cold requests carries a standard error of
    milliseconds (delayed-ACK stalls, ShardPool forks), ten times what the
    tracer costs; that difference is reported with its standard error."""
    unattributed = result.metrics["service.http.self_ms"][0]
    wrappers = result.metrics["trace.wrapper_ms"][0]
    if unattributed > wrappers:
        result.errors.append(
            f"handler time outside the traced layers {unattributed:.3f} ms/request exceeds "
            f"the tracer's own time {wrappers:.3f} ms/request: a layer is untraced")


def _service_trace(result: workloads.Result, tracer: Tracer, latencies_a: List[float],
                   latencies_b: List[float], ratios: Tuple[float, float], design: str) -> None:
    """Per-layer metrics of a service workload; ``latencies_a`` and
    ``latencies_b`` are the untraced and traced latencies of the same
    requests, in the same order."""
    ops = len(latencies_b)
    if not ops or len(latencies_a) != ops:
        result.errors.append(f"traced pass served {ops} of {len(latencies_a)} requests")
        return
    _layer_metrics(result, tracer, ops)
    handler = result.metrics["service.http.handler_ms"][0]
    result.put("service.http.transport_ms", _mean(latencies_b) - handler, "ms", ops)
    result.put("pipeline.cache.circuit_hit_ratio", ratios[0], "ratio", ops)
    result.put("pipeline.cache.program_hit_ratio", ratios[1], "ratio", ops)
    _sweep_placeholders(result, ops)
    _overhead(result, latencies_a, latencies_b)
    _span_escape_guard(result, tracer.layers())
    tiers = {t: tracer.counts[f"tier.{t}"] for t in ("memory", "disk", "computed")}
    if tiers != {t: ops if t == design else 0 for t in tiers}:
        result.errors.append(f"store tiers {tiers} do not match the design: all {design}")


def _sweep_placeholders(result: workloads.Result, ops: int) -> None:
    for name, unit in (("tasks", "count"), ("retries", "count"), ("task_ms_sum", "ms"),
                       ("worker_busy_ratio", "ratio")):
        result.put(f"pipeline.runner.{name}", 0, unit, ops)


def _overhead(result: workloads.Result, untraced_ms: List[float],
              traced_ms: List[float]) -> None:
    """Traced minus untraced end-to-end time per operation, from paired
    samples, with the standard error of that mean (0 with one pair)."""
    diffs = [b - a for a, b in zip(untraced_ms, traced_ms)]
    ops = len(diffs)
    error = statistics.stdev(diffs) / ops ** 0.5 if ops > 1 else 0.0
    result.put("trace.untraced_ms", _mean(untraced_ms), "ms", ops)
    result.put("trace.traced_ms", _mean(traced_ms), "ms", ops)
    result.put("trace.overhead_ms", _mean(diffs), "ms", ops)
    result.put("trace.overhead_se_ms", error, "ms", ops)


def _timed_pass(seconds: float, step: Callable[[], None]) -> int:
    """Repeat ``step`` for ``seconds`` (at least once); returns the count."""
    start, count = time.perf_counter(), 0
    while count == 0 or time.perf_counter() - start < seconds:
        step()
        count += 1
    return count


def trace_cold(seed: int, seconds: float, tracer: Tracer) -> workloads.Result:
    """Every query goes to two fresh in-process servers back to back:
    untraced to one, traced to the other (the tracer is installed for
    that request only), taking turns at going first, so each traced
    latency has an untraced twin measured under the same host speed."""
    result = workloads.Result()
    rounds = gen.request_rounds(seed, warmups=workloads.WARMUPS)
    warmups = next(rounds)
    servers = {traced: InProcessServer(sut.scratch("trace-cold-store")) for traced in (0, 1)}
    clients = {traced: workloads.Client(server, result) for traced, server in servers.items()}
    for query in warmups:  # lazy imports, outside the measurement
        for client in clients.values():
            client.compute(query)
    before = servers[1].cache.stats.as_dict()
    queries: List[Dict[str, Any]] = []
    latencies: Tuple[List[float], List[float]] = ([], [])

    def send(traced: int, query: Dict[str, Any]) -> Optional[float]:
        if traced:
            tracer.install()
        try:
            got = clients[traced].compute(query)
        finally:
            tracer.uninstall()
        return None if got is None else got[0]

    def step() -> None:
        for query in next(rounds):
            order = (0, 1) if len(queries) % 2 == 0 else (1, 0)
            queries.append(query)
            got = {traced: send(traced, query) for traced in order}
            if None not in got.values():
                for traced in (0, 1):
                    latencies[traced].append(got[traced])

    _timed_pass(2 * seconds * PASS_SHARE, step)
    ratios = _cache_delta(before, servers[1].cache.stats.as_dict())
    for server in servers.values():
        server.stop()
    _service_trace(result, tracer, latencies[0], latencies[1], ratios, "computed")
    if "trace.overhead_ms" in result.metrics:
        _handler_accounting(result)
    result.extra["requests"] = len(queries)
    return result


def _keyed_trace(seed: int, seconds: float, tracer: Tracer, restart: bool) -> workloads.Result:
    """Hot (``restart=False``: one server, memory hits) and disk
    (``restart=True``: a fresh server per pass, disk hits) traced runs."""
    result = workloads.Result()
    store = sut.scratch("trace-keyed-store")
    keys = gen.request_set(seed, workloads.KEY_SET)
    primer = InProcessServer(store)
    recorded = workloads._prime(workloads.Client(primer, result), keys)
    if restart:
        primer.stop()
    tier = "disk" if restart else "memory"

    def run_pass(repeats: Optional[int]) -> Tuple[List[float], int, Tuple[float, float]]:
        rng = random.Random(seed ^ 0x7ACE)
        latencies: List[float] = []
        totals: Dict[str, int] = defaultdict(int)

        def step() -> None:
            server = InProcessServer(store) if restart else primer
            before = server.cache.stats.as_dict()
            workloads._replay_pass(workloads.Client(server, result), keys, recorded, tier,
                                   rng, latencies)
            for key, value in server.cache.stats.as_dict().items():
                if isinstance(value, int):
                    totals[key] += value - before[key]
            if restart:
                server.stop()

        if repeats is None:
            repeats = _timed_pass(seconds * PASS_SHARE, step)
        else:
            tracer.install()
            try:
                for _ in range(repeats):
                    step()
            finally:
                tracer.uninstall()
        ratios = (_ratio(totals["hits"], totals["misses"]),
                  _ratio(totals["program_hits"], totals["program_misses"]))
        return latencies, repeats, ratios

    untraced, repeats, _ = run_pass(None)
    traced, _, ratios = run_pass(repeats)
    if not restart:
        primer.stop()
    _service_trace(result, tracer, untraced, traced, ratios, tier)
    result.extra.update(passes=repeats, keys=len(keys))
    return result


def trace_sweep(seed: int, seconds: float, tracer: Tracer) -> workloads.Result:
    from repro.pipeline import artifacts, runner

    result = workloads.Result()
    config = runner.SweepConfig(sizes=tuple(int(n) for n in workloads.SWEEP_SIZES),
                                seed=seed % (1 << 31), workers=0, modexp=((2, 4), (4, 8)))
    runner.run_sweep(config)  # first-call costs, outside both passes

    def one(traced: bool):
        out = sut.scratch("trace-sweep")
        if traced:
            tracer.install()
        start = time.perf_counter()
        try:  # the CLI's calls after argument parsing, through the (patched) modules
            swept = runner.run_sweep(config)
            artifacts.write_artifact(artifacts.sweep_artifact(swept), out)
            artifacts.write_run_report(artifacts.run_report(swept), out)
        finally:
            wall = time.perf_counter() - start
            tracer.uninstall()
        return swept, json.loads((out / "tables.json").read_text()), wall

    _, art_a, wall_a = one(traced=False)
    swept, art_b, wall_b = one(traced=True)
    result.attempted = 2
    for art in (art_a, art_b):
        problems = gen.check_artifact(art)
        if problems:
            result.fail("; ".join(problems[:5]))
    if not gen.same_artifact(art_a, art_b):
        result.fail("traced and untraced sweeps differ")
    _layer_metrics(result, tracer, 1)
    result.put("service.http.transport_ms", 0, "ms", 1)
    stats = swept.cache_stats
    result.put("pipeline.cache.circuit_hit_ratio", stats.get("circuit_hit_ratio", 0.0), "ratio", 1)
    result.put("pipeline.cache.program_hit_ratio", stats.get("program_hit_ratio", 0.0), "ratio", 1)
    reports = swept.task_reports
    result.put("pipeline.runner.tasks", len(reports), "count", 1)
    result.put("pipeline.runner.retries", sum(r["attempts"] - 1 for r in reports), "count", 1)
    result.put("pipeline.runner.task_ms_sum", sum(r["elapsed"] for r in reports) * 1e3, "ms", 1)
    # the busy ratio is a property of the pooled CLI run, not the serial one
    out = sut.scratch("trace-sweep-cli")
    code, _, _, _ = sut.run_cli(workloads._sweep_args(out, "--seed", str(config.seed)),
                                workloads.SWEEP_TIMEOUT_S)
    result.attempted += 1
    busy = 0.0
    if code:
        result.fail(f"CLI sweep exited {code}")
    else:
        report = json.loads((out / "run_report.json").read_text())
        workers = min(4, os.cpu_count() or 1)
        busy = sum(t["elapsed"] for t in report["tasks"]) / (workers * report["elapsed"])
        if not gen.same_artifact(json.loads((out / "tables.json").read_text()), art_a):
            result.fail("CLI sweep differs from the in-process sweep")
    result.put("pipeline.runner.worker_busy_ratio", busy, "ratio", 1)
    _overhead(result, [wall_a * 1e3], [wall_b * 1e3])
    return result


def run(workload: str, seed: int, seconds: float) -> workloads.Result:
    tracer = Tracer()
    if workload == "estimate-cold":
        result = trace_cold(seed, seconds, tracer)
    elif workload == "sweep":
        result = trace_sweep(seed, seconds, tracer)
    else:
        result = _keyed_trace(seed, seconds, tracer, restart=workload == "estimate-disk")
    tracer.dump(sut.RESULTS / f"spans-{workload}-seed{seed}.jsonl")
    result.extra["spans"] = len(tracer.spans)
    return result


def predict_choices(queries: List[Dict[str, Any]]) -> Dict[str, Any]:
    """What ``auto`` execution would pick for each query's Monte-Carlo run,
    from the program's own cost model (outside any timed phase).  Only
    batches that could shard need the compiled instruction count."""
    try:
        from repro.pipeline.cache import CircuitSpec, build_spec
        from repro.sim.dispatch.cost import default_model
        from repro.transform.compile import compile_program

        model = default_model()
        cores = os.cpu_count() or 1
        picks: Dict[str, int] = defaultdict(int)
        for query in queries:
            batch = query["mc_batch"]
            if model.effective_shards(batch, cores) < 2:
                picks["codegen"] += 1
                continue
            params = {k: v for k, v in query.items() if k not in ("kind", "n", "mc_batch")}
            built = build_spec(CircuitSpec.make(query["kind"], query["n"], **params))
            ops = len(compile_program(built.circuit, tally=True).instructions)
            picks[model.choose(ops=ops, batch=batch, tally=False, lane_counts=True,
                               candidates=("codegen", "sharded"))] += 1
        return dict(picks)
    except Exception as exc:  # the cost model may be gone in a later version
        return {"unavailable": f"{type(exc).__name__}: {exc}"}
