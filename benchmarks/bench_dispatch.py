"""The full backend ladder per grid point, plus the auto-dispatch check.

Two measurement layers, both written to ``benchmarks/BENCH_dispatch.json``:

* **Ladder level** — the MBU modular adder through every single-process
  strategy (interpretive walk, scalar compiled VM, fused codegen, legacy
  numpy arrays interpreter, generated numpy vector kernel) over an
  (n × batch × tally) grid with full-entropy register inputs, timing the
  execution step alone.  This is the grid the cost model behind
  ``backend="auto"`` is calibrated on: run with
  ``REPRO_DISPATCH_RECALIBRATE=1`` to refit and rewrite the checked-in
  ``src/repro/sim/dispatch/calibration.json`` (the rewrite is followed by
  a schema round-trip check: the file on disk must reparse to the exact
  nested key structure that was fitted).  Each point also records a
  ``schedule`` block — run-length histograms before/after the
  run-lengthening scheduler and the scheduled vector time — plus the
  per-state ``vector_speedup_vs_arrays`` headline metric.
* **Generation level** — the one-off work before a fused strategy can
  run: ``fuse_program`` and building each strategy's kernel (or, for
  ``arrays``, its plan), per grid point.  These samples fit the cost
  model's per-op ``generation`` coefficients.
* **Dispatch level** — the Monte-Carlo repetition workload (zero inputs,
  per-lane counters, random outcomes): the scalar VM and the fused
  codegen kernel, each as a one-shot estimate pays for it (the codegen
  time includes fusion and generation) — the comparison
  ``mc_expected_counts``'s ``execution="auto"`` actually decides — plus
  a persistent :class:`~repro.sim.dispatch.ShardPool` against the
  single-process codegen run it shards, with the measured parallel
  efficiency ``codegen / (sharded * shards)`` (sharding runs only when
  asked for by name).

Floors asserted by ``test_report_dispatch``:

* the model's pick is within ``AUTO_FACTOR`` of the best *measured*
  strategy on every grid point (the whole point of auto-selection), both
  for steady-state runs and for the one-shot Monte-Carlo estimate;
* the vector kernel beats the legacy arrays interpreter on every grid
  point (>= 2x at the large smoke point under ``BENCH_DISPATCH_SMOKE=1``
  — the CI perf-smoke floor);
* with >= 4 cores, sharded execution beats single-process codegen by
  >= 2x on the large tally-on case (skipped on smaller boxes — this
  repo's reference container has one core, where sharding is pure
  overhead and the cost model must simply never pick it).

Set ``BENCH_DISPATCH_SMOKE=1`` for the reduced CI configuration (small
grid, relaxed auto factor) — the ``perf-smoke`` CI job does.
"""

import os
import time
from pathlib import Path

import pytest

from _harness import (
    best_of,
    env_flag,
    power_inputs,
    prepared,
    spot_check_modadd,
    write_artifact,
)
from repro.modular import build_modadd
from repro.sim import RandomOutcomes, ShardPool
from repro.sim.dispatch.cost import CostModel, fit_calibration
from repro.sim.kernels import _build_arrays_plan, build_kernel, build_vector_kernel
from repro.transform import compile_program, fuse_program

SMOKE = env_flag("BENCH_DISPATCH_SMOKE")
RECALIBRATE = env_flag("REPRO_DISPATCH_RECALIBRATE")

CASES = (
    [(16, 1024), (64, 4096)]
    if SMOKE
    else [(n, batch) for n in (16, 64, 256) for batch in (1024, 8192, 65536)]
)
ROUNDS = 2 if SMOKE else 4
#: Measured seconds of the model's pick vs the best measured strategy.
AUTO_FACTOR = 2.0 if SMOKE else 1.2
MC_GATES = ("ccx", "ccz")

_RESULTS = {}
_SAMPLES = []


def _schema(obj, prefix=""):
    """The set of dotted key paths in a nested dict (leaf values ignored)."""
    keys = set()
    if isinstance(obj, dict):
        for k, v in obj.items():
            keys.add(prefix + str(k))
            keys |= _schema(v, prefix + str(k) + ".")
    return keys


def _best_seconds(fn, rounds):
    """Best-of wall clock of ``fn()`` (one-off work: a fresh call per round)."""
    times = []
    for _ in range(rounds):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


def _mc_sim(circuit, batch):
    from repro.sim import BitplaneSimulator

    return BitplaneSimulator(
        circuit, batch=batch, outcomes=RandomOutcomes(7), tally=False,
        lane_counts=MC_GATES,
    )


@pytest.mark.parametrize("n,batch", CASES)
def test_dispatch_grid(benchmark, n, batch):
    p = (1 << n) - 59
    built = build_modadd(n, p, "cdkpm", mbu=True)
    xs, ys = power_inputs(p, batch)

    programs = {}
    for tally in (False, True):
        prog = compile_program(built.circuit, tally=tally)
        fused = fuse_program(prog)
        fused.kernel(events=tally)
        fused.kernel(events=tally, kind="vector")
        programs[tally] = (prog, fused)

    def run_codegen():
        sim = prepared(built.circuit, batch, xs, ys)
        sim.run_compiled(programs[False][1])
        return sim

    sim = benchmark(run_codegen)
    spot_check_modadd(sim, xs, ys, p, batch)

    point = {"n": n, "batch": batch}
    for tally in (False, True):
        prog, fused = programs[tally]
        ops = len(prog)

        def mk():
            return prepared(built.circuit, batch, xs, ys, tally=tally)

        seconds = {
            "interpretive": best_of(mk, lambda s: s.run(), rounds=ROUNDS),
            "scalar": best_of(
                mk, lambda s: s.run_compiled(prog, fused=False), rounds=ROUNDS
            ),
            "codegen": best_of(
                mk, lambda s: s.run_compiled(fused), rounds=ROUNDS
            ),
            "arrays": best_of(
                mk, lambda s: s.run_compiled(fused, kernels="arrays"),
                rounds=ROUNDS,
            ),
            "vector": best_of(
                mk, lambda s: s.run_compiled(fused, kernels="vector"),
                rounds=ROUNDS,
            ),
        }
        state = "tally_on" if tally else "tally_off"
        point[state] = {
            "ops": ops,
            "seconds": dict(seconds),
            "vector_speedup_vs_arrays": seconds["arrays"] / seconds["vector"],
        }
        _SAMPLES.extend(
            {"backend": name, "ops": ops, "batch": batch, "tally": tally,
             "seconds": secs}
            for name, secs in seconds.items()
        )

    # Scheduler level: how much the run-lengthening scheduler widens the
    # vectorizable runs, and what that buys the vector kernel end to end.
    prog0, fused0 = programs[False]
    fused_sched = fuse_program(prog0, schedule=True)
    fused_sched.kernel(events=False, kind="vector")
    sched_seconds = best_of(
        lambda: prepared(built.circuit, batch, xs, ys, tally=False),
        lambda s: s.run_compiled(fused_sched, kernels="vector"),
        rounds=ROUNDS,
    )
    vec_seconds = point["tally_off"]["seconds"]["vector"]
    point["schedule"] = {
        "run_length_histogram": fused0.run_length_histogram(),
        "run_length_histogram_scheduled": fused_sched.run_length_histogram(),
        "vector_seconds": vec_seconds,
        "vector_scheduled_seconds": sched_seconds,
        "scheduled_speedup": vec_seconds / sched_seconds,
    }

    # Generation level: fusion plus kernel (or plan) building, one-off
    # work per program, timed on fresh fusions so nothing is cached.
    prog_t, fused_t = programs[True]
    ops_t = len(prog_t)
    generation = {
        "fuse": _best_seconds(
            lambda: fuse_program(prog_t, memoize=False), ROUNDS
        ),
        "codegen": _best_seconds(
            lambda: build_kernel(fused_t, events=True), ROUNDS
        ),
        "vector": _best_seconds(
            lambda: build_vector_kernel(fused_t, events=True), ROUNDS
        ),
        "arrays": _best_seconds(lambda: _build_arrays_plan(fused_t), ROUNDS),
    }
    point["generation"] = {"ops": ops_t, "seconds": dict(generation)}
    _SAMPLES.extend(
        {"generation": name, "ops": ops_t, "seconds": secs}
        for name, secs in generation.items()
    )

    # Dispatch level: the MC repetition workload (what execution="auto"
    # decides) — per-lane counters, zero register inputs.
    cores = os.cpu_count() or 1
    shards = max(2, min(cores, batch // 512))
    mc_scalar = best_of(
        lambda: _mc_sim(built.circuit, batch),
        lambda s: s.run_compiled(prog_t, fused=False),
        rounds=ROUNDS,
    )
    mc_codegen = best_of(
        lambda: _mc_sim(built.circuit, batch),
        lambda s: s.run_compiled(fused_t),
        rounds=ROUNDS,
    )
    one_shot = {
        "scalar": mc_scalar,
        "codegen": generation["fuse"] + generation["codegen"] + mc_codegen,
    }
    with ShardPool(
        fused_t, batch=batch, shards=shards, tally=False,
        lane_counts=MC_GATES,
    ) as pool:
        pool.run(outcomes=RandomOutcomes(7))  # warm workers + kernels
        times = []
        for _ in range(ROUNDS):
            t0 = time.perf_counter()
            pool.run(outcomes=RandomOutcomes(7))
            times.append(time.perf_counter() - t0)
    mc_sharded = min(times)
    efficiency = mc_codegen / (mc_sharded * shards)
    point["mc_workload"] = {
        "gates": list(MC_GATES),
        "ops": ops_t,
        "shards": shards,
        "cores": cores,
        "one_shot_seconds": one_shot,
        "scalar_seconds": mc_scalar,
        "codegen_seconds": mc_codegen,
        "sharded_seconds": mc_sharded,
        "sharded_speedup": mc_codegen / mc_sharded,
        "parallel_efficiency": efficiency,
    }
    if cores >= shards:
        # Only cores-backed shards inform the fitted parallel efficiency:
        # a 1-core box times GIL contention, not parallel speedup.
        _SAMPLES.append({
            "backend": "sharded", "ops": len(prog_t), "batch": batch,
            "tally": False, "shards": shards, "seconds": mc_sharded,
            "codegen_seconds": mc_codegen,
        })
    _RESULTS[f"n{n}_B{batch}"] = point


def test_report_dispatch(benchmark, capsys):
    from conftest import print_once

    if not _RESULTS:  # grid cases filtered out (-k/-x): keep old JSON
        benchmark.pedantic(lambda: None, rounds=1, iterations=1)
        return
    cores = os.cpu_count() or 1
    table = fit_calibration(_SAMPLES)
    model = CostModel(table)
    if RECALIBRATE:
        cal_path = (
            Path(__file__).parents[1]
            / "src" / "repro" / "sim" / "dispatch" / "calibration.json"
        )
        import json

        cal_path.write_text(json.dumps(table, indent=2) + "\n")
        # Schema round-trip: the file just written must reparse to the
        # exact nested key structure that was fitted — a partial write or
        # a fit that dropped a backend would ship a table default_model()
        # cannot serve every strategy from.
        reloaded = json.loads(cal_path.read_text())
        assert _schema(reloaded) == _schema(table), (
            "calibration.json round-trip changed the key structure: "
            f"{sorted(_schema(reloaded) ^ _schema(table))}"
        )
        from repro.sim.strategies import LADDER

        assert set(reloaded["backends"]) >= set(LADDER), (
            "refit calibration is missing ladder backends: "
            f"{sorted(set(LADDER) - set(reloaded['backends']))}"
        )

    # Auto-dispatch quality: on every grid point the freshly fit model's
    # pick must be within AUTO_FACTOR of the best measured strategy.
    auto = {}
    for key, point in _RESULTS.items():
        for state in ("tally_off", "tally_on"):
            seconds = point[state]["seconds"]
            choice = model.choose(
                ops=point[state]["ops"], batch=point["batch"],
                tally=(state == "tally_on"), cores=cores,
                candidates=tuple(seconds),
            )
            best_name = min(seconds, key=seconds.get)
            factor = seconds[choice] / seconds[best_name]
            auto[f"{key}_{state}"] = {
                "choice": choice, "best": best_name, "factor": factor,
            }
            point[state]["auto_choice"] = choice
            point[state]["auto_factor"] = factor
        # The one-shot Monte-Carlo estimate: generation priced in.
        mc = point["mc_workload"]
        seconds = mc["one_shot_seconds"]
        choice = model.choose(
            ops=mc["ops"], batch=point["batch"], tally=True, lane_counts=True,
            candidates=tuple(seconds), repeats=1,
        )
        best_name = min(seconds, key=seconds.get)
        factor = seconds[choice] / seconds[best_name]
        auto[f"{key}_mc_one_shot"] = {
            "choice": choice, "best": best_name, "factor": factor,
        }
        mc["auto_choice"] = choice
        mc["auto_factor"] = factor

    payload = {
        "benchmark": "dispatch_ladder_and_auto_selection",
        "circuit": "modadd[cdkpm, mbu=True]",
        "smoke": SMOKE,
        "cores": cores,
        "auto_factor_bar": AUTO_FACTOR,
        "results": _RESULTS,
        "calibration": table,
    }
    out_path = write_artifact(__file__, "BENCH_dispatch.json", payload)

    lines = ["Backend ladder + dispatch (seconds, best-of, tally on):"]
    for key, point in _RESULTS.items():
        secs = point["tally_on"]["seconds"]
        mc = point["mc_workload"]
        lines.append(
            f"  {key:11s} "
            + "  ".join(f"{name}={secs[name]*1e3:8.2f}ms" for name in secs)
            + f"  auto->{point['tally_on']['auto_choice']}"
            f" ({point['tally_on']['auto_factor']:.2f}x of best)"
        )
        lines.append(
            f"  {'':11s} mc one-shot: scalar="
            f"{mc['one_shot_seconds']['scalar']*1e3:8.2f}ms  "
            f"codegen+gen={mc['one_shot_seconds']['codegen']*1e3:8.2f}ms  "
            f"auto->{mc['auto_choice']} ({mc['auto_factor']:.2f}x of best)"
        )
        lines.append(
            f"  {'':11s} mc: codegen={mc['codegen_seconds']*1e3:8.2f}ms  "
            f"sharded[{mc['shards']}]={mc['sharded_seconds']*1e3:8.2f}ms  "
            f"speedup={mc['sharded_speedup']:.2f}x  "
            f"efficiency={mc['parallel_efficiency']:.2f}"
        )
        sched = point["schedule"]
        lines.append(
            f"  {'':11s} vector vs arrays="
            f"{point['tally_on']['vector_speedup_vs_arrays']:.2f}x  "
            f"scheduled vector={sched['vector_scheduled_seconds']*1e3:8.2f}ms"
            f" ({sched['scheduled_speedup']:.2f}x of unscheduled)"
        )
    lines.append(f"  -> {out_path.name}")
    print_once(benchmark, capsys, "\n".join(lines))

    for key, row in auto.items():
        assert row["factor"] <= AUTO_FACTOR, (
            f"{key}: auto picked {row['choice']} at {row['factor']:.2f}x of "
            f"best ({row['best']}), above the {AUTO_FACTOR}x bar"
        )
    # Vector floor: the generated kernel must beat the arrays interpreter
    # it replaces on every grid point, and by >= 2x at the large smoke
    # point (the CI perf-smoke floor — small batches are where the plan
    # interpreter's per-run dispatch overhead hurts most).
    for key, point in _RESULTS.items():
        for state in ("tally_off", "tally_on"):
            speedup = point[state]["vector_speedup_vs_arrays"]
            assert speedup > 1.0, (
                f"{key}/{state}: vector kernel at {speedup:.2f}x of arrays "
                "— the generated kernel must beat the interpreter it replaces"
            )
    if SMOKE and "n64_B4096" in _RESULTS:
        speedup = _RESULTS["n64_B4096"]["tally_on"]["vector_speedup_vs_arrays"]
        assert speedup >= 2.0, (
            f"smoke floor: vector {speedup:.2f}x of arrays at n64_B4096, "
            "below the 2x perf-smoke bar"
        )
    # Parallel speedup floor: only meaningful with real cores to shard
    # across (the 1-core reference container times pure overhead here —
    # there the cost model's job is to never pick sharded, which the
    # auto-factor bar above already enforces).
    key = "n256_B8192"
    if cores >= 4 and not SMOKE and key in _RESULTS:
        speedup = _RESULTS[key]["mc_workload"]["sharded_speedup"]
        assert speedup >= 2.0, (
            f"{key}: sharded speedup {speedup:.2f}x below the 2x floor "
            f"on a {cores}-core host"
        )
