"""Lane-sharded dispatch: exact merge semantics and the cost model.

The dispatch layer's headline property is *shard-count independence*:
because every shard draws full-width outcome masks and keeps only its
lane window (``SlicedOutcomes``), a sharded run is bit-identical to the
single-process compiled run for every shard count, executor kind and
batch size — divisible or not.  These tests pin that property across
registers, classical bits, aggregate tallies, per-lane counters and
outcome-stream consumption, plus the validation surface (S1) and the
calibrated cost model behind ``backend="auto"``.
"""

import json
import os
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import pytest

from repro.modular import build_modadd
from repro.pipeline import derive_seed, mc_expected_counts
from repro.sim import (
    BitplaneSimulator,
    ConstantOutcomes,
    ForcedOutcomes,
    RandomOutcomes,
    ShardPool,
    available_backends,
    program_is_flat,
    run_sharded,
    shard_ranges,
    simulate,
)
from repro.sim.dispatch import MIN_SHARD_LANES, SlicedOutcomes, clone_provider
from repro.sim.dispatch.cost import (
    DEFAULT_CALIBRATION,
    CostModel,
    default_model,
    fit_calibration,
    load_calibration,
)
from repro.transform import apply_transforms, compile_program, fuse_program

LANE_GATES = ("x", "cx", "ccx")


@pytest.fixture(scope="module")
def built():
    return build_modadd(4, 13, "cdkpm", mbu=True)


@pytest.fixture(scope="module")
def program(built):
    return fuse_program(compile_program(built.circuit, tally=True))


def _inputs(batch, p=13):
    return {
        "x": [pow(3, i + 1, p) for i in range(batch)],
        "y": [pow(5, i + 1, p) for i in range(batch)],
    }


def _single_run(built, inputs, batch, outcomes):
    sim = BitplaneSimulator(
        built.circuit, batch=batch, outcomes=outcomes, tally=True,
        lane_counts=LANE_GATES,
    )
    for name, values in inputs.items():
        sim.set_register(name, values)
    sim.run_compiled()
    return sim


class TestShardRanges:
    def test_partition_covers_every_lane_in_order(self):
        for batch, shards in [(8, 1), (8, 2), (37, 3), (37, 7), (64, 5)]:
            ranges = shard_ranges(batch, shards)
            assert len(ranges) == shards
            flat = [i for lo, hi in ranges for i in range(lo, hi)]
            assert flat == list(range(batch))
            widths = [hi - lo for lo, hi in ranges]
            assert max(widths) - min(widths) <= 1  # near-even split

    def test_invalid_shard_counts(self):
        with pytest.raises(ValueError, match="at least 1"):
            shard_ranges(8, 0)
        with pytest.raises(ValueError, match="cannot split"):
            shard_ranges(4, 5)


class TestCloneProvider:
    def test_none_clones_to_engine_default(self):
        clone = clone_provider(None)
        assert isinstance(clone, RandomOutcomes) and clone.seed == 0

    def test_seeded_random_clone_replays_the_stream(self):
        root = RandomOutcomes(7)
        root.sample_lanes(0.5, 64)  # consume: the clone must be fresh
        clone = clone_provider(root)
        assert clone.sample_lanes(0.5, 64) == RandomOutcomes(7).sample_lanes(0.5, 64)

    def test_unseeded_random_is_rejected(self):
        with pytest.raises(ValueError, match="explicit seed"):
            clone_provider(RandomOutcomes(None))

    def test_scripted_and_constant_clone(self):
        forced = clone_provider(ForcedOutcomes([1, 0, 1]))
        assert [forced.sample(0.5) for _ in range(3)] == [1, 0, 1]
        assert clone_provider(ConstantOutcomes(1)).sample(0.5) == 1

    def test_unknown_provider_without_clone_hook(self):
        class Opaque:
            def sample(self, p):
                return 0

        with pytest.raises(ValueError, match="clone"):
            clone_provider(Opaque())

    def test_clone_hook_is_honored(self):
        class Hooked:
            def clone(self):
                return ConstantOutcomes(0)

        assert isinstance(clone_provider(Hooked()), ConstantOutcomes)


class TestSlicedOutcomes:
    def test_slices_are_windows_of_the_full_draw(self):
        total = 64
        full = RandomOutcomes(3).sample_lanes(0.5, total)
        for lo, hi in shard_ranges(total, 3):
            sliced = SlicedOutcomes(RandomOutcomes(3), lo, total)
            mask = sliced.sample_lanes(0.5, hi - lo)
            assert mask == (full >> lo) & ((1 << (hi - lo)) - 1)


class TestShardDeterminism:
    """Bit-identity of the merge for every shard count (satellite S3)."""

    # 37 is deliberately not divisible by 2, 3 or 7.
    BATCH = 37

    @pytest.mark.parametrize("shards", [1, 2, 3, 7])
    def test_sharded_equals_single_process(self, built, program, shards):
        inputs = _inputs(self.BATCH)
        single = _single_run(
            built, inputs, self.BATCH, RandomOutcomes(11)
        )
        result = run_sharded(
            program, inputs, batch=self.BATCH, shards=shards,
            executor="thread", outcomes=RandomOutcomes(11),
            lane_counts=LANE_GATES,
        )
        assert result.shards == shard_ranges(self.BATCH, shards)
        for name in built.circuit.registers:
            assert result.get_register(name) == single.get_register(name)
        for b in range(built.circuit.num_bits):
            assert result.get_bit(b) == single.get_bit(b)
        assert result.tally == single.tally
        assert result.lane_tally().tolist() == single.lane_tally().tolist()

    def test_process_pool_matches_thread_pool(self, program):
        inputs = _inputs(16)
        kwargs = dict(
            batch=16, shards=2, outcomes=RandomOutcomes(5),
            lane_counts=LANE_GATES,
        )
        via_threads = run_sharded(program, inputs, executor="thread", **kwargs)
        via_processes = run_sharded(program, inputs, executor="process", **kwargs)
        assert via_processes.registers == via_threads.registers
        assert via_processes.bits == via_threads.bits
        assert via_processes.tally == via_threads.tally
        assert (via_processes.lane_tally().tolist()
                == via_threads.lane_tally().tolist())

    def test_forced_scripts_stay_aligned_across_shards(self, built, program):
        script = [1, 0, 1, 1, 0, 0, 1, 0]
        inputs = _inputs(12)
        single = _single_run(built, inputs, 12, ForcedOutcomes(script))
        result = run_sharded(
            program, inputs, batch=12, shards=3, executor="thread",
            outcomes=ForcedOutcomes(script), lane_counts=LANE_GATES,
        )
        assert result.registers == {
            name: single.get_register(name) for name in built.circuit.registers
        }
        assert result.tally == single.tally
        # consumption counts full *events*: identical to the unsharded stream
        ref = ForcedOutcomes(script)
        _single_run(built, inputs, 12, ref)
        assert result.consumed == ref.consumed

    def test_circuit_input_compiles_on_the_fly(self, built):
        inputs = _inputs(8)
        from_circuit = run_sharded(
            built.circuit, inputs, batch=8, shards=2, executor="thread",
            outcomes=RandomOutcomes(2),
        )
        single = _single_run(built, inputs, 8, RandomOutcomes(2))
        assert from_circuit.registers == {
            name: single.get_register(name) for name in built.circuit.registers
        }

    def test_exact_fraction_tally_merge(self, built, program):
        """Merged tallies are exact Fractions, not float averages."""
        result = run_sharded(
            program, _inputs(37), batch=37, shards=3, executor="thread",
            outcomes=RandomOutcomes(9),
        )
        for weight in result.tally.counts.values():
            assert isinstance(weight, (int, Fraction))


class TestShardPool:
    def test_pool_reuse_matches_fresh_runs(self, built, program):
        inputs = _inputs(24)
        with ShardPool(
            program, batch=24, shards=3, executor="thread",
            lane_counts=LANE_GATES,
        ) as pool:
            first = pool.run(inputs, outcomes=RandomOutcomes(1))
            second = pool.run(inputs, outcomes=RandomOutcomes(2))
            again = pool.run(inputs, outcomes=RandomOutcomes(1))
        assert first.registers == again.registers
        assert first.lane_tally().tolist() == again.lane_tally().tolist()
        # different streams really produce different outcomes
        assert first.bits != second.bits or first.registers != second.registers

    def test_shards_one_runs_inline(self, program):
        pool = ShardPool(program, batch=8, shards=1)
        try:
            assert pool._executor is None
            result = pool.run(_inputs(8), outcomes=RandomOutcomes(0))
            assert result.batch == 8 and result.shards == ((0, 8),)
        finally:
            pool.close()

    def test_caller_supplied_executor_is_not_shut_down(self, program):
        with ThreadPoolExecutor(max_workers=2) as executor:
            with ShardPool(
                program, batch=8, shards=2, executor=executor
            ) as pool:
                pool.run(_inputs(8), outcomes=RandomOutcomes(0))
            # pool.close() must leave the caller's executor usable
            assert executor.submit(lambda: 42).result() == 42

    def test_unknown_register_rejected(self, program):
        with ShardPool(program, batch=8, shards=2, executor="thread") as pool:
            with pytest.raises(ValueError, match="unknown register"):
                pool.run({"zz": [0] * 8})

    def test_wrong_lane_count_rejected(self, program):
        with ShardPool(program, batch=8, shards=2, executor="thread") as pool:
            with pytest.raises(ValueError, match="expected 8 per-lane"):
                pool.run({"x": [1, 2, 3]})

    def test_unknown_executor_rejected(self, program):
        with pytest.raises(ValueError, match="unknown executor"):
            ShardPool(program, batch=8, shards=2, executor="fibers")

    def test_nonflat_program_rejects_stateful_providers(self, built):
        lowered = apply_transforms(built.circuit, ["lower_toffoli"])
        program = compile_program(lowered, tally=True)
        assert not program_is_flat(program)
        with ShardPool(program, batch=8, shards=2, executor="thread") as pool:
            with pytest.raises(ValueError, match="nested inside branch"):
                pool.run(_inputs(8), outcomes=RandomOutcomes(0))
            # stateless constant streams are sound on any program shape
            result = pool.run(_inputs(8), outcomes=ConstantOutcomes(0))
            assert result.batch == 8

    def test_flatness_of_builder_circuits(self, program):
        assert program_is_flat(program)


class TestSimulateWiring:
    """The ``simulate()``/``run_compiled`` validation surface (S1)."""

    def test_backend_names_include_auto(self):
        assert {"classical", "statevector", "bitplane", "auto"} <= set(
            available_backends()
        )

    def test_unknown_backend_lists_choices(self, built):
        with pytest.raises(ValueError, match="available:.*bitplane"):
            simulate(built.circuit, {"x": 1, "y": 2}, backend="quantum")

    def test_unknown_kernels_lists_choices(self, built):
        sim = BitplaneSimulator(built.circuit, batch=8)
        with pytest.raises(ValueError, match="'auto', 'codegen'"):
            sim.run_compiled(kernels="simd")

    def test_sharded_simulate_matches_plain(self, built):
        inputs = _inputs(8)
        plain = simulate(
            built.circuit, inputs, backend="bitplane", batch=8,
            compiled=True, seed=4,
        )
        sharded = simulate(
            built.circuit, inputs, backend="bitplane", batch=8,
            shards=2, seed=4,
        )
        assert sharded.registers == plain.registers
        assert sharded.bits == plain.bits
        assert sharded.tally == plain.tally

    def test_sharded_refuses_unfused_execution(self, built):
        with pytest.raises(ValueError, match="fused"):
            simulate(
                built.circuit, _inputs(8), backend="bitplane", batch=8,
                shards=2, fused=False,
            )

    def test_auto_backend_records_resolved_strategy(self, built):
        result = simulate(
            built.circuit, _inputs(8), backend="auto", batch=8, seed=4,
        )
        assert result.backend.startswith("auto:")
        plain = simulate(
            built.circuit, _inputs(8), backend="bitplane", batch=8,
            compiled=True, seed=4,
        )
        assert result.registers == plain.registers
        assert result.bits == plain.bits

    def test_auto_kernels_run_compiled(self, built):
        sim = BitplaneSimulator(built.circuit, batch=8, outcomes=RandomOutcomes(4))
        for name, values in _inputs(8).items():
            sim.set_register(name, values)
        sim.run_compiled(kernels="auto")
        ref = _single_run(built, _inputs(8), 8, RandomOutcomes(4))
        assert sim.get_register("y") == ref.get_register("y")


class TestMonteCarloExecution:
    def test_execution_modes_are_bit_identical(self, built):
        estimates = {
            mode: mc_expected_counts(
                built, batch=1536, seed=7, execution=mode,
                **({"shards": 3, "executor": "thread"}
                   if mode == "sharded" else {}),
            )
            for mode in ("single", "sharded", "auto")
        }
        ref = estimates["single"]
        for mode, est in estimates.items():
            assert est.mean == ref.mean, mode
            assert est.variance == ref.variance, mode

    def test_auto_on_many_cores_never_starts_a_shard_pool(self, monkeypatch):
        """The paper-scale one-shot estimate on an 8-core host: ``auto``
        must not start a ShardPool (its cost-model entry is an unfitted
        prior), and one run is cheapest on the scalar VM."""
        from repro.sim import dispatch

        def refuse(*args, **kwargs):
            raise AssertionError("auto execution constructed a ShardPool")

        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        monkeypatch.setattr(dispatch.ShardPool, "__init__", refuse)
        built256 = build_modadd(256, (1 << 256) - 189, "cdkpm", mbu=True)
        est = mc_expected_counts(
            built256, batch=65536, repeats=1, seed=3, execution="auto"
        )
        assert est.strategy == "scalar"
        assert est.samples == 65536

    def test_unknown_execution_mode_rejected(self, built):
        with pytest.raises(ValueError, match="'auto', 'single', 'sharded'"):
            mc_expected_counts(built, batch=64, execution="distributed")


class TestCostModel:
    def test_effective_shards_caps(self):
        model = CostModel(dict(DEFAULT_CALIBRATION))
        assert model.effective_shards(batch=64, cores=8) == 1
        assert model.effective_shards(batch=8 * MIN_SHARD_LANES, cores=4) == 4
        assert model.effective_shards(batch=2 * MIN_SHARD_LANES, cores=16) == 2

    def test_classical_only_for_single_lane(self):
        # tiny single-lane program: classical is eligible (and wins on
        # startup cost); any multi-lane batch filters it out entirely
        model = CostModel(dict(DEFAULT_CALIBRATION))
        choice = model.choose(ops=10, batch=1, cores=1,
                              candidates=("classical", "codegen"))
        assert choice == "classical"
        choice = model.choose(ops=10, batch=64, cores=1,
                              candidates=("classical", "codegen"))
        assert choice == "codegen"

    def test_scalar_eligible_when_lane_counts_tracked(self):
        # the scalar VM tracks per-lane counts, so it stays a candidate
        model = CostModel(dict(DEFAULT_CALIBRATION))
        choice = model.choose(ops=5, batch=64, lane_counts=True, cores=1,
                              candidates=("scalar", "codegen"))
        assert choice == "scalar"

    def test_generation_term_prices_one_shot_runs(self):
        model = CostModel(dict(DEFAULT_CALIBRATION))
        kwargs = dict(ops=10000, batch=65536, lane_counts=True, cores=1,
                      candidates=("scalar", "codegen"))
        # steady state: the generated kernel runs faster
        assert model.choose(**kwargs) == "codegen"
        # one run: generating the kernel costs more than it saves
        assert model.choose(repeats=1, **kwargs) == "scalar"
        # enough runs amortize generation
        assert model.choose(repeats=1000, **kwargs) == "codegen"
        # a program that already holds its kernel pays no generation
        assert model.choose(
            repeats=1, prepared=("fuse", "codegen"), **kwargs
        ) == "codegen"

    def test_generation_seconds(self):
        model = CostModel(dict(DEFAULT_CALIBRATION))
        gen = DEFAULT_CALIBRATION["generation"]
        full = model.generation_seconds("codegen", ops=1000)
        assert full == pytest.approx(
            1000 * (gen["fuse"]["c_ops"] + gen["codegen"]["c_ops"])
        )
        assert model.generation_seconds(
            "codegen", ops=1000, prepared=("fuse",)
        ) == pytest.approx(1000 * gen["codegen"]["c_ops"])
        assert model.generation_seconds(
            "codegen", ops=1000, prepared=("fuse", "codegen")
        ) == 0.0
        for name in ("scalar", "interpretive", "classical"):
            assert model.generation_seconds(name, ops=1000) == 0.0

    def test_generation_defaults_for_tables_without_it(self):
        table = json.loads(json.dumps(DEFAULT_CALIBRATION))
        del table["generation"]
        model = CostModel(table)
        assert model.generation_seconds("vector", ops=10) > 0.0

    def test_auto_never_offers_sharded(self):
        # even a table that makes sharding look free keeps it out of the
        # default candidate set: it runs only when asked for by name
        table = json.loads(json.dumps(DEFAULT_CALIBRATION))
        table["backends"]["sharded"]["on"] = {
            "c0": 0.0, "c_shard": 0.0, "efficiency": 1.0,
        }
        model = CostModel(table)
        kwargs = dict(ops=100000, batch=65536, cores=64)
        assert model.choose(**kwargs) != "sharded"
        assert model.choose(
            candidates=("codegen", "sharded"), **kwargs
        ) == "sharded"

    def test_sharded_needs_cores_and_lanes(self):
        model = CostModel(dict(DEFAULT_CALIBRATION))
        assert model.estimate(
            "sharded", ops=1000, batch=64, cores=8
        ) == float("inf")
        many = model.estimate(
            "sharded", ops=100000, batch=64 * MIN_SHARD_LANES, cores=8
        )
        alone = model.estimate("codegen", ops=100000, batch=64 * MIN_SHARD_LANES)
        assert many < alone  # enough work: parallelism must look profitable

    def test_no_feasible_candidate_raises(self):
        with pytest.raises(ValueError, match="no feasible backend"):
            default_model().choose(ops=10, batch=64, cores=1,
                                   candidates=("classical",))

    def test_unknown_backend_estimate_raises(self):
        with pytest.raises(ValueError, match="no calibration"):
            default_model().estimate("quantum", ops=1, batch=1)

    def test_env_override_wins(self, tmp_path, monkeypatch):
        table = json.loads(json.dumps(DEFAULT_CALIBRATION))
        table["min_shard_lanes"] = 7
        path = tmp_path / "cal.json"
        path.write_text(json.dumps(table))
        monkeypatch.setenv("REPRO_DISPATCH_CALIBRATION", str(path))
        assert load_calibration()["min_shard_lanes"] == 7
        assert default_model(refresh=True).min_shard_lanes == 7
        monkeypatch.delenv("REPRO_DISPATCH_CALIBRATION")
        default_model(refresh=True)  # restore the ambient table

    def test_explicit_missing_path_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_calibration(str(tmp_path / "nope.json"))

    def test_fit_calibration_recovers_synthetic_coefficients(self):
        def secs(ops, batch):
            return 1e-4 + 2e-7 * ops + 3e-9 * ops * ((batch + 63) // 64)

        samples = [
            {"backend": "codegen", "ops": ops, "batch": batch,
             "tally": True, "seconds": secs(ops, batch)}
            for ops in (100, 1000, 5000) for batch in (64, 4096, 65536)
        ]
        samples += [
            {"backend": "sharded", "ops": 5000, "batch": 65536, "tally": True,
             "shards": 4, "seconds": 0.30, "codegen_seconds": 1.0},
        ]
        samples += [
            {"generation": "fuse", "ops": ops, "seconds": 4e-6 * ops}
            for ops in (100, 1000, 5000)
        ]
        table = fit_calibration(samples, source="test")
        assert table["generation"]["fuse"]["c_ops"] == pytest.approx(4e-6)
        assert table["generation"]["codegen"] == (
            DEFAULT_CALIBRATION["generation"]["codegen"]
        )
        fitted = table["backends"]["codegen"]["on"]
        assert fitted["c_ops"] == pytest.approx(2e-7, rel=0.05)
        assert fitted["c_ops_words"] == pytest.approx(3e-9, rel=0.05)
        eff = table["backends"]["sharded"]["on"]["efficiency"]
        assert eff == pytest.approx(1.0 / (0.30 * 4), rel=1e-6)
        # untouched backends keep the defaults
        assert table["backends"]["arrays"] == DEFAULT_CALIBRATION["backends"]["arrays"]
