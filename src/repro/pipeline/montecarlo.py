"""Monte-Carlo estimation of *expected* MBU gate costs.

The paper's expected-cost formulas (every MBU correction fires with
probability 1/2) are validated empirically here: one bit-plane run with a
seeded :class:`~repro.sim.outcomes.RandomOutcomes` provider draws each
lane's measurement outcomes independently, so ``batch`` lanes are
``batch`` i.i.d. samples of the executed gate count.  The per-lane
counters added to :class:`~repro.sim.bitplane.BitplaneSimulator`
(``lane_counts=``) give the exact sample, hence a mean, a sample variance
and a normal-approximation confidence interval to put next to the
closed-form expectation.

Determinism: estimates depend only on ``(seed, batch, repeats)`` — never
on wall clock, worker scheduling or platform, and not on the execution
strategy either: the default compiled path (one compiled program re-run
across all repetitions on one reset simulator, on the scalar VM or a
generated kernel; see ``docs/performance.md``) consumes the exact same
per-repetition outcome streams as the interpretive walk, so the
estimates are bit-identical.
:func:`derive_seed` folds an arbitrary task key into an independent
63-bit seed with SHA-256, which is how the sweep runner gives every
(table, n, row, variant) cell its own reproducible stream.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from typing import Any, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..circuits.circuit import Circuit
from ..circuits.counts import TOFFOLI_GATES
from ..sim.bitplane import BitplaneSimulator, LaneTallyStats
from ..sim.classical import UnsupportedGateError
from ..sim.outcomes import RandomOutcomes

__all__ = [
    "MCEstimate",
    "derive_seed",
    "mc_expected_counts",
    "mc_or_none",
]

#: Default tracked gates: the paper's headline Toffoli metric.
DEFAULT_GATES: Tuple[str, ...] = tuple(sorted(TOFFOLI_GATES))


def derive_seed(*parts: Any) -> int:
    """A stable 63-bit seed from an arbitrary key (SHA-256, not ``hash``)."""
    blob = "\x1f".join(str(p) for p in parts).encode()
    return int.from_bytes(hashlib.sha256(blob).digest()[:8], "big") >> 1


@dataclass(frozen=True)
class MCEstimate(LaneTallyStats):
    """A Monte-Carlo estimate of an expected per-run gate count.

    Extends :class:`~repro.sim.bitplane.LaneTallyStats` (which owns the
    mean/variance/stderr/``ci95``/``z_score`` machinery) with the
    estimate's provenance: which gates were counted and the sweep seed.
    ``samples`` is ``batch * repeats``.

    ``compile_seconds``/``run_seconds`` expose the compile/run split of the
    estimate's wall time: ``compile_seconds`` covers whatever compilation,
    fusion and kernel generation this call did (zero when the supplied
    program already held everything the chosen strategy needs), while the
    run time covers every repetition executed against the one program.
    ``strategy`` names what the repetitions ran on: ``"interpretive"``,
    ``"scalar"``, a fused kernel (``"codegen"``, ``"vector"``,
    ``"arrays"``) or ``"sharded"``.
    """

    gates: Tuple[str, ...] = ()
    seed: int = 0
    compile_seconds: float = 0.0
    run_seconds: float = 0.0
    strategy: str = ""


def _circuit_of(target) -> Circuit:
    return target.circuit if hasattr(target, "circuit") else target


def mc_expected_counts(
    target,
    *,
    batch: int = 1024,
    repeats: int = 1,
    seed: int = 0,
    gates: Sequence[str] = DEFAULT_GATES,
    inputs: Optional[Mapping[str, Any]] = None,
    compiled: bool = True,
    program: Any = None,
    execution: str = "auto",
    kernels: Optional[str] = None,
    schedule: bool = False,
    shards: Optional[int] = None,
    executor: Any = None,
    noise: Any = None,
) -> MCEstimate:
    """Estimate the expected executed count of ``gates`` over random outcomes.

    ``target`` is a :class:`~repro.arithmetic.builders.Built` or a bare
    :class:`~repro.circuits.circuit.Circuit`.  Registers default to the
    all-zero basis state (valid for every construction in the repo; the
    executed-cost distribution of the MBU circuits is input-independent —
    X-basis measurement outcomes are unbiased coins regardless of the
    data).  Raises :class:`~repro.sim.classical.UnsupportedGateError` for
    circuits outside basis-state semantics (e.g. QFT-based Draper rows);
    use :func:`mc_or_none` to skip those.

    ``compiled=True`` (the default) compiles the circuit *once* — or takes
    a pre-built ``program`` (a
    :class:`~repro.transform.compile.CompiledProgram`, e.g. from
    :meth:`~repro.pipeline.cache.CircuitCache.program`, or a
    :class:`~repro.transform.compile.FusedProgram`) — and re-runs it for
    every repetition on one simulator whose plane buffers are reset in
    place, instead of rebuilding execution state per repetition.  Results
    are bit-identical to the interpretive path (``compiled=False``): the
    estimate still depends only on ``(seed, batch, repeats)``.

    ``execution`` selects how the compiled repetitions run: ``"auto"``
    (the default) ranks the scalar VM against the generated codegen
    kernel by ``gen(ops) + repeats * run(ops, batch)`` with the
    calibrated cost model (:mod:`repro.sim.dispatch.cost`), where
    ``gen`` is the fusion and kernel generation the program still needs.
    A program that runs once or a few times therefore runs on the scalar
    VM and is never fused.  ``"single"`` always runs a fused kernel in
    this process, and ``"sharded"`` shards lanes across a persistent
    worker pool (:mod:`repro.sim.dispatch`; ``shards``/``executor`` pass
    through to :class:`~repro.sim.dispatch.ShardPool`); ``auto`` never
    shards.  Sharded per-repetition lane tallies are bit-identical to the
    single-process ones — each shard draws full-width outcome masks and
    keeps its lane window — so this choice never changes an estimate,
    only its wall time.

    ``kernels`` picks the fused kernel strategy (``"codegen"``,
    ``"vector"``, ``"arrays"`` or ``"auto"``, which ranks the three by
    run time); passing it runs a fused kernel whatever ``execution`` says
    (``None`` leaves the choice to ``execution``).  ``schedule=True``
    runs the run-lengthening scheduler before fusion when this call fuses
    the program itself (pull a scheduled program from
    :meth:`CircuitCache.program(spec, schedule=True)
    <repro.pipeline.cache.CircuitCache.program>` to combine the two).
    Both are execution-only: estimates are bit-identical whatever the
    kernel or schedule, so the golden artifacts cannot move.

    ``noise`` (a :class:`repro.noise.NoiseConfig`) enables the bit-flip
    channel at the circuit's annotated noise points.  The channel stream
    rewinds to ``noise.seed`` at every repetition — repetitions share one
    flip pattern, only the measurement outcomes vary — which is what keeps
    single-process and sharded estimates bit-identical; use distinct
    ``noise.seed`` values across estimates when independent flips matter.
    """
    if repeats < 1:
        raise ValueError("repeats must be at least 1")
    if execution not in ("auto", "single", "sharded"):
        raise ValueError(
            f"unknown execution mode {execution!r}; "
            "options: 'auto', 'single', 'sharded'"
        )
    from ..sim.strategies import validate_kernels

    validate_kernels(kernels)
    circuit = _circuit_of(target)
    compile_seconds = 0.0
    strategy = "interpretive"
    if compiled:
        from ..transform.compile import (
            FusedProgram,
            compile_program,
            fuse_program,
        )

        fresh = program is None
        if fresh:
            start = time.perf_counter()
            program = compile_program(circuit, tally=True)
            compile_seconds = time.perf_counter() - start
        strategy = _strategy(program, execution, kernels, batch, repeats, noise)
        fuse = strategy != "scalar" and not isinstance(program, FusedProgram)
        generate = strategy in ("codegen", "vector") and (
            fuse or not program.has_kernel(strategy, events=True)
        )
        if fuse or generate:  # fusion and kernel generation are compile work
            start = time.perf_counter()
            if fuse:
                # A program compiled above dies with this call: keep it out
                # of the fusion memo.
                program = fuse_program(
                    program, memoize=not fresh, schedule=schedule
                )
            if generate:
                program.kernel(events=True, kind=strategy)
            compile_seconds += time.perf_counter() - start
    chunks = []
    start = time.perf_counter()
    if strategy == "sharded":
        from ..sim.dispatch import ShardPool

        with ShardPool(
            program, batch=batch, shards=shards, executor=executor,
            tally=False, lane_counts=tuple(gates), kernels=kernels,
            noise=noise,
        ) as pool:
            for r in range(repeats):
                result = pool.run(
                    inputs, outcomes=RandomOutcomes(derive_seed(seed, "rep", r))
                )
                chunks.append(result.lane_tally())
    else:
        sim = BitplaneSimulator(
            circuit,
            batch=batch,
            outcomes=RandomOutcomes(derive_seed(seed, "rep", 0)),
            tally=False,
            lane_counts=tuple(gates),
            noise=noise,
        )
        for r in range(repeats):
            if r:
                sim.reset(RandomOutcomes(derive_seed(seed, "rep", r)))
            for name, value in (inputs or {}).items():
                sim.set_register(name, value)
            if strategy == "interpretive":
                sim.run()
            elif strategy == "scalar":
                sim.run_compiled(program, fused=False)
            else:
                sim.run_compiled(program, kernels=strategy)
            chunks.append(sim.lane_tally())
    run_seconds = time.perf_counter() - start
    totals = np.concatenate(chunks)
    return MCEstimate.from_counts(
        totals,
        gates=tuple(gates),
        seed=seed,
        compile_seconds=compile_seconds,
        run_seconds=run_seconds,
        strategy=strategy,
    )


def _strategy(program, execution: str, kernels: Optional[str], batch: int,
              repeats: int, noise: Any) -> str:
    """The strategy compiled repetitions of ``program`` run on."""
    from ..sim.dispatch.cost import default_model, prepared_steps
    from ..sim.strategies import FUSED_KERNELS

    model = default_model()
    ops = len(getattr(program, "scalar", program).instructions)
    if execution == "sharded":
        from ..sim.dispatch import noise_is_flat, program_is_flat

        # Stateful providers need flat programs (every builder circuit is);
        # fall back to single-process execution rather than fail.  Same
        # for noise points nested inside branch bodies.
        if program_is_flat(program) and (
            noise is None or float(noise.rate) == 0.0 or noise_is_flat(program)
        ):
            return "sharded"
    elif execution == "auto" and kernels is None:
        # Lane counting collects the same events as a tallied run, so it
        # is priced with the tally-on coefficients.
        return model.choose(
            ops=ops, batch=batch, tally=True, lane_counts=True,
            candidates=("scalar", "codegen"), repeats=repeats,
            prepared=prepared_steps(program, events=True),
        )
    if kernels == "auto":
        return model.choose(
            ops=ops, batch=batch, tally=False, lane_counts=True,
            candidates=FUSED_KERNELS,
        )
    return kernels or "codegen"


def mc_or_none(target, **kwargs) -> Optional[MCEstimate]:
    """:func:`mc_expected_counts`, or ``None`` when the circuit has no
    basis-state semantics (QFT-based constructions)."""
    try:
        return mc_expected_counts(target, **kwargs)
    except UnsupportedGateError:
        return None
