"""The calibrated backend cost model behind ``backend="auto"``.

The backend ladder's honest benchmarks show no single winner: the fused
codegen VM dominates mid-size batches, the generated numpy vector kernels
take over once plane rows are long enough for SIMD to amortize ufunc
dispatch (the legacy arrays interpreter crosses over far later), the
scalar VM wins tiny programs, and sharding only pays once there are
cores *and* enough lanes per shard.  This module turns those measurements
into a choice: :func:`choose_backend` estimates wall time for every
*capable* strategy from a small calibrated linear model and picks the
cheapest.

Calibration workflow
--------------------
``benchmarks/bench_dispatch.py`` times every strategy over an
(ops × batch × tally) grid and — when run with
``REPRO_DISPATCH_RECALIBRATE=1`` — refits the coefficients with
:func:`fit_calibration` and rewrites the checked-in
``dispatch/calibration.json``.  At import time the model loads, in order:

1. the file named by ``$REPRO_DISPATCH_CALIBRATION`` (deploy override),
2. the checked-in ``calibration.json`` next to this module,
3. the hard-coded ``DEFAULT_CALIBRATION`` (same shape, rough numbers).

The model is deliberately tiny — per backend and tally state,
``seconds = c0 + c_ops * ops + c_ops_words * ops * words`` with
``words = ceil(batch / 64)`` — because ranking only needs the crossovers
right, not absolute times.  Sharded execution reuses the codegen work
estimate divided by the effective shard count times a measured parallel
``efficiency``, plus per-shard dispatch overhead.

Generation term
---------------
The fused strategies pay once per program before their first run:
:func:`~repro.transform.compile.fuse_program` (``generation.fuse``) and
then building their kernel (``generation.<backend>``), each
``c_ops * ops``.  :meth:`CostModel.choose` ranks on
``gen(ops) + repeats * run(ops, batch)`` when the caller says how many
runs the program will serve (``repeats=``), counting as free whatever
the program already holds (``prepared=``, see :func:`prepared_steps`).
A program that runs once is therefore run on the scalar VM, which needs
neither step.  Without ``repeats`` the ranking is steady-state run time,
as for a program that is run many times.

``sharded`` is never an automatic candidate (:data:`AUTO_CANDIDATES`):
its entry is a hand-written prior, and every measured grid point has it
slower than one process.  It runs only when asked for by name.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import (
    Any, Collection, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple,
)

__all__ = [
    "AUTO_CANDIDATES",
    "CostModel",
    "choose_backend",
    "default_model",
    "estimate_seconds",
    "fit_calibration",
    "load_calibration",
    "prepared_steps",
]

from ..strategies import FUSED_KERNELS, LADDER

#: What :meth:`CostModel.choose` considers when the caller names no
#: candidates: every strategy of :data:`repro.sim.strategies.LADDER`
#: except ``sharded`` (explicit-only).
AUTO_CANDIDATES = tuple(name for name in LADDER if name != "sharded")

ENV_CALIBRATION = "REPRO_DISPATCH_CALIBRATION"
_CALIBRATION_FILE = os.path.join(os.path.dirname(__file__), "calibration.json")

#: Fallback coefficients (seconds), shaped exactly like calibration.json.
#: Rough fits from the repo's reference container — the checked-in file
#: (regenerated by ``REPRO_DISPATCH_RECALIBRATE=1 pytest
#: benchmarks/bench_dispatch.py``) supersedes these.
DEFAULT_CALIBRATION: Dict[str, Any] = {
    "schema": 1,
    "source": "built-in defaults",
    "min_shard_lanes": 512,
    "backends": {
        "classical": {
            "off": {"c0": 2e-05, "c_lane_ops": 4e-07},
            "on": {"c0": 2e-05, "c_lane_ops": 6e-07},
        },
        "interpretive": {
            "off": {"c0": 1e-04, "c_ops": 2.5e-06, "c_ops_words": 1.5e-08},
            "on": {"c0": 1e-04, "c_ops": 4e-06, "c_ops_words": 1.5e-08},
        },
        "scalar": {
            "off": {"c0": 2e-05, "c_ops": 4e-07, "c_ops_words": 6e-09},
            "on": {"c0": 2e-05, "c_ops": 6e-07, "c_ops_words": 6e-09},
        },
        "codegen": {
            "off": {"c0": 3e-05, "c_ops": 1.2e-07, "c_ops_words": 4e-09},
            "on": {"c0": 3e-05, "c_ops": 1.6e-07, "c_ops_words": 4e-09},
        },
        "arrays": {
            "off": {"c0": 2e-04, "c_ops": 1.1e-06, "c_ops_words": 6e-10},
            "on": {"c0": 2e-04, "c_ops": 1.3e-06, "c_ops_words": 6e-10},
        },
        "vector": {
            "off": {"c0": 5e-05, "c_ops": 6e-07, "c_ops_words": 5e-10},
            "on": {"c0": 5e-05, "c_ops": 7e-07, "c_ops_words": 5e-10},
        },
        "sharded": {
            "off": {"c0": 2e-04, "c_shard": 1.5e-04, "efficiency": 0.85},
            "on": {"c0": 2e-04, "c_shard": 1.5e-04, "efficiency": 0.85},
        },
    },
    "generation": {
        "fuse": {"c_ops": 3.5e-06},
        "codegen": {"c_ops": 1.5e-05},
        "arrays": {"c_ops": 2e-06},
        "vector": {"c_ops": 2e-05},
    },
}


def load_calibration(path: Optional[str] = None) -> Dict[str, Any]:
    """Load a calibration table (see module docstring for the search order)."""
    candidates = [path, os.environ.get(ENV_CALIBRATION), _CALIBRATION_FILE]
    for candidate in candidates:
        if not candidate:
            continue
        try:
            with open(candidate) as handle:
                table = json.load(handle)
        except FileNotFoundError:
            if candidate is path:  # an explicit path must exist
                raise
            continue
        table.setdefault("source", candidate)
        return table
    return dict(DEFAULT_CALIBRATION)


def _words(batch: int) -> int:
    return (batch + 63) // 64


def prepared_steps(program: Any, events: bool) -> Tuple[str, ...]:
    """The generation work ``program`` has already paid for, as the
    ``prepared=`` argument of :meth:`CostModel.choose`: ``"fuse"`` for a
    fused program, plus every fused strategy whose kernel (generated with
    or without ``events``) it holds.  A compiled or absent program has
    paid for nothing."""
    has_kernel = getattr(program, "has_kernel", None)
    if has_kernel is None:
        return ()
    return ("fuse",) + tuple(
        kind for kind in FUSED_KERNELS if has_kernel(kind, events)
    )


@dataclass
class CostModel:
    """Rank execution strategies by estimated wall time."""

    table: Dict[str, Any]

    @property
    def min_shard_lanes(self) -> int:
        return int(self.table.get("min_shard_lanes", 512))

    def _coeffs(self, backend: str, tally: bool) -> Mapping[str, float]:
        backends = self.table["backends"]
        if backend not in backends:
            raise ValueError(
                f"no calibration for backend {backend!r}; "
                f"calibrated: {', '.join(sorted(backends))}"
            )
        entry = backends[backend]
        return entry["on" if tally else "off"]

    def effective_shards(self, batch: int, cores: int) -> int:
        """Shards worth running: capped by cores and by lanes per shard."""
        return max(1, min(cores, batch // self.min_shard_lanes))

    def estimate(
        self,
        backend: str,
        *,
        ops: int,
        batch: int,
        tally: bool = True,
        cores: int = 1,
    ) -> float:
        """Estimated seconds for one run of ``ops`` instructions × ``batch``
        lanes on ``backend`` (``inf`` when the strategy cannot help)."""
        c = self._coeffs(backend, tally)
        words = _words(batch)
        if backend == "classical":
            return c["c0"] + c["c_lane_ops"] * ops * batch
        if backend == "sharded":
            shards = self.effective_shards(batch, cores)
            if shards < 2:
                return float("inf")
            work = self.estimate("codegen", ops=ops, batch=batch, tally=tally)
            return (c["c0"] + c["c_shard"] * shards
                    + work / (shards * c["efficiency"]))
        return c["c0"] + c["c_ops"] * ops + c["c_ops_words"] * ops * words

    def generation_seconds(
        self, backend: str, *, ops: int, prepared: Collection[str] = ()
    ) -> float:
        """Estimated one-off seconds before ``backend`` can run a program
        of ``ops`` instructions: fusion plus kernel generation for the
        fused strategies (each skipped when named in ``prepared``), zero
        for everything else."""
        if backend not in FUSED_KERNELS:
            return 0.0
        gen = self.table.get("generation", DEFAULT_CALIBRATION["generation"])
        seconds = 0.0
        if "fuse" not in prepared:
            seconds += gen["fuse"]["c_ops"] * ops
        if backend not in prepared:
            seconds += gen[backend]["c_ops"] * ops
        return seconds

    def choose(
        self,
        *,
        ops: int,
        batch: int,
        tally: bool = True,
        lane_counts: bool = False,
        cores: Optional[int] = None,
        candidates: Optional[Sequence[str]] = None,
        repeats: Optional[int] = None,
        prepared: Collection[str] = (),
    ) -> str:
        """The cheapest strategy that can run the request.

        With ``repeats`` the cost of a strategy is
        ``generation_seconds + repeats * estimate``: the one-off fusion and
        kernel generation it still needs (minus the ``prepared`` steps),
        plus its runs.  Without it, only the run time counts.

        Capability filtering before ranking: ``classical`` only handles one
        lane per call (and scalar inputs), and ``sharded`` needs at least
        two effective shards (cores *and* ``min_shard_lanes`` lanes each).
        ``lane_counts`` filters nothing: every compiled strategy keeps
        exact per-lane counts.  ``candidates`` defaults to
        :data:`AUTO_CANDIDATES`.
        """
        if cores is None:
            cores = os.cpu_count() or 1
        pool = list(candidates) if candidates is not None else list(AUTO_CANDIDATES)
        feasible = []
        for name in pool:
            if name == "classical" and batch != 1:
                continue
            if name == "sharded" and self.effective_shards(batch, cores) < 2:
                continue
            feasible.append(name)
        if not feasible:
            raise ValueError(
                f"no feasible backend among {pool!r} for batch={batch}, "
                f"lane_counts={lane_counts}"
            )

        def cost(name: str) -> float:
            run = self.estimate(name, ops=ops, batch=batch, tally=tally, cores=cores)
            if repeats is None:
                return run
            gen = self.generation_seconds(name, ops=ops, prepared=prepared)
            return gen + repeats * run

        return min(feasible, key=cost)


_DEFAULT_MODEL: Optional[CostModel] = None


def default_model(refresh: bool = False) -> CostModel:
    """The process-wide model over the ambient calibration table."""
    global _DEFAULT_MODEL
    if _DEFAULT_MODEL is None or refresh:
        _DEFAULT_MODEL = CostModel(load_calibration())
    return _DEFAULT_MODEL


def estimate_seconds(backend: str, **kwargs: Any) -> float:
    return default_model().estimate(backend, **kwargs)


def choose_backend(**kwargs: Any) -> str:
    return default_model().choose(**kwargs)


# --------------------------------------------------------------------------- #
# fitting (used by benchmarks/bench_dispatch.py)


def _lstsq(rows: List[List[float]], y: List[float]) -> List[float]:
    import numpy as np

    a = np.asarray(rows, dtype=float)
    b = np.asarray(y, dtype=float)
    coeffs, *_ = np.linalg.lstsq(a, b, rcond=None)
    return [max(0.0, float(c)) for c in coeffs]  # negative costs are noise


def fit_calibration(
    samples: Iterable[Mapping[str, Any]],
    *,
    min_shard_lanes: int = 512,
    source: str = "benchmarks/bench_dispatch.py",
) -> Dict[str, Any]:
    """Fit a calibration table from benchmark samples.

    Each sample maps ``backend``/``ops``/``batch``/``tally``/``seconds``;
    ``sharded`` samples additionally carry ``shards`` and
    ``codegen_seconds`` (the matching single-process work measurement the
    parallel efficiency is computed against).  Generation samples map
    ``generation`` (``"fuse"`` or a fused strategy) plus ``ops`` and
    ``seconds``, and fit ``generation.<name>.c_ops`` through the origin.
    Backends or tally states with no samples keep the
    ``DEFAULT_CALIBRATION`` coefficients, so a smoke-size run still yields
    a complete table.
    """
    grouped: Dict[Tuple[str, bool], List[Mapping[str, Any]]] = {}
    generation: Dict[str, List[Mapping[str, Any]]] = {}
    for sample in samples:
        if "generation" in sample:
            generation.setdefault(str(sample["generation"]), []).append(sample)
            continue
        key = (str(sample["backend"]), bool(sample["tally"]))
        grouped.setdefault(key, []).append(sample)

    table = json.loads(json.dumps(DEFAULT_CALIBRATION))  # deep copy
    table["source"] = source
    table["min_shard_lanes"] = min_shard_lanes
    backends = table["backends"]
    for (backend, tally), rows in grouped.items():
        state = "on" if tally else "off"
        if backend == "classical":
            design = [[1.0, s["ops"] * s["batch"]] for s in rows]
            c0, c_lane = _lstsq(design, [s["seconds"] for s in rows])
            backends["classical"][state] = {"c0": c0, "c_lane_ops": c_lane}
        elif backend == "sharded":
            effs = []
            for s in rows:
                shards = int(s["shards"])
                if shards < 2 or s["seconds"] <= 0:
                    continue
                effs.append(s["codegen_seconds"] / (s["seconds"] * shards))
            if effs:
                entry = backends["sharded"][state]
                backends["sharded"][state] = {
                    "c0": entry["c0"],
                    "c_shard": entry["c_shard"],
                    # Clamp into (0, 1]: super-linear readings are timer noise.
                    "efficiency": max(0.01, min(1.0, sum(effs) / len(effs))),
                }
        else:
            design = [
                [1.0, float(s["ops"]), float(s["ops"] * _words(s["batch"]))]
                for s in rows
            ]
            c0, c_ops, c_ow = _lstsq(design, [s["seconds"] for s in rows])
            backends[backend][state] = {
                "c0": c0, "c_ops": c_ops, "c_ops_words": c_ow,
            }
    for name, rows in generation.items():
        (c_ops,) = _lstsq([[float(s["ops"])] for s in rows],
                          [s["seconds"] for s in rows])
        table["generation"][name] = {"c_ops": c_ops}
    return table
