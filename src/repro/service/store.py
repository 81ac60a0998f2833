"""Two-tier persistent cache: in-memory LRU over a content-addressed disk tier.

:class:`PersistentCircuitCache` extends the pipeline's
:class:`~repro.pipeline.cache.CircuitCache` (circuits, counts and compiled
programs stay memory-only — they are cheap to rebuild and not JSON-able)
with a *result* tier for the derived artifacts a serving process answers
queries from: gate-count summaries, Monte-Carlo estimates, table rows.
Results are keyed by :func:`spec_fingerprint` — the SHA-256 of a canonical
JSON encoding of the :class:`~repro.pipeline.cache.CircuitSpec` plus any
request parameters that change the answer (Monte-Carlo batch/repeats/seed,
payload schema version) — so a fingerprint *is* the answer's identity:
same fingerprint, same bytes, across processes and restarts.

The disk tier reuses the persistence discipline proven by
:class:`~repro.pipeline.jobs.CheckpointJournal`: entries are written
atomically (tmp file in the same directory + ``os.replace``), carry a
SHA-256 payload checksum, and *anything* wrong on read — missing file,
unparsable JSON, stale schema, foreign fingerprint, broken checksum — is a
cache miss that falls through to recompute, never an error.  A store can
be deleted, truncated or corrupted under a live server and the worst case
is recomputation.

Lookups are single-flight per fingerprint (claimant computes, concurrent
requesters wait and then hit), mirroring the in-memory cache's build
locking: a cold hot-path query hammered by N request threads costs one
build, one simulation, one disk write.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Optional, Tuple, Union

from ..pipeline.cache import CircuitCache, CircuitSpec
from ..pipeline.jobs import _decode, _encode, _payload_checksum

__all__ = [
    "STORE_SCHEMA_VERSION",
    "TierStats",
    "PersistentCircuitCache",
    "spec_fingerprint",
]

#: Bumped whenever the on-disk result entry layout changes; stale entries
#: are misses, never parse errors (same contract as the checkpoint journal).
STORE_SCHEMA_VERSION = 1


def spec_fingerprint(spec: CircuitSpec, **extra: Any) -> str:
    """The content address of one spec-derived result.

    SHA-256 over a canonical JSON encoding of the spec's full identity
    (kind, n, params, transform chain) plus any ``extra`` request
    parameters that change the derived payload (Monte-Carlo knobs, result
    schema).  Two requests share a fingerprint iff they are answerable by
    the same bytes; the store never has to compare specs structurally.
    """
    payload: Dict[str, Any] = {
        "store_schema": STORE_SCHEMA_VERSION,
        "kind": spec.kind,
        "n": spec.n,
        "params": [[k, v] for k, v in spec.params],
        "transforms": list(spec.transforms),
    }
    if extra:
        payload["extra"] = {k: extra[k] for k in sorted(extra)}
    blob = json.dumps(payload, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()


@dataclass
class TierStats:
    """Lookup counters of the persistent result tier.

    ``memory_hits`` answered from the in-process LRU, ``disk_hits`` from a
    valid on-disk entry, ``misses`` computed fresh; ``corrupt``/``stale``
    count damaged or out-of-schema disk entries (each also recorded as the
    miss it degrades to), ``writes`` successful persists.
    """

    memory_hits: int = 0
    disk_hits: int = 0
    misses: int = 0
    corrupt: int = 0
    stale: int = 0
    writes: int = 0

    @property
    def hit_ratio(self) -> float:
        served = self.memory_hits + self.disk_hits
        total = served + self.misses
        return served / total if total else 0.0

    def as_dict(self) -> Dict[str, Any]:
        return {
            "memory_hits": self.memory_hits,
            "disk_hits": self.disk_hits,
            "misses": self.misses,
            "corrupt": self.corrupt,
            "stale": self.stale,
            "writes": self.writes,
            "hit_ratio": round(self.hit_ratio, 4),
        }


class PersistentCircuitCache(CircuitCache):
    """A :class:`~repro.pipeline.cache.CircuitCache` with a disk result tier.

    ``root`` is the store directory (created lazily on first write);
    ``result_maxsize`` bounds the in-memory result LRU (``None`` =
    unbounded).  Results flow memory -> disk -> compute and are promoted
    back up on the way out, so a restarted server answers its warm
    queries from disk without rebuilding or re-simulating anything.

    Only JSON-able payloads pass through :meth:`result` — the exact codec
    is the checkpoint journal's (Fractions tagged, order kept), so a
    payload read back from disk equals the one computed, byte for byte
    once canonically serialized.
    """

    def __init__(
        self,
        root: Union[str, Path],
        maxsize: Optional[int] = 512,
        result_maxsize: Optional[int] = 4096,
    ) -> None:
        super().__init__(maxsize)
        if result_maxsize is not None and result_maxsize < 1:
            raise ValueError("result_maxsize must be positive (or None)")
        self.root = Path(root)
        self.result_maxsize = result_maxsize
        self._results: "OrderedDict[Tuple[str, str], Any]" = OrderedDict()
        self._result_lock = threading.Lock()
        self._result_inflight: Dict[Tuple[str, str], threading.Event] = {}
        self.result_stats = TierStats()
        #: How many computed estimates ran their Monte-Carlo repetitions
        #: on each strategy (see ``MCEstimate.strategy``).
        self.mc_strategies: Dict[str, int] = dict.fromkeys(
            ("scalar", "codegen", "vector", "sharded"), 0
        )

    # ------------------------------------------------------------------ #
    # disk tier

    def result_path(self, family: str, fingerprint: str) -> Path:
        """``root/<family>/<aa>/<fingerprint>.json`` (fanned out by the
        first fingerprint byte so directories stay listable at scale)."""
        return self.root / family / fingerprint[:2] / f"{fingerprint}.json"

    def load_result(self, family: str, fingerprint: str) -> Optional[Any]:
        """The stored payload, or ``None`` on any miss (stats updated).

        Damage is counted (``corrupt``/``stale``) but never raised — the
        caller's recovery path is always "recompute".
        """
        path = self.result_path(family, fingerprint)
        if not path.exists():
            return None
        try:
            entry = json.loads(path.read_text())
            if not isinstance(entry, dict):
                raise ValueError("entry is not an object")
        except (OSError, ValueError):
            with self._result_lock:
                self.result_stats.corrupt += 1
            return None
        if entry.get("schema") != STORE_SCHEMA_VERSION \
                or entry.get("family") != family \
                or entry.get("fingerprint") != fingerprint:
            with self._result_lock:
                self.result_stats.stale += 1
            return None
        payload = entry.get("payload")
        if entry.get("checksum") != _payload_checksum(payload):
            with self._result_lock:
                self.result_stats.corrupt += 1
            return None
        return _decode(payload)

    def store_result(self, family: str, fingerprint: str, payload: Any) -> Path:
        """Atomically persist ``payload`` (tmp + ``os.replace``)."""
        path = self.result_path(family, fingerprint)
        path.parent.mkdir(parents=True, exist_ok=True)
        encoded = _encode(payload)
        entry = {
            "schema": STORE_SCHEMA_VERSION,
            "family": family,
            "fingerprint": fingerprint,
            "checksum": _payload_checksum(encoded),
            "payload": encoded,
        }
        tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        tmp.write_text(json.dumps(entry, indent=1) + "\n")
        os.replace(tmp, path)
        with self._result_lock:
            self.result_stats.writes += 1
        return path

    # ------------------------------------------------------------------ #
    # the two-tier lookup

    def result(
        self, family: str, fingerprint: str, compute: Callable[[], Any]
    ) -> Tuple[Any, str]:
        """Two-tier lookup: returns ``(payload, tier)`` with ``tier`` one
        of ``"memory"``, ``"disk"`` or ``"computed"``.

        Single-flight per ``(family, fingerprint)``: under concurrent cold
        requests exactly one thread computes (and persists) while the rest
        wait and then take the memory-hit path.
        """
        key = (family, fingerprint)
        while True:
            with self._result_lock:
                if key in self._results:
                    self.result_stats.memory_hits += 1
                    self._results.move_to_end(key)
                    return self._results[key], "memory"
                waiter = self._result_inflight.get(key)
                if waiter is None:
                    self._result_inflight[key] = threading.Event()
                    break
            waiter.wait()
        try:
            payload = self.load_result(family, fingerprint)
            if payload is not None:
                with self._result_lock:
                    self.result_stats.disk_hits += 1
                self._remember(key, payload)
                return payload, "disk"
            with self._result_lock:
                self.result_stats.misses += 1
            payload = compute()
            self.store_result(family, fingerprint, payload)
            self._remember(key, payload)
            return payload, "computed"
        finally:
            with self._result_lock:
                waiter = self._result_inflight.pop(key, None)
            if waiter is not None:
                waiter.set()

    def _remember(self, key: Tuple[str, str], payload: Any) -> None:
        with self._result_lock:
            self._results[key] = payload
            self._results.move_to_end(key)
            if self.result_maxsize is not None:
                while len(self._results) > self.result_maxsize:
                    self._results.popitem(last=False)

    def count_mc_strategy(self, strategy: str) -> None:
        with self._result_lock:
            self.mc_strategies[strategy] = self.mc_strategies.get(strategy, 0) + 1

    def drop_memory_results(self) -> None:
        """Forget the in-memory result tier (the disk tier stays) — the
        programmatic equivalent of a process restart, used by tests."""
        with self._result_lock:
            self._results.clear()

    def stats_dict(self) -> Dict[str, Any]:
        """Everything ``/statsz`` reports about this cache: the in-memory
        circuit/counts/program families, the persistent result tier and
        the Monte-Carlo strategy counts."""
        with self._result_lock:
            mc_strategies = dict(self.mc_strategies)
        return {
            "circuit_cache": self.stats.as_dict(),
            "result_tier": self.result_stats.as_dict(),
            "mc_strategies": mc_strategies,
            "memory_results": len(self._results),
            "store_root": str(self.root),
        }
