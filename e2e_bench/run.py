"""End-to-end benchmark of the repro service and sweep CLI.

Run from the repository root::

    python3 e2e_bench/run.py --workload estimate-cold --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json`` with
the program untouched; ``--trace 1`` is the separate traced run that
reports the per-layer metrics (see ``tracing.py``).  The last line of
standard output is the result JSON; the environment record and the
sample count behind every metric are printed before it and saved under
``.e2e_bench/results/``.  The exit code is 0 only when every output was
correct.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import sys
import time
import traceback
from pathlib import Path
from typing import Any, Dict

sys.path.insert(0, str(Path(__file__).resolve().parent))

import sut  # noqa: E402
import workloads  # noqa: E402


def _git_commit(root: Path) -> str:
    """HEAD of the checkout, read without running git (``unknown`` when
    the checkout is not a git repository)."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            loose = root / ".git" / name
            if loose.is_file():
                return loose.read_text().strip()
            for line in (root / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + name):
                    return line.split()[0]
        return ref
    except OSError:
        return "unknown"


def environment() -> Dict[str, Any]:
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = "missing"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy,
        "git_commit": _git_commit(sut.ROOT),
        "platform": platform.platform(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    sut.require_program()
    sut.install_signal_handlers()
    began = time.time()
    try:
        if args.trace:
            import tracing

            result = tracing.run(args.workload, args.seed, args.seconds)
        else:
            result = workloads.WORKLOADS[args.workload](args.seed, args.seconds)
            if args.workload != "sweep":
                import tracing

                result.extra["dispatch_choice_predicted"] = tracing.predict_choices(
                    result.extra.get("queries", []))
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        sut.cleanup()
    for message in result.errors:
        print(f"error: {message}", file=sys.stderr)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "started": began,
        "environment": environment(),
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "errors": result.errors,
        "metrics": {name: {"value": v, "unit": u, "samples": n}
                    for name, (v, u, n) in result.metrics.items()},
        "details": {k: v for k, v in result.extra.items() if k != "queries"},
    }
    sut.RESULTS.mkdir(parents=True, exist_ok=True)
    out = sut.RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({k: record[k] for k in ("environment", "details")}))
    print(json.dumps({"samples": {k: m["samples"] for k, m in record["metrics"].items()}}))
    print(json.dumps({
        "correct": result.correct,
        "attempted": max(result.attempted, 1),
        "failed": result.failed,
        "metrics": {name: {"value": v, "unit": u}
                    for name, (v, u, _) in result.metrics.items()},
    }))
    return 0 if result.correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
