"""Steadiness check: run workloads over several seeds and report spreads.

    python3 e2e_bench/steady.py --runs 10 [--sets 2] [--workloads sweep estimate-cold]
                                [--out FILE] [--markdown FILE]

Each of ``--sets`` sets runs every workload once per seed ``1..runs``
(offset by ``--first-seed``); the sets are interleaved run by run (seed
1 of every set, then seed 2, ...), so a drift of the host's speed falls
on all of them alike.  For every end-to-end metric of ``BENCHMARK.json``
and every set it prints the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread
``(q3 - q1) / median``, and flags a spread above a third of the metric's
bound.  With two or more sets it also prints how far each later set's
median lies from the first set's, and flags a change for the worse
beyond the bound.  The exit code is 2 when anything is flagged, 1 when a
run failed.  Run from the repository root; each run is a separate
``run.py`` process.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def host_speed_s() -> float:
    """Time of a fixed pure-Python loop (best of three) before each run: a
    record of how fast the host was, since a shared VM's speed drifts."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        sum(i * i for i in range(1_000_000))
        best = min(best, time.perf_counter() - start)
    return best


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True,
    )
    last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "{}"
    result = json.loads(last)
    if proc.returncode or not result.get("correct"):
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n"
                           f"{proc.stderr[-2000:]}")
    return result


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", nargs="+", default=names, choices=names)
    parser.add_argument("--out", type=Path, default=None,
                        help="also write the report as JSON here")
    parser.add_argument("--markdown", type=Path, default=None,
                        help="also write the spreads as a markdown table here")
    args = parser.parse_args()
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    report = {}
    ok = True
    for workload in args.workloads:
        values = [{name: [] for name in metrics} for _ in range(args.sets)]
        walls, host = [], []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            for one_set in values:
                host.append(host_speed_s())
                start = time.perf_counter()
                try:
                    result = run_once(workload, seed, spec["run_seconds"])
                except RuntimeError as exc:
                    print(exc)
                    return 1
                walls.append(time.perf_counter() - start)
                for name in metrics:
                    one_set[name].append(result["metrics"][name]["value"])
        rows = {}
        for name, metric in metrics.items():
            bound = metric["bound"]
            rows[name] = {"bound": bound, "sets": []}
            for index, one_set in enumerate(values):
                vals = one_set[name]
                q1, _, q3 = statistics.quantiles(vals, n=4)
                median = statistics.median(vals)
                spread = (q3 - q1) / median
                row = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                       "values": vals}
                flags = []
                if spread >= bound / 3:
                    flags.append("spread above bound/3")
                if index:
                    first = rows[name]["sets"][0]["median"]
                    change = (median - first) / first
                    worse = change if metric["better"] == "lower" else -change
                    row["change_vs_set1"] = change
                    if worse > bound:
                        flags.append("worse than set 1 beyond the bound")
                ok &= not flags
                rows[name]["sets"].append(row)
                change = f" vs set 1 {row['change_vs_set1']:+7.2%}" if index else ""
                print(f"{workload:14} {name:16} set {index + 1} median {median:11.4f} "
                      f"q1 {q1:11.4f} q3 {q3:11.4f} spread {spread:6.2%}{change} "
                      f"bound {bound:.0%}{''.join('  <-- ' + f for f in flags)}")
        report[workload] = {"runs": args.runs, "sets": args.sets,
                            "first_seed": args.first_seed,
                            "run_wall_s": {"median": statistics.median(walls),
                                           "max": max(walls)},
                            "host_loop_s": host,
                            "metrics": rows}
        print(f"{workload:14} run wall median {statistics.median(walls):.1f}s "
              f"max {max(walls):.1f}s", flush=True)
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    if args.markdown:
        args.markdown.write_text(markdown(report))
    return 0 if ok else 2


def markdown(report) -> str:
    sets = max(body["sets"] for body in report.values())
    head = "| workload | metric | bound |" + "".join(
        f" set {i + 1} median | set {i + 1} spread |" for i in range(sets)) + "".join(
        f" set {i + 1} vs set 1 |" for i in range(1, sets))
    lines = [head, "|" + "---|" * (3 + 2 * sets + sets - 1)]
    for workload, body in report.items():
        for name, row in body["metrics"].items():
            cells = "".join(f" {s['median']:.4g} | {s['spread']:.1%} |" for s in row["sets"])
            cells += "".join(f" {s['change_vs_set1']:+.1%} |" for s in row["sets"][1:])
            lines.append(f"| {workload} | {name} | {row['bound']:.0%} |{cells}")
    return "\n".join(lines) + "\n"


if __name__ == "__main__":
    raise SystemExit(main())
