"""Run the selfishlevel benchmark from the repository root.

    python3 perfbench/run.py --workload small_corpus --seed 7 --seconds 20 --trace 0
    python3 perfbench/run.py            # every workload, each in its own process

A run prints its metrics by name and unit, writes its full record to
``.perfbench_out/`` (with the spans of a traced run beside it), and ends
standard output with one JSON line: ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--trace 0`` reports the end-to-end
metrics, ``--trace 1`` the per-layer ones.  It exits 2 without a result
when the toolkit's sources are not there.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import harness, tracing, workloads  # noqa: E402

DEFAULT_SEED = 1105
DEFAULT_SECONDS = 20
OUT_DIR = ROOT / ".perfbench_out"


def _units(trace: bool) -> dict[str, str]:
    return dict(tracing.PER_LAYER if trace else harness.END_TO_END)


def _result_line(correct: bool, attempted: int, failed: int, metrics: dict, units: dict) -> str:
    return json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    })


def run_one(args) -> int:
    try:
        record = harness.run(ROOT, args.workload, args.seed, args.seconds, bool(args.trace),
                             args.scale)
    except (ImportError, OSError) as exc:
        sys.stderr.write(f"error: cannot load the toolkit or its oracles: {exc}\n")
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-{args.scale}-seed{args.seed}-trace{args.trace}"
    spans = record.pop("spans", None)
    if spans is not None:
        (OUT_DIR / f"{stem}-spans.json").write_text(json.dumps(spans))
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=2, default=str))

    units = _units(bool(args.trace))
    op = record["op_latency"]
    print(f"# {args.workload} ({args.scale}) seed={args.seed} "
          f"reps={len(record['reps'])} ops/rep={record['ops_per_rep']} "
          f"fail_ratio={record['fail_ratio']} ({record['failed']}/{record['attempted']})")
    print(f"# op latency: {op['samples']} distinct ops, each the median of "
          f"{op['reps_per_sample']} reps; tail = p{op['tail_percentile']:g} "
          f"with {op['beyond_tail']} beyond; host calib "
          f"{record['host']['calib_before_s']:.4f}s -> {record['host']['calib_after_s']:.4f}s")
    for key, message in record["failures"].items():
        print(f"# FAILED {key}: {message}")
    for mismatch in record["count_mismatches"]:
        print(f"# COUNT MISMATCH {mismatch}")
    for name, value in record["metrics"].items():
        print(f"{args.workload:18} {name:45} {value:.6g} {units[name]}")
    correct = record["failed"] == 0 and not record["count_mismatches"]
    print(_result_line(correct, record["attempted"], record["failed"], record["metrics"], units))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    units = _units(bool(args.trace))
    combined_units = {}
    for name in workloads.WORKLOADS:
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--scale", args.scale],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = child.stdout.strip().splitlines()
        if child.returncode != 0 or not lines:
            sys.stderr.write(f"error: workload {name} exited {child.returncode}\n")
            return child.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        for metric, entry in result["metrics"].items():
            metrics[f"{name}.{metric}"] = entry["value"]
            combined_units[f"{name}.{metric}"] = units[metric]
    print(_result_line(correct, attempted, failed, metrics, combined_units))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*workloads.WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="rep time to measure, in seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run")
    parser.add_argument("--scale", choices=workloads.SCALES, default=workloads.FULL,
                        help="toy: tiny inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
