"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload serve_repeat --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

Runs from the root of a checkout and measures the code under ``src/``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
``--workload all`` runs every workload, each in its own process, and
ends with one such object per workload.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("serve_repeat", "serve_dynamic", "derive")
#: Where the traced run writes its spans (listed in .gitignore).
OUT_DIR = ROOT / ".perfbench_out"


def pin_to_one_cpu() -> int:
    """Run on one CPU; returns it.

    The client and the front end's worker thread hand each request back
    and forth.  Left to the scheduler, some runs keep both threads on
    one core and others bounce them between cores, and the median
    request latency differs by half between the two kinds of run.  With
    the interpreter lock only one thread runs at a time, so one core is
    enough and every run gets the same kind of hand-off.
    """
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def fingerprint() -> dict:
    """Commit, interpreter and machine facts stored with every result."""
    import numpy

    sha, dirty = "unknown", None
    if (ROOT / ".git").exists():
        head = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        status = subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=no"],
            cwd=ROOT,
            capture_output=True,
            text=True,
        )
        if head.returncode == 0:
            sha, dirty = head.stdout.strip(), bool(status.stdout.strip())
    return {
        "git_sha": sha,
        "git_dirty": dirty,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "loadavg_at_start": list(os.getloadavg()),
    }


def make_workload(name: str, seed: int, size: str):
    from perfbench.derive import Derive
    from perfbench.serve import ServeDynamic, ServeRepeat

    classes = {"serve_repeat": ServeRepeat, "serve_dynamic": ServeDynamic, "derive": Derive}
    return classes[name](seed, size)


def run_workload(name: str, seed: int, seconds: float, trace: bool, size: str = "paper"):
    """Run one workload in this process; returns a ``harness.Result``."""
    from perfbench import harness

    workload = make_workload(name, seed, size)
    if trace:
        return harness.run_traced(workload, OUT_DIR, f"{name}-seed{seed}")
    return harness.run_untraced(workload, seconds)


def result_json(result) -> dict:
    return {
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in result.metrics.items()
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size",
        choices=("paper", "tiny"),
        default="paper",
        help="input sizes; 'tiny' is for the benchmark's own tests",
    )
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no src/repro under {ROOT}; run from a checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    if args.workload == "all":
        return run_all(args)

    print(
        f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
        f"trace={args.trace} size={args.size}"
    )
    print(
        "fingerprint "
        + json.dumps({**fingerprint(), "pinned_cpu": pin_to_one_cpu()}, sort_keys=True)
    )
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    for line in result.report:
        print(line)
    fail_frac = result.failed / result.attempted if result.attempted else 0.0
    print(f"{'fail_frac':<32}{fail_frac:>16.6f} ratio ({result.failed}/{result.attempted})")
    for name, (value, unit) in result.metrics.items():
        print(f"{name:<32}{value:>16.6f} {unit}")
    print(json.dumps(result_json(result)))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, so peak RSS is its own."""
    results = {}
    for name in WORKLOADS:
        command = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--size", args.size,
        ]
        child = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
        sys.stdout.write(child.stdout)
        sys.stderr.write(child.stderr)
        if child.returncode != 0:
            return child.returncode
        results[name] = json.loads(child.stdout.strip().splitlines()[-1])
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
