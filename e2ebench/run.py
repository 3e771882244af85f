"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 e2ebench/run.py --workload query_zipf --seed 1 --seconds 8 \\
        --trace 0

Each run starts the workload in a fresh interpreter (``workload.py``),
so fixture caches, BLAS warm-up and the memory high-water mark of one
workload never leak into another.  ``--trace 0`` runs the workload once,
untraced, and prints its end-to-end metrics.  ``--trace 1`` runs it
untraced and then traced, with the same seed and configuration, and
prints the per-layer metrics and the tracing overhead; end-to-end
numbers always come from untraced runs.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: BLAS threads in every workload process: at most ``nproc`` on any
#: host, and the same for every run, so compared runs share it.  One
#: client thread and one BLAS thread keep runs steady on a shared host.
BLAS_THREADS = 1
_BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                     "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                     "VECLIB_MAXIMUM_THREADS")
#: glibc's mmap threshold, fixed: by default it rises after each large
#: free, so how much freed memory the heap keeps (and so the memory
#: high-water mark) would depend on how many queries a run fits.
MALLOC_MMAP_THRESHOLD = 1 << 20
#: Longest the workload processes of one command may run together
#: (``--trace 1`` runs two); the whole command has to end within 180
#: seconds.
WORKLOAD_TIMEOUT_S = 170


class WorkloadError(RuntimeError):
    """A workload process failed, or disagreed with its traced twin."""


def parse_args(argv=None):
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload and print its metrics.")
    parser.add_argument("--workload", required=True,
                        choices=metrics.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_workload(args, *, traced: bool, deadline: float) -> dict:
    """Run the workload in a fresh interpreter; return its JSON result.

    Raises:
        WorkloadError: when the process fails or prints no result.
        subprocess.TimeoutExpired: when it runs past ``deadline`` (a
            ``time.monotonic()`` value); it is killed and waited for
            first.
    """
    env = dict(os.environ)
    env.update({name: str(BLAS_THREADS) for name in _BLAS_THREAD_VARS})
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["MALLOC_MMAP_THRESHOLD_"] = str(MALLOC_MMAP_THRESHOLD)
    env.pop("REPRO_BENCH_FIXTURE_CACHE", None)
    command = [sys.executable, str(HERE / "workload.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds),
               "--trace", str(int(traced))]
    proc = subprocess.run(command, cwd=ROOT, env=env,
                          stdout=subprocess.PIPE, text=True,
                          timeout=max(deadline - time.monotonic(), 1.0),
                          check=False)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        raise WorkloadError(
            f"{args.workload} (trace {int(traced)}) exited with code "
            f"{proc.returncode}")
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1])


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    deadline = time.monotonic() + WORKLOAD_TIMEOUT_S
    try:
        runs = [run_workload(args, traced=False, deadline=deadline)]
        if args.trace:
            runs.append(run_workload(args, traced=True, deadline=deadline))
            plain, traced = runs
            if plain["config"] != traced["config"] \
                    or plain["inputs"] != traced["inputs"]:
                raise WorkloadError(
                    "the traced and untraced runs differ in ServingConfig "
                    "or inputs")
            values = dict(traced["layers"])
            values["trace.overhead"] = (plain["e2e"]["query_qps"]
                                        / traced["e2e"]["query_qps"] - 1.0)
            table = metrics.PER_LAYER
        else:
            values = runs[0]["e2e"]
            table = metrics.END_TO_END
        result = {name: {"value": values[name], "unit": unit}
                  for name, unit, *_ in table}
        bad = [name for name, metric in result.items()
               if not math.isfinite(metric["value"])]
        if bad:
            raise WorkloadError(f"non-finite metrics: {bad}")
    except (WorkloadError, subprocess.TimeoutExpired, KeyError,
            ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    attempted = sum(run["attempted"] for run in runs)
    failed = sum(run["failed"] for run in runs)
    print(f"# error_rate = {failed / max(attempted, 1):.6g} "
          f"({failed} of {attempted} operations failed or wrong)")
    for name, unit, _better, *moves in table:
        note = f"  -> {moves[0]}" if moves else ""
        print(f"{name:30s} {result[name]['value']:>14.6g} {unit}{note}")
    print(json.dumps({"correct": failed == 0 and attempted > 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
