"""One measured process of a benchmark run; started by run.py, not by hand.

It sets its workload up, runs whole rounds of the workload's operations for
at least ``--seconds`` seconds, reads its peak resident memory, then checks
every round's outputs and prints one JSON line.  ``--t0`` is the parent's
monotonic clock reading just before this process was started, so set-up time
counts interpreter start and imports.  ``--setup-only`` stops after set-up.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from spans import Tracer  # noqa: E402


def _cpu() -> float:
    r = resource.getrusage(resource.RUSAGE_SELF)
    return r.ru_utime + r.ru_stime


def _blas() -> dict:
    """OpenBLAS libraries loaded in this process, with their config and thread count."""
    found = {}
    with open("/proc/self/maps") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line}
    names = [
        (f"{prefix}get_num_threads{suffix}", f"{prefix}get_config{suffix}")
        for prefix in ("scipy_openblas_", "openblas_") for suffix in ("64_", "")
    ]
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        found[Path(path).name] = {}
        for threads_name, config_name in names:
            threads, config = getattr(lib, threads_name, None), getattr(lib, config_name, None)
            if threads and config:
                config.restype = ctypes.c_char_p
                found[Path(path).name] = {"threads": int(threads()), "config": config().decode()}
                break
    return found


def _environment(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "blas": _blas(),
        "seed": seed,
    }


def _pass(ops) -> tuple[list, int, float, float]:
    """Run one round's operations in order; an exception fails the rest of the round."""
    outputs = []
    w0, c0 = time.perf_counter(), _cpu()
    for i, op in enumerate(ops):
        try:
            outputs.append(op())
        except Exception:
            traceback.print_exc()
            return outputs, len(ops) - i, time.perf_counter() - w0, _cpu() - c0
    return outputs, 0, time.perf_counter() - w0, _cpu() - c0


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    work = workloads.WORKLOADS[args.workload]
    out_dir = Path(args.out)

    state = work.setup(args.seed, out_dir)
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    rounds, traced, failed = [], [], 0
    start = time.perf_counter()
    while True:
        outputs, lost, wall, cpu = _pass(work.operations(state))
        rounds.append({"outputs": outputs, "wall_s": wall, "cpu_s": cpu})
        failed += lost
        if args.trace:
            tracer = Tracer()
            with tracer.installed():
                outputs, lost, wall, cpu = _pass(work.operations(state))
            traced.append({"outputs": outputs, "wall_s": wall, "tracer": tracer})
            failed += lost
        if time.perf_counter() - start >= args.seconds:
            break
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # No operation of these workloads is expected to fail, so a round that
    # raised leaves outputs unchecked and the run is not correct.
    fails = [f"{failed} of {work.ops * (len(rounds) + len(traced))} operations raised"] if failed else []
    for r in rounds + traced:
        if len(r["outputs"]) == work.ops:
            fails += work.check(state, r["outputs"])
    for msg in fails:
        print(f"check failed: {msg}", file=sys.stderr)

    result = {
        "setup_s": setup_s,
        "attempted": work.ops * (len(rounds) + len(traced)),
        "failed": failed,
        "correct": not fails,
        "wall_s": [r["wall_s"] for r in rounds],
        "cpu_s": [r["cpu_s"] for r in rounds],
        "peak_rss_mib": peak_rss_mib,
        "nodes": work.nodes,
        "environment": _environment(args.seed),
    }
    if traced:
        result["traced_wall_s"] = [r["wall_s"] for r in traced]
        result["layers"] = [r["tracer"].summary() for r in traced]
        result["counters"] = [
            work.counters(r["outputs"]) if len(r["outputs"]) == work.ops else {} for r in traced
        ]
        result["spans"] = sum(len(r["tracer"].spans) for r in traced)
        traced[0]["tracer"].write(out_dir / "spans.json")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
