"""Run one benchmark workload and print its metrics as the last line of output.

    python3 bench/run.py --workload landau --seed 1 --seconds 5 --trace 0

Run from the root of a source checkout: the program is imported from
``src/``.  The metrics and their units are the ones ``BENCHMARK.json``
lists: the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  Set-up time is the median over nine fresh processes; the
measured process (worker.py) reports the rest.  The line before the result
records the machine, the toolchain, the BLAS thread count and the seed.
Run outputs go to ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import MEASURED

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 9  # set-up processes per run, the measured one included
DEADLINE_S = 170.0


def _child(args, extra: list[str], deadline: float) -> dict:
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(len(os.sched_getaffinity(0))))
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--out", str(args.out), "--t0", repr(time.monotonic()),
    ] + extra
    proc = subprocess.run(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        timeout=max(deadline - time.monotonic(), 1.0),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def span_stat(name: str) -> tuple[str, str] | None:
    """The (span, statistic) a per-layer metric reads, or None for a derived one.

    ``<span>_calls`` is the span's call count and ``<span>_s`` its self time.
    """
    for suffix, key in (("_calls", "calls"), ("_s", "self_s")):
        span = name.removesuffix(suffix)
        if span != name and span in MEASURED:
            return span, key
    return None


def per_layer(res: dict, names: list[str]) -> dict[str, float]:
    passes = res["layers"]
    out = {}
    for name in names:
        stat = span_stat(name)
        if stat is not None:
            out[name] = statistics.median(layer[stat[0]][stat[1]] for layer in passes)
    iterations = statistics.median(c.get("variational.mp_iterations", 0) for c in res["counters"])
    out["variational.mp_iterations"] = iterations
    out["variational.energy_calls_per_iteration"] = (
        out["variational.energy_calls"] / iterations if iterations else 0.0
    )
    for op in ("horizontal_gradient", "p_sublaplacian"):
        calls = out[f"operators.{op}_calls"]
        total = statistics.median(layer[f"operators.{op}"]["total_s"] for layer in passes)
        out[f"operators.{op}_ns_per_node"] = 1e9 * total / calls / res["nodes"] if calls else 0.0
    out["trace.overhead_s"] = statistics.median(res["traced_wall_s"]) - statistics.median(res["wall_s"])
    out["trace.spans"] = res["spans"] / len(passes)
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "heislab" / "__init__.py").is_file():
        print(f"no heislab sources under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    args.out = ROOT / ".bench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    args.out.mkdir(parents=True, exist_ok=True)

    # The machine's speed drifts over tens of seconds, so the set-up-only
    # processes run half before and half after the measured one.
    def setup_only(count: int) -> list[float]:
        return [
            _child(args, ["--seconds", "0", "--setup-only"], deadline)["setup_s"]
            for _ in range(count)
        ]

    before = (SETUP_SAMPLES - 1) // 2
    setups = setup_only(before)
    res = _child(args, ["--seconds", str(args.seconds), "--trace", str(args.trace)], deadline)
    setups += [res["setup_s"]] + setup_only(SETUP_SAMPLES - 1 - before)

    if args.trace:
        wanted = spec["per_layer"]
        values = per_layer(res, [m["name"] for m in wanted])
    else:
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(res["wall_s"]),
            "cpu_s": statistics.median(res["cpu_s"]),
            "peak_rss_mib": res["peak_rss_mib"],
        }
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    record = {
        "workload": args.workload, "trace": args.trace, "rounds": len(res["wall_s"]),
        "setup_samples_s": setups, "environment": res["environment"],
    }
    print(json.dumps({"run": record}))
    (args.out / "result.json").write_text(json.dumps({"run": record, "metrics": metrics}, indent=1))
    print(json.dumps({
        "correct": res["correct"], "attempted": res["attempted"],
        "failed": res["failed"], "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
