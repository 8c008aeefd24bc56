"""dqra benchmark: one workload (or all four) per call, each in fresh
processes; prints every metric by name with its unit and sample count, and
as its last line one JSON object with the result.

    python3 perfbench/run.py --workload fullalg --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all                  # all four, untraced
    python3 perfbench/run.py --workload search --trace 1     # per-layer metrics

See perfbench/README.md for the workloads and the metrics.
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

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("fullalg", "kernel", "search", "catalogue")
DEFAULT_SEED = 1
SETUP_SAMPLES = 7       # set-up is timed this many times per run (median)
RUN_TIMEOUT_S = 170.0

END_TO_END = {
    "items_per_s": "1/s",
    "item_p50_ms": "ms",
    "item_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def spawn(workload: str, seed: int, seconds: float, trace: int,
          setup_only: bool, timeout: float) -> tuple[float, dict]:
    """Run worker.py in a fresh process; returns (wall seconds of set-up,
    from process start to the worker's first timed item, the worker's JSON
    result)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    # one caller, one thread: keep numpy's native pools single-threaded
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    started = time.time()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          text=True, timeout=timeout)
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: worker exited with {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result["ready"] - started, result


def expected_digest(workload: str, seed: int) -> str | None:
    recorded = json.loads((HERE / "expected_digests.json").read_text())
    return recorded["digests"][workload] if seed == recorded["seed"] else None


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    # set-up is timed in separate processes before and after the measured
    # one, so that its median does not hang on one moment of machine load
    deadline = time.monotonic() + RUN_TIMEOUT_S
    extra = SETUP_SAMPLES - 1
    runs = [spawn(workload, seed, seconds, trace, True, 60)
            for _ in range(extra // 2)]
    runs.append(spawn(workload, seed, seconds, trace, False,
                      deadline - time.monotonic() - 20))
    res = runs[-1][1]
    runs += [spawn(workload, seed, seconds, trace, True, 60)
             for _ in range(extra - extra // 2)]
    raw_setups = [wall for wall, _ in runs]
    # each set-up scaled by the speed measured right after it (calibrate.py)
    setups = [wall * r["setup_speed"] for wall, r in runs]

    attempted, failed = res["attempted"], res["failed"]
    lat = res["slot_lat"]
    want = expected_digest(workload, seed)
    if want is not None and res["digest"] != want:
        failed += 1
        print(f"{workload}: output digest {res['digest']} != expected {want}",
              file=sys.stderr)
    print(f"{workload}: seed {seed}, {res['input_size']}")
    print(f"{workload}: {res['cycles']} cycles of {len(lat)} slots, "
          f"{res['timed']} timed items, digest {res['digest']}")
    if res["cycles"] < res["planned_cycles"]:
        print(f"{workload}: stopped after {res['cycles']} of "
              f"{res['planned_cycles']} planned cycles (time limit)",
              file=sys.stderr)
    print(f"{workload}: fail_rate = {failed / attempted} "
          f"({failed} failed / {attempted} attempted)")
    print(f"{workload}: verdicts per cycle: " + ", ".join(
        f"{v} {n / res['cycles']:g}" for v, n in sorted(res["verdicts"].items())))
    ref = res["reference_s"]
    print(f"{workload}: reference task {ref['median'] * 1e3:.4f} ms "
          f"(q1 {ref['q1'] * 1e3:.4f}, q3 {ref['q3'] * 1e3:.4f}, "
          f"{ref['samples']} samples; calibrated to "
          f"{calibrate.REFERENCE_S * 1e3} ms)")

    if not trace:
        metrics = latency_metrics(lat)
        metrics["setup_s"] = statistics.median(setups)
        metrics["peak_rss_mb"] = res["peak_rss_mb"]
        p90 = metrics["item_p90_ms"] / 1e3
        wall = latency_metrics(res["raw_slot_lat"])
        print(f"{workload}: uncalibrated wall time: " + ", ".join(
            f"{name} = {value}" for name, value in wall.items())
            + f", setup_s = {statistics.median(raw_setups)}")
        per_slot = (f"n={len(lat)} slots, each the median of "
                    f"{res['cycles']} calibrated times")
        samples = {"items_per_s": f"{per_slot}; {sum(lat):.4f} s per cycle",
                   "item_p50_ms": per_slot,
                   "item_p90_ms": f"{per_slot}; "
                                  f"{sum(x > p90 for x in lat)} above",
                   "setup_s": f"median of {len(setups)} processes",
                   "peak_rss_mb": "worker process"}
        units = END_TO_END
    else:
        plain = sum(lat)
        traced = sum(res["traced_slot_lat"])
        metrics = dict(res["layers"])
        metrics["trace.untraced_s"] = plain
        metrics["trace.traced_s"] = traced
        metrics["trace.overhead_frac"] = (traced - plain) / plain
        units = {name: layer_unit(name) for name in metrics}
        samples = {name: f"per traced cycle, {res['traced_cycles']} of "
                         f"{res['cycles']} cycles traced; set-up spans once"
                   for name in metrics}
        for layer, share in res["shares"].items():
            print(f"{workload}: self-time share {layer} = {share:.4f}")
        print(f"{workload}: spans written to {res['spans_file']}")
    for name, value in metrics.items():
        print(f"{workload}: {name} = {value} {units[name]} ({samples[name]})")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()}}


def latency_metrics(lat: list[float]) -> dict[str, float]:
    p90 = statistics.quantiles(lat, n=10, method="inclusive")[8]
    return {"items_per_s": len(lat) / sum(lat),
            "item_p50_ms": statistics.median(lat) * 1e3,
            "item_p90_ms": p90 * 1e3}


def layer_unit(name: str) -> str:
    if name.endswith("_s") or name == "reconstruct.s":
        return "s"
    if name.endswith(("_frac", "_per_upset")):
        return "ratio"
    return "count"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20,
                    help="run length at the seed commit's speed: fixes the "
                         "number of cycles (see README.md)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "dqra" / "__init__.py").is_file():
        print(f"no dqra sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    if args.workload != "all":
        result = run_workload(args.workload, args.seed, args.seconds,
                              args.trace)
    else:
        results = {w: run_workload(w, args.seed, args.seconds, args.trace)
                   for w in WORKLOADS}
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{name}": m for w, r in results.items()
                        for name, m in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
