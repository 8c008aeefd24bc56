"""One benchmark process: set up one workload, run whole cycles of items in
a closed loop and print a JSON result as the last line of stdout.

Started by run.py, one fresh process per workload run, so that set-up time
and peak memory belong to that workload alone.  With --setup-only it stops
once the inputs are ready (run.py repeats set-up to take its median).
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import statistics
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

MIN_CYCLES = 3          # each slot's latency is the median of >= 3 cycles
HARD_LIMIT_S = 110.0    # safety stop: start no cycle past this, so as to
                        # exit well within 180 s on a very slow machine


def import_library():
    """Import dqra from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import dqra
    if Path(dqra.__file__).resolve().parent != src / "dqra":
        raise SystemExit(f"dqra imported from {dqra.__file__}, not {src}")


def planned_cycles(workload, seconds: float, trace: bool) -> int:
    """The number of cycles a run makes.  It depends on the workload and
    `seconds` only, not on how fast the program runs, so both sides of a
    comparison take each slot's median over the same number of
    repetitions.  `workload.cycle_s` is a cycle's wall time at the seed
    commit, so a run of the seed commit lasts about `seconds`.  A traced run
    alternates untraced and traced cycles, so it makes an even number, and
    at least MIN_CYCLES of each kind."""
    n = max(MIN_CYCLES, round(seconds / workload.cycle_s))
    return max(2 * MIN_CYCLES, n + n % 2) if trace else n


def run_pass(workload, tracer, cycles: int, alternate: bool) -> dict:
    """Run `cycles` whole cycles (fewer only if HARD_LIMIT_S is reached).
    Every cycle has the same slots and inputs.  `slot_lat[j]` is slot j's
    calibrated latency: the median over the cycles of its wall time, each
    scaled to the reference speed of the moment it ran (see calibrate.py).
    With `alternate`, every second cycle is traced, so that untraced and
    traced cycles share the machine's ups and downs; each kind keeps its
    own slot latencies.  The output digest covers a whole cycle, and every
    cycle must reproduce the first one's.

    Before each item, outside its timed region, the cyclic garbage
    collector runs, and set-up's objects are frozen out of its scans first.
    So every item starts on the same heap: the peak RSS of a run then no
    longer hangs on how much garbage earlier items had left when the
    largest one ran (0.06 spread over seeds on `search` without it), and no
    item pays for collecting another's garbage."""
    timed: list[tuple[bool, int, float, float]] = []  # traced, slot, t0, t1
    refs: list[tuple[float, float]] = []  # reference task: midpoint, seconds
    digests: list[str] = []
    failed = attempted = 0
    verdicts: Counter[str] = Counter()
    c = traced = 0
    start = time.perf_counter()
    refs.append(calibrate.timed_task())
    gc.freeze()

    while c < cycles and time.perf_counter() - start <= HARD_LIMIT_S:
        if alternate:
            tracer.enabled = c % 2 == 1
        traced += tracer.enabled
        parts: list[bytes] = []
        for j, item in enumerate(workload.cycle()):
            tracer.item = f"{c}:{j}:{item.id}"
            attempted += 1
            gc.collect()
            if time.perf_counter() - refs[-1][0] >= calibrate.EVERY_S:
                refs.append(calibrate.timed_task())
            try:
                t0 = time.perf_counter()
                with tracer.span("item"):
                    out = item.run(tracer)
                timed.append((tracer.enabled, j, t0, time.perf_counter()))
                if tracer.enabled and item.shadow is not None:
                    item.shadow(tracer, out)
                digest, problems, verdict = item.check(out)
            except Exception:
                digest, verdict = b"exception", "exception"
                problems = ["exception:\n" + traceback.format_exc()]
            verdicts[verdict] += 1
            parts.append(f"{j}:{item.id}".encode() + b"\0" + digest)
            if problems:
                failed += 1
                print(f"FAIL {item.id}: " + "; ".join(problems), file=sys.stderr)
        digests.append(digest_hex(parts))
        if digests[-1] != digests[0]:
            failed += 1
            print(f"FAIL cycle {c}: output digest differs from cycle 0",
                  file=sys.stderr)
        c += 1
    refs.append(calibrate.timed_task())

    speed = calibrate.Speed(refs)
    by_slot: dict[bool, dict[int, list[float]]] = {False: {}, True: {}}
    raw: dict[int, list[float]] = {}
    for was_traced, j, t0, t1 in timed:
        by_slot[was_traced].setdefault(j, []).append(
            (t1 - t0) * speed.factor(t0, t1))
        if not was_traced:
            raw.setdefault(j, []).append(t1 - t0)

    def medians(slots: dict[int, list[float]]) -> list[float]:
        return [statistics.median(v) for _, v in sorted(slots.items())]

    return {"slot_lat": medians(by_slot[False]),
            "traced_slot_lat": medians(by_slot[True]),
            "raw_slot_lat": medians(raw),
            "reference_s": speed.summary(),
            "timed": len(timed),
            "attempted": attempted, "failed": failed, "cycles": c,
            "traced_cycles": traced, "verdicts": verdicts,
            "digest": digests[0]}


def digest_hex(parts: list[bytes]) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(len(p).to_bytes(8, "little"))
        h.update(p)
    return h.hexdigest()


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    import_library()
    from spans import Tracer, layer_metrics, self_time_shares
    from workloads import SETUPS

    tracer = Tracer(bool(args.trace))
    setup = SETUPS[args.workload]
    if args.workload == "catalogue":
        workload = setup(args.seed, tracer, OUT / f"catalogue-{args.seed}")
    else:
        workload = setup(args.seed, tracer)
    ready = time.time()
    # the machine's speed just after set-up, to calibrate set-up time
    result = {"ready": ready,
              "setup_speed": calibrate.Speed.around_now().factor_now()}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    result["input_size"] = workload.input_size
    cycles = planned_cycles(workload, args.seconds, bool(args.trace))
    result["planned_cycles"] = cycles
    result.update(run_pass(workload, tracer, cycles, bool(args.trace)))
    if args.trace:
        result["layers"] = layer_metrics(tracer, result["traced_cycles"])
        result["shares"] = self_time_shares(tracer)
        spans_path = OUT / f"spans-{args.workload}-{args.seed}.jsonl"
        tracer.write(spans_path)
        result["spans_file"] = str(spans_path.relative_to(ROOT))
    result["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
