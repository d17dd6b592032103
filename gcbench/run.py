"""Benchmark of graphcomplex: one command per workload and seed.

    python3 gcbench/run.py --workload {cohomology,operators,spqr} \
        --seed N --seconds S --trace {0,1}

Makes the workload's inputs from the seed, then runs short rounds of it,
each in a fresh worker process (so the program's caches start cold, as for
every CLI user), one after another (a closed loop of one caller).  The
number of rounds is ``--seconds`` divided by the workload's nominal round
time on a 2-core machine, at least one.  It is fixed before the first round,
so that a slow first round does not also shorten the run and bias the
median; only a host so slow that the run would pass 1.4 times
``--seconds`` stops it early.  ``cohomology`` and ``operators`` repeat the
same inputs in every round; each ``spqr`` round draws its own graphs from
the seed, so that a run's median covers more graphs than one round holds.
Every time reported is scaled to the reference host speed by a
calibration timed next to each round (see CALIBRATION_REFERENCE_S).
Checks every distinct round input's outputs against independent
computations and requires rounds with the same inputs to give the same
outputs.  The last line of stdout is one JSON object: end-to-end metrics
(medians over the rounds) with ``--trace 0``, per-layer metrics from
wrapped calls with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import inputs  # noqa: E402

WORKER = os.path.join(HERE, "worker.py")
CALIBRATION = os.path.join(HERE, "calibration.py")
HARD_LIMIT_S = 170.0

# every non-zero biconnected class of these (vertices, edges) strata, in a
# seeded labeling: 1 + 5 classes
OPERATOR_STRATA = ((7, 11, 1), (7, 12, 5))
SPQR_GRAPHS_PER_SIZE = 3  # per round, vertex counts 10..20
# seconds per round on the 2-core reference machine at its fast speed,
# worker start, output export and calibrations included (README)
NOMINAL_ROUND_S = {"cohomology": 1.1, "operators": 2.4, "spqr": 2.2}

# The host's speed swings about 1.6x, for every process alike, in episodes
# of seconds whose mix drifts over minutes (README, "Host speed").  A fixed
# calibration (calibration.py) is timed by the worker right before its
# timed calls and in a fresh interpreter right after the worker exits; a
# round's times are scaled by CALIBRATION_REFERENCE_S, the calibration's
# time on the reference machine at its fast speed, over the mean of the
# two.  The raw times are printed too.
CALIBRATION_REFERENCE_S = 0.065


def make_inputs(workload: str, seed: int, round_index: int) -> dict:
    if workload == "cohomology":
        return {"loop_order": inputs.COHOMOLOGY_LOOP_ORDER}
    if workload == "operators":
        graphs = inputs.operator_samples(seed, OPERATOR_STRATA)
        rng = random.Random(seed)
        return {"graphs": graphs, "adjoint_picks": [rng.randrange(2**31) for _ in graphs]}
    if workload == "spqr":
        # a fresh draw per round; rounds of one run never share a seed
        return {"graphs": inputs.spqr_samples(seed * 1000 + round_index, SPQR_GRAPHS_PER_SIZE)}
    raise ValueError(workload)


def calibrate() -> float:
    proc = subprocess.run([sys.executable, CALIBRATION], capture_output=True, text=True, timeout=30, check=True)
    return float(proc.stdout)


def run_round(request: str, deadline: float) -> dict:
    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, WORKER],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        out, err = proc.communicate(request, timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired:
        raise RuntimeError("worker exceeded the time limit") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if proc.returncode != 0 or not out.strip():
        raise RuntimeError(f"worker exited with {proc.returncode}: {err.strip()[-2000:]}")
    res = json.loads(out.splitlines()[-1])
    res["setup_s"] = res["t_ready"] - started
    return res


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=("cohomology", "operators", "spqr"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # on SIGTERM, unwind through run_round's cleanup so no worker outlives us
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    start = time.perf_counter()
    deadline = start + HARD_LIMIT_S
    planned = max(1, int(args.seconds // NOMINAL_ROUND_S[args.workload]))
    # on a host far slower than the reference, stop early rather than run
    # far past --seconds (and never past the exit deadline)
    budget = min(HARD_LIMIT_S - 10, 1.4 * args.seconds)
    requests: list[tuple[dict, str]] = []
    rounds: list[dict] = []
    while len(rounds) < planned:
        elapsed = time.perf_counter() - start
        if rounds and elapsed + elapsed / len(rounds) > budget:
            break
        workload_inputs = make_inputs(args.workload, args.seed, len(rounds))
        request = json.dumps({"workload": args.workload, "trace": args.trace, "inputs": workload_inputs})
        requests.append((workload_inputs, request))
        r = run_round(request, deadline)
        r["calibrations_s"] = (r["calibration_s"], calibrate())
        r["scale"] = CALIBRATION_REFERENCE_S / statistics.fmean(r["calibrations_s"])
        rounds.append(r)

    from checks import CHECKS  # imports networkx; only after every timed process ended

    failures: dict[str, list[str]] = {}
    first_output: dict[str, object] = {}  # request -> output of its first round
    for (workload_inputs, request), r in zip(requests, rounds):
        if request in first_output:
            if r["output"] != first_output[request]:
                failures.setdefault("repeatable", []).append(
                    "a later round gave other outputs than the first on the same inputs")
            continue
        first_output[request] = r["output"]
        if r["output"] is not None:
            for name, messages in CHECKS[args.workload](workload_inputs, r["output"]).items():
                failures.setdefault(name, []).extend(messages)
        elif not r["failed"]:
            failures.setdefault("output", []).append("the worker returned no output")
    foreign = sorted({m for r in rounds for m in r["foreign_modules"]})
    if foreign:
        failures["stdlib_only"] = [f"the timed process imported {foreign}"]

    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    print(f"workload {args.workload} seed {args.seed}: {len(rounds)} round(s), "
          f"{attempted} operations attempted, {failed} failed")
    print("  raw round wall times: " + ", ".join(f"{r['wall_s']:.3f} s" for r in rounds))
    print("  raw round set-up times: " + ", ".join(f"{r['setup_s']:.3f} s" for r in rounds))
    print("  scaled round wall times: " + ", ".join(f"{r['wall_s'] * r['scale']:.3f} s" for r in rounds))
    print("  calibrations: " + ", ".join("{:.3f}/{:.3f} s".format(*r["calibrations_s"]) for r in rounds))
    for r in rounds:
        for error in r["errors"]:
            print(f"  failed: {error}")
    for name, messages in sorted(failures.items()):
        print(f"  check {name} FAILED ({len(messages)}): {'; '.join(messages[:3])}")
    if not failures:
        print("  all output checks passed")

    if args.trace:
        metrics = {}
        for name in rounds[0]["layer"]:
            unit = unit_of(name)
            scaled = unit in ("s", "us")
            values = [r["layer"][name] * (r["scale"] if scaled else 1) for r in rounds]
            metrics[name] = {"value": statistics.median(values), "unit": unit}
    else:
        metrics = {
            "scaled_wall_s": {"value": statistics.median(r["wall_s"] * r["scale"] for r in rounds), "unit": "s"},
            # every round starts a fresh interpreter, so every round's set-up
            # (worker spawn until its inputs are program graphs) is a cold one
            "setup_s": {"value": statistics.median(r["setup_s"] * r["scale"] for r in rounds), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"] for r in rounds), "unit": "MiB"},
        }
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("us_per_call"):
        return "us"
    if name.endswith("_share") or name.endswith("per_class"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
