"""qsearch benchmark.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout. NAME is one of WORKLOADS, or ``all`` to
run each in turn. Every run starts fresh workload processes
(perfbench/worker.py): one that sets up and measures, with
SETUP_SAMPLES - 1 that only set up around it. With ``--trace 0`` it prints the end-to-end
metrics; with ``--trace 1`` it makes one traced run and prints the
per-layer metrics. The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics. Spans, the full result and
the machine facts are left in .perfbench/<workload>/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

from tracing import LAYER_FUNCTIONS

WORKLOADS = ("recipes_cli", "dense_closed", "open_full", "sweep")
SETUP_SAMPLES = 5
HERE = os.path.dirname(os.path.abspath(__file__))


def spawn(workload: str, seed: int, seconds: float, trace: int, work: str, setup_only: bool):
    """Start one workload process; returns (seconds to READY, its result or None)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), workload, str(seed), str(seconds), str(trace), work]
    if setup_only:
        cmd.append("--setup-only")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    setup_s = result = None
    try:
        for line in proc.stdout:
            if line.startswith("READY"):
                setup_s = time.perf_counter() - start
            elif line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
        code = proc.wait()
    finally:
        if proc.poll() is None:
            proc.terminate()
            proc.wait()
    if code != 0 or setup_s is None or (result is None and not setup_only):
        raise RuntimeError(f"workload process for {workload} failed (exit {code})")
    return setup_s, result


def run_workload(workload: str, seed: int, seconds: float, trace: int):
    """(attempted, failed, {metric: (value, unit)}, sample notes, worker result)."""
    work = os.path.join(os.getcwd(), ".perfbench", workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    if trace:
        _, res = spawn(workload, seed, seconds, 1, work, False)
        untraced_wall = statistics.median(p["wall"] for p in res["untraced"])
        metrics = {}
        for module, func in LAYER_FUNCTIONS:
            calls, self_s = res["layers"].get(f"{module}.{func}", (0, 0.0))
            metrics[f"{module}.{func}.calls"] = (calls, "count")
            metrics[f"{module}.{func}.self_s"] = (self_s, "s")
        metrics["cli.import_s"] = (res["import_s"], "s")
        metrics["experiments.bytes_written"] = (res["bytes_written"], "bytes")
        metrics["trace.overhead_s"] = (statistics.median(res["traced_wall"]) - untraced_wall, "s")
        passes = len(res["untraced"]) + len(res["traced_wall"])
        attempted = passes * len(res["untraced"][0]["tasks"])
        failed = sum(p["failed"] for p in res["untraced"]) + res["traced_failed"]
        notes = {"trace.overhead_s": f"{len(res['traced_wall'])} traced vs {len(res['untraced'])} untraced passes"}
    else:
        # set-up probes on both sides of the measuring process, so the
        # median spans the run rather than a few seconds of machine state
        probes = SETUP_SAMPLES - 1
        setups = [spawn(workload, seed, seconds, 0, work, True)[0] for _ in range(probes // 2)]
        setup_s, res = spawn(workload, seed, seconds, 0, work, False)
        setups.append(setup_s)
        setups += [spawn(workload, seed, seconds, 0, work, True)[0] for _ in range(probes - probes // 2)]
        passes = res["untraced"]
        # each task's median over the passes, so unlike tasks are not pooled
        per_task = [statistics.median(times) for times in zip(*(p["tasks"] for p in passes))]
        attempted, failed = len(passes) * len(per_task), sum(p["failed"] for p in passes)
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "wall_s": (statistics.median(p["wall"] for p in passes), "s"),
            "task_s.p50": (statistics.median(per_task), "s"),
            "task_s.max": (max(per_task), "s"),
            "peak_rss_mb": (res["peak_rss_mb"], "MB"),
        }
        samples = f"{len(per_task)} tasks x {len(passes)} passes"
        notes = {"setup_s": len(setups), "wall_s": len(passes), "task_s.p50": samples, "task_s.max": samples}
    with open(os.path.join(work, "result.json"), "w") as f:
        json.dump({"workload": workload, "trace": trace, "metrics": metrics, "worker": res}, f, indent=1)
    return attempted, failed, metrics, notes, res


def report(workload: str, attempted: int, failed: int, metrics: dict, notes: dict, res: dict) -> None:
    print(f"machine {json.dumps(res['machine'], sort_keys=True)}")
    if res.get("absent"):
        print(f"absent layers (reported as 0): {' '.join(res['absent'])}")
    print(f"workload {workload}")
    for name, (value, unit) in metrics.items():
        samples = f"  (n={notes[name]})" if name in notes else ""
        print(f"  {name:42s} {value:14.6g} {unit}{samples}")
    print(f"  {'failed_frac':42s} {failed / attempted:14.6g} 1  ({failed}/{attempted} tasks)")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (os.path.isfile(os.path.join("src", "qsearch", "__init__.py")) and os.path.isdir("recipes")):
        print("error: run from the root of a qsearch checkout (src/qsearch and recipes/ not found)", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    for workload in names:
        attempted, failed, metrics, notes, res = run_workload(workload, args.seed, args.seconds, args.trace)
        report(workload, attempted, failed, metrics, notes, res)
        total["correct"] = total["correct"] and failed == 0
        total["attempted"] += attempted
        total["failed"] += failed
        prefix = "" if len(names) == 1 else f"{workload}/"
        for name, (value, unit) in metrics.items():
            total["metrics"][prefix + name] = {"value": value, "unit": unit}
    print(json.dumps(total))
    return 0


if __name__ == "__main__":
    sys.exit(main())
