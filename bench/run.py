"""chordcheck's benchmark: time to verdict for lemma checks, simulation and exploration.

    python3 bench/run.py --workload exhaustive|sampled|churn|explore \\
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; chordcheck is imported from src/.
Each workload runs in a fresh single-threaded worker process (bench/worker.py).
Set-up time is measured on ten workers that only set up, five before the
main worker and five after it. Each is scaled to the quiet host by reference
points timed just before it starts and just after it ends (see
reference.py), and the median is reported. The worker's metrics are printed one per
line, then a last line holding one JSON object with `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics of BENCHMARK.json untraced,
its per-layer metrics traced. A record of the run (verdict counts, seeds,
inputs, commit) is written under bench/out/runs/.

Exits 2 without a result if the checkout holds no chordcheck sources, and 1
if a worker fails or a metric is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import reference

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKER_TIMEOUT_S = 170
SETUP_PROBES = 10  # set-up-only workers, half before the main one and half after


def commit() -> str | None:
    """The checked-out commit, read from .git without running git; None outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def unit_of(name: str) -> str:
    """The unit of a metric outside BENCHMARK.json's list, from its name."""
    for suffix, unit in (("_ms", "ms"), ("_s", "s"), ("_mb", "MB")):
        if name.endswith(suffix):
            return unit
    return "ms" if name.startswith("step_ms.") else ""


def worker_command(args, setup_only: bool, spans_out: Path | None = None) -> list[str]:
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    if spans_out is not None:
        cmd += ["--spans-out", str(spans_out)]
    return cmd


def run_worker(cmd: list[str], deadline: float) -> tuple[float, dict | None]:
    """Start a worker; return seconds from start to READY and its parsed RESULT, if any."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    # Killing the worker at the deadline ends the read loop below.
    watchdog = threading.Timer(max(deadline - t0, 1), proc.kill)
    watchdog.start()
    setup_s = None
    result = None
    try:
        for line in proc.stdout:
            if line.startswith("READY") and setup_s is None:
                setup_s = time.perf_counter() - t0
            elif line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
        proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if proc.returncode != 0 or setup_s is None:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return setup_s, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("exhaustive", "sampled", "churn", "explore"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "chordcheck" / "__init__.py").is_file():
        print(f"no chordcheck sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    OUT.mkdir(exist_ok=True)
    (OUT / "runs").mkdir(exist_ok=True)
    deadline = time.perf_counter() + WORKER_TIMEOUT_S
    probe = worker_command(args, True)

    def setup_sample():
        before = reference.point()
        raw = run_worker(probe, deadline)[0]
        scale = reference.QUIET_UNIT_S / ((before + reference.point()) / 2)
        return raw * scale, raw

    setups = [setup_sample() for _ in range(SETUP_PROBES // 2)]
    # One spans file per workload, replaced by each traced run: they run to tens of MB.
    spans = OUT / f"spans-{args.workload}.bin.gz" if args.trace else None
    _, result = run_worker(worker_command(args, False, spans), deadline)
    setups += [setup_sample() for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
    if result is None:
        print("worker printed no result", file=sys.stderr)
        return 1

    produced = dict(result["perLayer"] if args.trace else result["metrics"])
    produced["setup_s"] = statistics.median(s for s, _ in setups)
    produced["setup_wall_s"] = statistics.median(raw for _, raw in setups)
    missing = [m["name"] for m in wanted if m["name"] not in produced]
    if missing:
        print(f"metrics not produced: {missing}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": produced[m["name"]], "unit": m["unit"]} for m in wanted}

    # An operation that raised failed; one whose output a check rejected was wrong.
    correct = result["wrong"] == 0
    for failure in result["failures"]:
        print(f"FAILED {failure}")
    print(f"workload {args.workload} seed {args.seed}: "
          f"{result['attempted']} operations attempted, {result['failed']} failed")
    units = {m["name"]: m["unit"] for m in wanted}
    for name, value in sorted(produced.items()):
        print(f"  {name} = {value:.6g} {units.get(name, unit_of(name))}".rstrip())

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit(),
        "python": sys.version.split()[0],
        "setupSamples": [{"scaled": s, "wall": raw} for s, raw in setups],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "failures": result["failures"],
        "metrics": produced,
        "inputs": result["inputs"],
        "rounds": result["rounds"],
    }
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    path = OUT / "runs" / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json"
    path.write_text(json.dumps(record, indent=1))

    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
