"""The repository's benchmark: one workload, measured from outside.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  Workloads (see ``workloads.py`` and
``README.md``): ``steady_stream``, ``churn_replan``.

``--trace 0`` prints the end-to-end metrics: set-up time over several
fresh interpreters, then host throughput, latency and memory of a fresh
process that runs only the workload for ``--seconds``.  ``--trace 1``
prints the per-layer metrics of a profiled run instead.  The last line of
standard output is one JSON object; any failed output check, or a
program that cannot be imported, ends the run with a non-zero code and no
result line.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
#: Fresh interpreters timed for ``setup_s`` besides the measuring one.
SETUP_SAMPLES = 6
#: Upper bound on one worker process [s], so a hung run still ends.
WORKER_TIMEOUT_S = 150.0


class BenchmarkError(RuntimeError):
    pass


def worker_env():
    """The caller's environment without ``REPRO_*`` variables (the
    benchmark measures the default configuration) and with Python's default
    bytecode caching, with the checkout's sources first on the import path
    and a fixed hash seed."""
    env = {
        key: value
        for key, value in os.environ.items()
        if not key.startswith("REPRO_") and key != "PYTHONDONTWRITEBYTECODE"
    }
    path = [str(ROOT / "src")] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    env["PYTHONPATH"] = os.pathsep.join(path)
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(mode, workload, seed, seconds):
    """Start one worker; return (seconds until it reported ``ready``,
    its JSON report or None)."""
    args = [sys.executable, str(WORKER), mode, workload, str(seed), repr(seconds)]
    env = worker_env()
    start = time.perf_counter()
    with subprocess.Popen(args, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True) as proc:
        try:
            ready = proc.stdout.readline()
            setup_s = time.perf_counter() - start
            out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise BenchmarkError(
                f"{mode} worker for {workload} ran over {WORKER_TIMEOUT_S:g} s"
            ) from None
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if proc.returncode != 0 or ready.strip() != "ready":
        raise BenchmarkError(f"{mode} worker for {workload} failed (exit {proc.returncode})")
    lines = out.strip().splitlines()
    return setup_s, (json.loads(lines[-1]) if lines else None)


def end_to_end(workload, seed, seconds):
    run_worker("setup", workload, seed, seconds)  # untimed: compiles bytecode, fills page cache
    setups = [run_worker("setup", workload, seed, seconds)[0] for _ in range(SETUP_SAMPLES)]
    setup_s, report = run_worker("measure", workload, seed, seconds)
    setups.append(setup_s)
    report["metrics"]["setup_s"] = statistics.median(setups)
    attempted, failed = report["attempted"], report["failed"]
    report["metrics"]["completed_share"] = (attempted - failed) / attempted
    return report


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=[w["name"] for w in spec["workloads"]]
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    try:
        if args.trace:
            report = run_worker("trace", args.workload, args.seed, args.seconds)[1]
        else:
            report = end_to_end(args.workload, args.seed, args.seconds)
        if set(report["metrics"]) != set(units):
            raise BenchmarkError(
                f"reported metrics differ from BENCHMARK.json: "
                f"{sorted(set(report['metrics']) ^ set(units))}"
            )
    except BenchmarkError as error:
        print(f"benchmark failed: {error}", file=sys.stderr)
        return 1
    print(
        f"{args.workload} seed={args.seed} output={report['fingerprint']} "
        f"rounds={report['rounds']}",
        file=sys.stderr,
    )
    metrics = {
        name: {"value": report["metrics"][name], "unit": unit} for name, unit in units.items()
    }
    print(
        json.dumps(
            {
                "correct": True,
                "attempted": report["attempted"],
                "failed": report["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
