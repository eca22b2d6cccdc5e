"""Run one degeo benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere inside a degeo source tree; it uses the tree's
`src/degeo` and nothing installed.  Workloads, metrics and the layer map are
described in perfbench/README.md; names and units come from BENCHMARK.json.

Every iteration runs in a fresh child process (perfbench/child.py) with
BLAS/OpenMP pinned to one thread, so set-up time and peak memory are those
of a cold process.  With `--trace 0` the run starts iterations until
`--seconds` have passed (so at least one) and reports medians of the
end-to-end metrics.  Set-up time is the median over every child, with
set-up-only children added until there are SETUP_SAMPLES of them.  With `--trace 1` it runs one untraced and one
traced iteration and reports the per-layer metrics of the traced one; the
difference of their wall times is the tracing overhead.

Output: one JSON line with the inputs, environment, per-iteration samples
and the sha256 of every output file, then, as the last line, the result
object {"correct", "attempted", "failed", "metrics"}.  Exit code 1, with no
result line, when the tree has no degeo sources or a child fails to run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DEADLINE_S = 170.0
SETUP_SAMPLES = 5
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class ChildFailed(RuntimeError):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_VARS})
    env.update({"PYTHONPATH": os.path.join(ROOT, "src"),
                "PYTHONDONTWRITEBYTECODE": "1",
                "PYTHONHASHSEED": "0",
                "DEGEO_LOG": "error"})
    return env


def _run_child(workload: str, seed: int, work_dir: str, mode: str,
               deadline: float) -> dict:
    out_dir = tempfile.mkdtemp(dir=work_dir)
    cmd = [sys.executable, os.path.join(HERE, "child.py"), workload,
           str(seed), out_dir, mode]
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=_child_env(), cwd=ROOT, text=True,
                              stdout=subprocess.PIPE,
                              timeout=max(deadline - start, 1.0))
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{mode} child ran past the deadline") from exc
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    elapsed = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"{mode} child exited with {proc.returncode}")
    record = json.loads(lines[-1])
    record["setup_s"] = record.pop("ready") - start
    record["elapsed_s"] = elapsed
    return record


def _git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or None


def _environment(seed: int, versions: dict) -> dict:
    env = _child_env()
    return {**versions,
            "nproc": len(os.sched_getaffinity(0)),
            "threads": {name: env[name] for name in THREAD_VARS},
            "seed": seed,
            "git_commit": _git_commit()}


def _measure(args, work_dir: str, deadline: float):
    """Untraced iterations plus set-up probes; returns (samples, setups)."""
    samples = []
    start = time.monotonic()
    while True:
        sample = _run_child(args.workload, args.seed, work_dir, "run",
                            deadline)
        samples.append(sample)
        now = time.monotonic()
        if (now - start >= args.seconds
                or now + 1.5 * sample["elapsed_s"] > deadline):
            break
    setups = [s["setup_s"] for s in samples]
    while len(setups) < SETUP_SAMPLES:
        setups.append(_run_child(args.workload, args.seed, work_dir, "setup",
                                 deadline)["setup_s"])
    return samples, setups


def _worst_rel_err(sample: dict) -> float:
    errs = [op["rel_err"] for op in sample["ops"]
            if op.get("rel_err") is not None]
    return max(errs) if errs else float("nan")


def _end_to_end(samples, setups) -> dict:
    def median(key):
        return statistics.median(key(s) for s in samples)
    return {
        "setup_s": statistics.median(setups),
        "wall_s": median(lambda s: s["wall_s"]),
        "cpu_s": median(lambda s: s["cpu_s"]),
        "peak_rss_mb": median(lambda s: s["peak_rss_mb"]),
        "output_bytes": median(
            lambda s: sum(f["bytes"] for f in s["outputs"].values())),
        "accuracy_rel_err": median(_worst_rel_err),
    }


def _per_layer(untraced: dict, traced: dict) -> dict:
    values = dict(traced["layers"])
    values["trace.wall_s"] = traced["wall_s"]
    values["trace.overhead_s"] = traced["wall_s"] - untraced["wall_s"]
    return values


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    if not os.path.isfile(os.path.join(ROOT, "src", "degeo", "__init__.py")):
        print(f"no degeo sources under {ROOT}/src; run from a degeo tree",
              file=sys.stderr)
        return 1

    deadline = time.monotonic() + DEADLINE_S
    work_dir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        if args.trace:
            samples = [_run_child(args.workload, args.seed, work_dir, mode,
                                  deadline) for mode in ("run", "trace")]
            setups = []
            values = _per_layer(*samples)
        else:
            samples, setups = _measure(args, work_dir, deadline)
            values = _end_to_end(samples, setups)
    except ChildFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    ops = [op for s in samples for op in s["ops"]]
    failed = sum(not op["ok"] for op in ops)
    info = {"workload": args.workload, "seconds": args.seconds,
            "trace": args.trace,
            "environment": _environment(args.seed, samples[0]["versions"]),
            "inputs": samples[0]["inputs"],
            "setup_samples_s": setups,
            "samples": [{key: s[key] for key in
                         ("wall_s", "cpu_s", "setup_s", "peak_rss_mb",
                          "outputs", "ops")} for s in samples],
            "absent_layers": samples[-1].get("absent", [])}
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {m["name"]: {"value": values.get(m["name"], 0.0),
                                "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
