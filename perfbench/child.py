"""One benchmark iteration in a fresh process.

    python3 perfbench/child.py WORKLOAD SEED OUT_DIR MODE

MODE is `setup` (imports and inputs only), `run` (the workload, untraced) or
`trace` (the workload with the per-layer wrappers of tracer.py installed).
The last line of standard output is one JSON object; `ready` is the
`time.monotonic()` reading at which set-up ended, which the parent turns
into set-up time by subtracting its own reading taken just before it
started this process.
"""

import hashlib
import json
import os
import resource
import sys
import time
import traceback


def _file_digests(out_dir: str) -> dict:
    digests = {}
    for base, _dirs, files in os.walk(out_dir):
        for name in sorted(files):
            path = os.path.join(base, name)
            sha = hashlib.sha256()
            with open(path, "rb") as fh:
                for block in iter(lambda: fh.read(1 << 20), b""):
                    sha.update(block)
            digests[os.path.relpath(path, out_dir)] = {
                "bytes": os.path.getsize(path), "sha256": sha.hexdigest()}
    return digests


def main(argv) -> int:
    workload_name, seed, out_dir, mode = argv[0], int(argv[1]), argv[2], argv[3]
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

    import numpy
    import scipy
    import degeo
    import tracer
    import workloads

    src = os.path.join(root, "src") + os.sep
    if not os.path.abspath(degeo.__file__).startswith(src):
        print(f"degeo imported from {degeo.__file__}, not {src}",
              file=sys.stderr)
        return 1

    workload = workloads.WORKLOADS[workload_name]
    inputs = workload.inputs(seed)
    cfg_dir = os.path.join(out_dir, "config")
    result_dir = os.path.join(out_dir, "output")
    os.makedirs(cfg_dir)
    os.makedirs(result_dir)
    timed = workload.prepare(inputs, cfg_dir, result_dir)
    layers = tracer.Tracer()
    if mode == "trace":
        layers.install()
    record = {"inputs": inputs,
              "versions": {"python": sys.version.split()[0],
                           "numpy": numpy.__version__,
                           "scipy": scipy.__version__}}
    record["ready"] = time.monotonic()
    if mode == "setup":
        print(json.dumps(record))
        return 0

    wall0, cpu0 = time.perf_counter(), time.process_time()
    try:
        outcome = timed()
    except Exception:
        # a raising operation is a failed operation, reported, not fatal
        outcome = None
        record["ops"] = [{"name": "timed", "ok": False, "rel_err": None,
                          "error": traceback.format_exc()}]
    record["wall_s"] = time.perf_counter() - wall0
    record["cpu_s"] = time.process_time() - cpu0
    record["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)

    record["outputs"] = _file_digests(result_dir)
    timed_layers = layers.metrics()
    if outcome is not None:
        try:
            record["ops"] = workload.check(inputs, result_dir, outcome)
        except Exception:
            record["ops"] = [{"name": "check", "ok": False, "rel_err": None,
                              "error": traceback.format_exc()}]
    if mode == "trace":
        # the closed-form references run only inside the checks, so their
        # layers are read after them; every other layer covers the timed
        # calls alone
        checked = layers.metrics()
        record["layers"] = {**timed_layers, **{
            key: value for key, value in checked.items()
            if key.split(".")[0] in tracer.REFERENCE_LAYERS}}
        record["absent"] = layers.absent
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
