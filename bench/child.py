"""One benchmark pass in a fresh interpreter, started by run.py.

    python3 bench/child.py ROOT WORKLOAD SEED PASS TRACE SPAWNED

A pass per process keeps the package's module-level catalog cache and the
per-Graph automorphism caches cold, as they are for every CLI invocation.
The process pins itself to one CPU and runs the host speed meter
(hostspeed.py) from before the package is imported until the last op ends.
Prints one JSON line: the raw and speed-adjusted set-up seconds from SPAWNED
(run.py's time.monotonic() just before the spawn; the clock is system-wide)
to the first op, each op's raw and adjusted seconds, classes and oracle
problems, the output digest, the peak RSS, the host slowness and, when
traced, the per-layer metrics.  Spans go to .bench_build/traces/ when the
pass ends.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import shutil
import sys
import tempfile
import time

import hostspeed


def main(argv: list[str]) -> None:
    root, workload, seed, pass_index, traced = argv[0], argv[1], int(argv[2]), int(argv[3]), argv[4] == "1"
    spawned = float(argv[5])
    hostspeed.pin_to_one_cpu()
    meter = hostspeed.Meter()
    meter.start()
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import restchroma

    if not os.path.abspath(restchroma.__file__).startswith(os.path.join(src, "")):
        raise SystemExit(f"restchroma was imported from {restchroma.__file__}, not from {src}")
    import workloads

    tracer = None
    if traced:
        import tracing

        tracer = tracing.install()
    build = os.path.join(root, ".bench_build")
    os.makedirs(os.path.join(build, "tmp"), exist_ok=True)
    workdir = tempfile.mkdtemp(dir=os.path.join(build, "tmp"))
    digest = hashlib.sha256()
    ops = []
    first_op = None
    try:
        for i, op in enumerate(workloads.ops(workload, seed, pass_index, workdir)):
            if first_op is None:
                first_op = time.monotonic()
            if tracer:
                tracer.begin_op(i)
            start = time.monotonic()
            try:
                result = op.run()
                problems = []
            except Exception as exc:  # an op that raises counts as failed; the pass goes on
                problems = [f"{op.label}: {type(exc).__name__}: {exc}"]
            finally:
                end = time.monotonic()
                if tracer:
                    tracer.end_op()
            if not problems:
                try:
                    problems = [f"{op.label}: {p}" for p in op.check(result)]
                    if op.record is not None:
                        digest.update((json.dumps(op.record(result), sort_keys=True) + "\n").encode())
                except Exception as exc:  # a crashing oracle check fails the op, not the pass
                    problems = [f"{op.label}: check raised {type(exc).__name__}: {exc}"]
            ops.append([start, end, 0 if problems else op.classes(result), op.resume, problems])
    finally:
        meter.stop()
        shutil.rmtree(workdir)
    samples = meter.samples
    raw = sum(end - start for start, end, *_ in ops)
    for op in ops:
        op[:2] = [op[1] - op[0], hostspeed.adjusted(samples, op[0], op[1])]
    layers = None
    if tracer:
        os.makedirs(os.path.join(build, "traces"), exist_ok=True)
        tracer.write(os.path.join(build, "traces", f"{workload}_seed{seed}_pass{pass_index}.jsonl"))
        # layer seconds are scaled by the pass's own speed factor, like its ops
        factor = sum(op[1] for op in ops) / raw
        layers = {name: value * factor if name.endswith("_s") else value
                  for name, value in tracer.layer_metrics().items()}
    print(json.dumps({
        "setup_raw_s": first_op - spawned,
        "setup_s": hostspeed.adjusted(samples, spawned, first_op),
        "ops": ops,
        "digest": digest.hexdigest(),
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "slowness": hostspeed.slowness(samples),
        "layers": layers,
    }))


if __name__ == "__main__":
    main(sys.argv[1:])
