"""The restchroma benchmark.

    python3 bench/run.py --workload {extremal,symmetric,verify,poly-queries,all}
                         --seed N --seconds S --trace {0,1} [--out BENCH_label.json]

Run from the root of a source checkout; the package is imported from ./src.
Bytecode goes to __pycache__, temporary results dirs and trace spans to
./.bench_build, and the full record to the --out file.  A run is a fixed
number of passes, set by --seconds and each workload's PASS_SECONDS, so
two commits run the same work.  Each pass runs in a fresh interpreter, one
at a time, on inputs drawn from the seed and the pass index, and checks each
output against an oracle outside the timed region (oracles.py).

Times are adjusted for the host's speed (hostspeed.py): each pass's
process runs a reference probe loop beside the ops, and every interval is
scaled to the seconds it would take at the reference speed, so that a slow
phase of a shared host does not read as a slow commit.  Raw medians are
printed and recorded next to the adjusted ones.

--trace 0 reports the end-to-end metrics, as medians over the passes
(peak_rss_mb as the mean):
  wall_s         seconds of the timed ops of one pass
  classes_per_s  restraint classes decided per second of wall_s (a poly
                 query decides one)
  op_p50_ms      median op latency, over the ops of every pass
  op_p90_ms      op latency at p90, or at the highest percentile that still
                 has ten samples beyond it (stats.tail_percentile)
  setup_s        process spawn, interpreter start, import and input
                 generation, until the first op starts
  peak_rss_mb    maximum RSS of a pass's process
--trace 1 alternates untraced and traced passes on the same inputs and
reports the per-layer metrics of tracing.py, plus trace.overhead_s, the
traced minus the untraced wall_s.

The table printed before the last line adds the sample counts, resume_s on
extremal (serving every stored record back), the raw (unadjusted) times, the
host's slowness against the reference speed, the error rate, the
environment and the SHA-256 digest of the records as --json prints them
(compare.py flags digests that differ between two commits).  The last line
of stdout is one JSON object with the keys correct, attempted, failed and
metrics.  The exit code is 0 when a result was printed.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from stats import tail_percentile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

WORKLOADS = ("extremal", "symmetric", "verify", "poly-queries")

# Seconds of wall time per pass that --seconds pays for, fixed so that the
# pass count depends only on --seconds: 6, 4, 2 and 5 passes at --seconds 25,
# which take some 25-35 s each on the 2-core x86 box (Python 3.11) the
# benchmark was defined on.
PASS_SECONDS = {"extremal": 4.5, "symmetric": 6.5, "verify": 11.5, "poly-queries": 4.6}
MIN_PASSES = 2
CHILD_TIMEOUT = 170


def metric_units(traced: bool) -> dict:
    """Unit of each metric a run reports, as BENCHMARK.json lists them."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="ascii") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if traced else "end_to_end"]}


class PassFailed(RuntimeError):
    pass


def build() -> None:
    """Compile the package and the benchmark to bytecode once, before any pass."""
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")],
        check=True, stdout=subprocess.DEVNULL,
    )


def run_pass(workload: str, seed: int, index: int, traced: bool) -> dict:
    # -S: the host's site-packages hooks are no part of the package's start-up.
    spawned = time.monotonic()
    cmd = [sys.executable, "-S", os.path.join(ROOT, "bench", "child.py"), ROOT, workload, str(seed), str(index),
           "1" if traced else "0", repr(spawned)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired as exc:
        raise PassFailed(f"{workload} pass {index} took over {CHILD_TIMEOUT} s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise PassFailed(f"{workload} pass {index} exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["elapsed_s"] = time.monotonic() - spawned
    out["raw_wall_s"] = sum(raw for raw, _, _, resume, _ in out["ops"] if not resume)
    out["wall_s"] = sum(seconds for _, seconds, _, resume, _ in out["ops"] if not resume)
    return out


def pass_count(workload: str, seconds: int, traced: bool) -> int:
    per_pass = PASS_SECONDS[workload] * (2 if traced else 1)
    return max(1 if traced else MIN_PASSES, int(seconds / per_pass + 0.5))


def end_to_end(passes: list) -> tuple[dict, dict]:
    latencies = [s for p in passes for _, s, _, resume, _ in p["ops"] if not resume]
    raw_latencies = [s for p in passes for s, _, _, resume, _ in p["ops"] if not resume]
    percentile, p90 = tail_percentile(latencies)
    metrics = {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "classes_per_s": statistics.median(
            sum(classes for _, _, classes, _, _ in p["ops"]) / p["wall_s"] for p in passes),
        "op_p50_ms": 1000 * statistics.median(latencies),
        "op_p90_ms": 1000 * p90,
        "setup_s": statistics.median(p["setup_s"] for p in passes),
        # a mean: one graph's labelling sets a pass's peak, and the mean of a
        # skewed peak spreads less over seeds than its median
        "peak_rss_mb": statistics.mean(p["rss_mb"] for p in passes),
    }
    notes = {
        "op samples": len(latencies), "op_p90_ms percentile": round(percentile, 1),
        "raw wall_s": statistics.median(p["raw_wall_s"] for p in passes),
        "raw op_p50_ms": 1000 * statistics.median(raw_latencies),
        "raw op_p90_ms": 1000 * tail_percentile(raw_latencies)[1],
        "raw setup_s": statistics.median(p["setup_raw_s"] for p in passes),
    }
    resumes = [sum(s for _, s, _, resume, _ in p["ops"] if resume) for p in passes]
    if any(resumes):
        notes["resume_s"] = statistics.median(resumes)
    return metrics, notes


def per_layer(pairs: list) -> tuple[dict, dict]:
    traced = [t for _, t in pairs]
    metrics = {name: statistics.median(t["layers"][name] for t in traced) for name in traced[0]["layers"]}
    metrics["trace.overhead_s"] = statistics.median(t["wall_s"] - u["wall_s"] for u, t in pairs)
    return metrics, {"traced passes": len(traced)}


def git_commit() -> str | None:
    """HEAD of the checkout; None outside a git work tree, without looking above ROOT."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(ROOT)},
        ).stdout.strip() or None
    except OSError:
        return None


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "seed": seed,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
    }


def run_workload(workload: str, seed: int, seconds: int, traced: bool) -> dict:
    n = pass_count(workload, seconds, traced)
    if traced:
        pairs = [(run_pass(workload, seed, i, False), run_pass(workload, seed, i, True)) for i in range(n)]
        passes = [p for pair in pairs for p in pair]
        metrics, notes = per_layer(pairs)
        mismatched = [i for i, (u, t) in enumerate(pairs) if u["digest"] != t["digest"]]
    else:
        passes = [run_pass(workload, seed, i, False) for i in range(n)]
        metrics, notes = end_to_end(passes)
        mismatched = []
    notes["host slowness"] = statistics.median(p["slowness"] for p in passes)
    problems = [msg for p in passes for *_, op_problems in p["ops"] for msg in op_problems]
    problems += [f"pass {i}: tracing changed the output digest" for i in mismatched]
    attempted = sum(len(p["ops"]) for p in passes)
    failed = sum(1 for p in passes for *_, op_problems in p["ops"] if op_problems)
    digest = hashlib.sha256("".join(p["digest"] for p in passes[:: 2 if traced else 1]).encode()).hexdigest()
    units = metric_units(traced)
    if set(metrics) != set(units):
        raise PassFailed(f"metrics {sorted(metrics)} differ from BENCHMARK.json's {sorted(units)}")
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(traced), "passes": n,
        "correct": failed == 0 and not mismatched, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
        "notes": notes, "digest": digest, "problems": problems, "raw": passes,
    }


def print_table(result: dict, env: dict) -> None:
    print(f"restchroma bench  workload={result['workload']} seed={result['seed']} "
          f"passes={result['passes']} trace={result['trace']}")
    print("  env: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    for name, m in result["metrics"].items():
        print(f"  {name:32} {m['value']:>14.6g} {m['unit']}")
    for name, value in result["notes"].items():
        print(f"  {name:32} {value:>14.6g}")
    rate = result["failed"] / result["attempted"]
    print(f"  {'error_rate':32} {rate:>14.6g} ({result['failed']}/{result['attempted']} ops failed)")
    print(f"  digest sha256:{result['digest']}")
    for msg in result["problems"][:20]:
        print(f"  FAILED {msg}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="restchroma benchmark")
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--out", help="also write the full record, raw passes included, to this JSON file")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "restchroma", "__init__.py")):
        print(f"error: no package source at {os.path.join(ROOT, 'src', 'restchroma')}", file=sys.stderr)
        return 2
    build()
    env = environment(args.seed)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = [run_workload(w, args.seed, args.seconds, bool(args.trace)) for w in names]
    except PassFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for result in results:
        print_table(result, env)
    if args.out:
        with open(args.out, "w", encoding="ascii") as fh:
            json.dump({"env": env, "results": results}, fh, sort_keys=True, indent=1)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{name}": m for r in results for name, m in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
