"""euscat benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload {t_scan,n_sweep,gf} --seed N --seconds S --trace {0,1}

Run from the root of a checkout; ``euscat`` is imported from its ``src``
directory, never from an installed copy.  Every measurement happens in a
fresh worker process (``worker.py``) with the BLAS thread count pinned to 1:

* ``--trace 0``: three set-up probes (import plus warm-up, then exit) give
  ``setup_s`` as their median; one worker then times whole passes over the
  seeded inputs for S seconds and checks every op against the closed-form
  oracles.  The package is imported unpatched.
* ``--trace 1``: one untraced and one traced worker, S/2 seconds each.  The
  traced one wraps each module's public functions (``spans.py``) and gives
  the per-layer metrics per pass; the pair gives the tracing overhead.

The full result (environment, every op's outputs, failures, spans) goes to
``.bench_out/<workload>-seed<N>-trace<T>.json`` in the checkout.  The last
line of stdout is ``{"correct", "attempted", "failed", "metrics"}``.
Compare two result files with ``compare.py``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
SETUP_PROBES = 3
DEADLINE_S = 170.0



class BenchError(RuntimeError):
    pass


def declared() -> dict:
    """Workload names and metric units as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        "workloads": [w["name"] for w in spec["workloads"]],
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def child_env() -> dict:
    env = dict(os.environ)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def run_worker(args, deadline: float) -> dict:
    """Run worker.py to completion (or kill it at the deadline) and return
    the JSON object on its last stdout line."""
    command = [sys.executable, str(BENCH / "worker.py"), *args]
    timeout = max(1.0, deadline - time.monotonic())
    try:
        done = subprocess.run(
            command, cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {' '.join(args)} timed out after {timeout:.0f}s") from exc
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise BenchError(
            f"worker {' '.join(args)} exited {done.returncode}:\n{done.stderr[-4000:]}"
        )
    return json.loads(lines[-1])


def source_identity() -> dict:
    """Commit (when the checkout is a git repository) and a digest of src."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10,
            )
            commit = done.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    return {"commit": commit, "src_sha256": digest.hexdigest()}


def measure(workload: str, seed: int, seconds: float, trace: bool, deadline: float) -> dict:
    base = ["--workload", workload, "--seed", str(seed)]
    if not trace:
        probes = [run_worker(base + ["--setup-only"], deadline) for _ in range(SETUP_PROBES)]
        timed = run_worker(base + ["--seconds", str(seconds)], deadline)
        metrics = {name: timed[name]
                   for name in ("wall_s", "op_s_p50", "op_s_p90", "rel_err_max", "peak_rss_mb")}
        metrics["setup_s"] = statistics.median(p["setup_s"] for p in probes)
        return {"workers": [timed], "setup_probes_s": [p["setup_s"] for p in probes],
                "metrics": metrics}
    plain = run_worker(base + ["--seconds", str(seconds / 2)], deadline)
    traced = run_worker(base + ["--seconds", str(seconds / 2), "--trace"], deadline)
    metrics = dict(traced["layers"])
    metrics["trace_overhead_frac"] = traced["wall_s"] / plain["wall_s"] - 1.0
    metrics["trace_coverage_frac"] = traced["coverage"]
    if traced["missing_wrappers"]:
        print(f"warning: not traced: {traced['missing_wrappers']}", file=sys.stderr)
    return {"workers": [plain, traced], "metrics": metrics}


def main(argv=None) -> int:
    spec = declared()
    parser = argparse.ArgumentParser(description="euscat benchmark, one run")
    parser.add_argument("--workload", required=True, choices=spec["workloads"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "euscat" / "__init__.py").is_file():
        print(f"error: no euscat sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        run = measure(args.workload, args.seed, args.seconds, bool(args.trace), deadline)
        units = spec["per_layer" if args.trace else "end_to_end"]
        if set(run["metrics"]) != set(units):
            raise BenchError(f"measured metrics {sorted(run['metrics'])} are not the "
                             f"declared ones {sorted(units)}")
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    workers = run["workers"]
    attempted = sum(w["attempted"] for w in workers)
    failed = sum(w["failed"] for w in workers)
    correct = all(not w["failures"] for w in workers)
    spans = workers[-1].pop("spans", None)
    env = [w.pop("env") for w in workers][0]
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "source": source_identity(),
        "env": env,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "fail_frac": failed / attempted,
        "metrics": {k: {"value": run["metrics"][k], "unit": u} for k, u in units.items()},
        "setup_probes_s": run.get("setup_probes_s"),
        "workers": workers,
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(result, indent=1))
    if spans is not None:
        (OUT / f"{stem}.spans.json").write_text(json.dumps(spans))

    print(f"{args.workload} seed {args.seed}: {workers[0]['passes']} passes, "
          f"{workers[0]['op_samples']} op samples, fail_frac {failed}/{attempted}, "
          f"BLAS threads {env['blas_threads']}")
    failures = [f for w in workers for f in w["failures"]]
    for failure in failures[:20]:
        print(f"FAILED: {json.dumps(failure)[:2000]}")
    if len(failures) > 20:
        print(f"... {len(failures) - 20} more failures in the result file")
    for name, metric in result["metrics"].items():
        print(f"  {name:40s} {metric['value']:.6g} {metric['unit']}")
    print(f"result: {OUT / (stem + '.json')}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
