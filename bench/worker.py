"""One benchmark process: import ``euscat`` from the checkout's ``src``, warm
up, run timed passes over the seeded inputs, check every op, and print one
JSON object on the last line of stdout.

``run.py`` starts this file in a fresh interpreter with the BLAS thread count
pinned to 1 in the environment.  With ``--trace`` the functions of each
``euscat`` module are wrapped (see ``spans.py``) before the warm-up; without
it the package is imported unpatched and ``spans.py`` is never imported.

Usage: worker.py --workload NAME --seed N --seconds S [--trace] [--setup-only]
"""

from __future__ import annotations

from time import perf_counter

_T0 = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

SRC = Path(__file__).resolve().parents[1] / "src"


def import_package():
    """Import numpy, scipy and ``euscat`` from SRC and nowhere else."""
    sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401
    import scipy  # noqa: F401

    import euscat

    if Path(euscat.__file__).resolve().parent != SRC / "euscat":
        raise ImportError(f"euscat was imported from {euscat.__file__}, not {SRC}")
    return euscat


def openblas_threads() -> dict:
    """Thread count of every OpenBLAS mapped into this process, by library."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return {}
    found = {}
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in (
            "openblas_get_num_threads",
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
        ):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                getter.argtypes = []
                found[os.path.basename(path)] = getter()
                break
    return found


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration"),
        "blas_threads": openblas_threads(),
        "thread_env": {
            key: os.environ.get(key)
            for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def run_op(workload, ctx: dict, spec: dict, recorder=None) -> dict:
    """Time one op, then check it.  An op that raises, or whose outputs miss
    the oracle tolerance, is a failed op; it never stops the benchmark.
    The recorder, if any, records only while the op runs."""
    record = {"spec": spec, "outputs": None, "ok": False, "rel_err": None}
    if recorder is not None:
        recorder.active = True
    start = perf_counter()
    try:
        outputs, keep = workload.op(ctx, spec)
    except Exception:
        record["note"] = traceback.format_exc(limit=4)
        return record
    finally:
        record["op_s"] = perf_counter() - start
        if recorder is not None:
            recorder.active = False
    record["outputs"] = outputs
    try:
        ok, record["rel_err"], record["note"] = workload.check(ctx, spec, outputs, keep)
        record["ok"] = bool(ok)
    except Exception:
        record["note"] = traceback.format_exc(limit=4)
    return record


def run_passes(workload, inputs, seconds: float, recorder=None) -> dict:
    """Whole passes over ``inputs`` while another one fits in ``seconds``;
    at least one.  Every pass must reproduce the first pass's outputs."""
    passes = []
    failures = []
    first = None
    start = perf_counter()
    while True:
        ctx = workload.new_context()
        records = [run_op(workload, ctx, spec, recorder) for spec in inputs]
        for index, record in enumerate(records):
            if first is not None and record["ok"] and record["outputs"] != first[index]["outputs"]:
                record["ok"] = False
                record["note"] = "outputs differ from the first pass"
            if not record["ok"]:
                failures.append({"pass": len(passes), "op": index, "spec": record["spec"],
                                 "note": record["note"]})
        failures += [{"pass": len(passes), "note": note} for note in workload.pass_check(records)]
        passes.append([r["op_s"] for r in records])
        if first is None:
            first = records
        typical = statistics.median(sum(p) for p in passes)
        if perf_counter() - start + typical > seconds:
            break
    return {
        "op_s": passes,
        "records": first,
        "attempted": len(inputs) * len(passes),
        "failed": sum(1 for f in failures if "op" in f),
        "failures": failures,
    }


def pass_seconds(op_s) -> float:
    """Time of one pass: per op, the median over passes, summed over ops.

    All passes run the same inputs, so this is the pass time with a stall in
    any single op of any single pass filtered out."""
    return sum(statistics.median(times) for times in zip(*op_s))


def end_to_end(result: dict) -> dict:
    op_times = sorted(t for times in result["op_s"] for t in times)
    errors = [r["rel_err"] for r in result["records"] if r["rel_err"] is not None]
    return {
        "wall_s": pass_seconds(result["op_s"]),
        "op_s_p50": statistics.median(op_times),
        "op_s_p90": (
            statistics.quantiles(op_times, n=10, method="inclusive")[8]
            if len(op_times) > 1
            else op_times[0]
        ),
        "op_samples": len(op_times),
        # 1.0 when no op produced a checked value; such a run is never correct
        "rel_err_max": max(errors, default=1.0),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    euscat = import_package()
    recorder = None
    missing = []
    if args.trace:
        import spans

        recorder = spans.Recorder()
        missing = spans.install(recorder)
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    warm_ctx = workload.new_context()
    for spec in workload.warmup:
        workload.op(warm_ctx, spec)
    setup_s = perf_counter() - _T0
    out = {"setup_s": setup_s, "patched": args.trace, "euscat_file": euscat.__file__}
    if args.setup_only:
        print(json.dumps(out))
        return 0

    out["env"] = environment()
    threads = set(out["env"]["blas_threads"].values())
    if threads and threads != {1}:
        print(f"BLAS thread count is {threads}, not 1", file=sys.stderr)
        return 2
    inputs = workload.inputs(args.seed)
    result = run_passes(workload, inputs, args.seconds, recorder)
    out.update(end_to_end(result))
    out.update(
        attempted=result["attempted"],
        failed=result["failed"],
        failures=result["failures"],
        passes=len(result["op_s"]),
        pass_s=[sum(times) for times in result["op_s"]],
        op_s=result["op_s"],
        ops=[{k: r[k] for k in ("spec", "outputs", "ok", "rel_err", "note")}
             for r in result["records"]],
    )
    if recorder is not None:
        passes = len(result["op_s"])
        summary = recorder.summary()
        out["layers"] = spans.layer_metrics(summary, recorder.counters, passes)
        out["span_summary"] = summary
        out["counters"] = dict(recorder.counters)
        out["coverage"] = recorder.root_seconds() / sum(out["pass_s"])
        out["missing_wrappers"] = missing
        out["spans"] = recorder.dump()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
