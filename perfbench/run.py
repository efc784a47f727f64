"""Benchmark for the dagfm pipeline: four seeded workloads, one process each.

    python3 perfbench/run.py                       # all workloads, a table plus JSON
    python3 perfbench/run.py --workload distill-m8 --seed 3 --seconds 10 --trace 0

With ``--trace 0`` a run reports the end-to-end metrics; with ``--trace 1``
it runs the workload untraced and then traced, and reports the per-layer
metrics. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is 0
only when every check passed. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "perfbench" / "_out"
# one BLAS thread keeps the program single-threaded, so its CPU time is the
# time it works; set before numpy is first imported
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# glibc malloc raises its mmap and trim thresholds as large blocks are freed,
# so whether a set-up's arrays reuse heap pages or fault in fresh ones depends
# on what the process allocated before, and so on the seed. Pinning them at
# the ceiling that policy reaches in a long-running process (32 MiB, trim at
# twice that) makes the allocator's behaviour a function of the code alone.
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
MMAP_THRESHOLD = 32 << 20


def _import_dagfm():
    """Import dagfm from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import dagfm
    except ImportError as e:
        raise SystemExit(f"perfbench: cannot import dagfm from {src}: {e}")
    if Path(dagfm.__file__).resolve().parent.parent != src:
        raise SystemExit(f"perfbench: dagfm was imported from {dagfm.__file__}, not {src}")
    return dagfm


def _blas_threads():
    """OpenBLAS's own thread count, or None when it cannot be queried."""
    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _pin_malloc() -> bool:
    """Fix glibc's malloc thresholds; False where there is no glibc."""
    if platform.libc_ver()[0] != "glibc":
        return False
    libc = ctypes.CDLL(None)
    return bool(libc.mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD)
                and libc.mallopt(M_TRIM_THRESHOLD, 2 * MMAP_THRESHOLD))


def machine_facts(malloc_pinned: bool) -> dict:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": _blas_threads(),
        "DAGFM_THREADS": os.environ.get("DAGFM_THREADS", "unset (1)"),
        "malloc_pinned": malloc_pinned,
    }


def _run_one(args, malloc_pinned: bool) -> int:
    import spans
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=OUT_DIR))
    try:
        base = workloads.run_workload(wl, args.seed, args.seconds, workdir,
                                      spans.Tracer(spans.SCORING))
        checks = list(base.checks.results)
        attempted, failed = base.attempted, base.failed
        extra = {}
        if args.trace:
            # traced, then untraced again: the first run in a process is the
            # slowest, so neither side of the overhead ratio is that run
            tracer = spans.Tracer()
            runs = [workloads.run_workload(wl, args.seed, args.seconds, workdir, t)
                    for t in (tracer, spans.Tracer(spans.SCORING))]
            traced, warm = runs
            same = all(r.epoch_records == base.epoch_records for r in runs)
            for r in runs:
                checks += r.checks.results
                attempted += r.attempted
                failed += r.failed
            checks.append(("trace:epoch_records_unchanged", same, ""))
            attempted += 1
            failed += not same
            metrics = tracer.layer_metrics()
            traced_s, warm_s = traced.metrics["pipeline_s"], warm.metrics["pipeline_s"]
            metrics["trace.overhead_ratio"] = {"value": traced_s / warm_s, "unit": "ratio"}
            tracer.write_jsonl(OUT_DIR / f"{wl.name}.spans.jsonl")
            extra = {"traced_pipeline_s": traced_s, "untraced_pipeline_s": warm_s}
        else:
            metrics = {name: {"value": value, "unit": workloads.END_TO_END_UNITS[name]}
                       for name, value in base.metrics.items()}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    facts = machine_facts(malloc_pinned)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    record = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "machine": facts, "facts": {**base.facts, **extra}, "epoch_records": base.epoch_records,
        "checks": [{"name": n, "ok": ok, "detail": d} for n, ok, d in checks], **result,
    }
    suffix = "trace" if args.trace else "result"
    with open(OUT_DIR / f"{wl.name}.{suffix}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    for name, ok, detail in checks:
        if not ok:
            print(f"CHECK FAILED {name}: {detail}")
    print("machine " + json.dumps(facts))
    print("facts " + json.dumps(record["facts"]))
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def _run_all(args) -> int:
    """Each workload in its own process; a table, then one JSON line."""
    import workloads

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 and (not lines or not lines[-1].startswith("{")):
            print(f"{name}: failed with exit code {proc.returncode}")
            status = 1
            combined["correct"] = False
            continue
        for line in lines[:-1]:
            print(f"{name}: {line}")
        result = json.loads(lines[-1])
        status = status or proc.returncode
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            print(f"{name:12s} {metric:52s} {entry['value']:>16.6g} {entry['unit']}")
            combined["metrics"][f"{name}/{metric}"] = entry
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", help="a workload name, or all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10,
                        help="length of the serving phase: 100 x seconds requests, at least 1000")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    malloc_pinned = _pin_malloc()
    _import_dagfm()
    import workloads

    if args.workload == "all":
        return _run_all(args)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; pick from {sorted(workloads.WORKLOADS)}")
    return _run_one(args, malloc_pinned)


if __name__ == "__main__":
    sys.exit(main())
