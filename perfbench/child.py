"""One benchmark repetition in a fresh interpreter; run by run.py, not by hand.

    python3 perfbench/child.py '{"mode": "job", "workload": "verify-8", "seed": 1, "trace": false}'

The mode is "setup" (import mobiuslat and stop), "info" (setup, then report
versions and thread settings) or "job" (setup, then one timed job and its
gate).  The last line of standard output is a JSON object; run.py takes the
set-up time as the CLOCK_MONOTONIC reading in "imported" minus its own
reading just before it started this process.
"""

import time

import mobiuslat  # noqa: F401  (the import is what set-up time measures)

IMPORTED = time.monotonic()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

from mobiuslat import families, fibpoly  # noqa: E402


def rusage():
    r = resource.getrusage(resource.RUSAGE_SELF)
    return r.ru_utime + r.ru_stime, r.ru_maxrss / 1024.0


def blas_threads():
    """Thread count numpy's OpenBLAS reports, or None where none is found."""
    import ctypes

    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath

    lib = ctypes.CDLL(umath.__file__)
    for symbol in (
        "scipy_openblas_get_num_threads64_",
        "openblas_get_num_threads64_",
        "openblas_get_num_threads",
    ):
        fn = getattr(lib, symbol, None)
        if fn is not None:
            fn.restype = ctypes.c_int
            return fn()
    return None


def info() -> dict:
    import os
    import platform

    import numpy

    env = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mobiuslat_file": mobiuslat.__file__,
        "blas_threads": blas_threads(),
        "blas_env": {k: os.environ.get(k) for k in env},
        "nproc": len(os.sched_getaffinity(0)),
    }


def job(workload: str, seed: int, trace: bool) -> dict:
    from workloads import WORKLOADS

    # each repetition must pay for its lattices, not look them up
    for cached in (families.build_family, families.weak_order_lattice, fibpoly.fib_poly):
        if cached.cache_info().currsize:
            raise RuntimeError(f"{cached.__name__} cache is not empty at job start")
    spec = WORKLOADS[workload]
    tracer = cache_counts = None
    if trace:
        from spans import Tracer, instrument

        tracer = Tracer()
        cache_counts = instrument(tracer)
        tracer.enter("job")
    cpu0, _ = rusage()
    t0 = time.perf_counter()
    try:
        out = spec.job(seed)
    except Exception as exc:  # a crashed job is one failed check, not a lost run
        return {"checks": 1, "failures": [f"job raised {exc!r}"]}
    finally:
        job_s = time.perf_counter() - t0
        cpu1, peak_rss_mb = rusage()
        if tracer is not None:
            tracer.exit()
    result = {"job_s": job_s, "cpu_s": cpu1 - cpu0, "peak_rss_mb": peak_rss_mb}
    if tracer is not None:
        cache_counts()
        result["trace"] = tracer.snapshot()
    checks = spec.gate(out)
    result["checks"] = len(checks)
    result["failures"] = [name for name, ok in checks if not ok]
    result["stdout_bytes"] = out.get("stdout_bytes", 0)
    result["facts"] = {k: out[k] for k in ("mu", "passed", "orders") if k in out}
    return result


def main() -> None:
    spec = json.loads(sys.argv[1])
    result = {"imported": IMPORTED}
    if spec["mode"] == "info":
        result.update(info())
    elif spec["mode"] == "job":
        result.update(job(spec["workload"], spec["seed"], spec["trace"]))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
