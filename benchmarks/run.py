#!/usr/bin/env python3
"""rotdet benchmark: one workload per process, timed end to end or traced.

    python3 benchmarks/run.py --workload detect --seed 1 --seconds 15 --trace 0

Run from the repository root. The package is imported from ``src/``; no
installation is needed. With ``--trace 0`` the run reports the end-to-end
metrics named in ``BENCHMARK.json``; with ``--trace 1`` it reports the
per-layer metrics, running each op twice on the same inputs, untraced and
traced, so that the difference gives the tracing overhead. Times are
corrected for host speed (see hostspeed.py). The last line of standard
output is one JSON object; the lines before it give the same metrics for
a reader, the run environment and the behaviour digest. A full record
goes to ``benchmarks/results/``. When no op succeeds, the result says
``correct: false`` and has no metrics. Exit code 2 means the benchmark
could not run (no result is printed).
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
# Set-up is timed at least SETUP_REPEATS times and for SETUP_MIN_S in all;
# the median is reported.
SETUP_REPEATS = 5
SETUP_MIN_S = 2.0
# A run makes at least MIN_OPS ops even when they outlast --seconds, so a
# slow op still yields a median; a traced run, one untraced and one traced.
# peak_rss_mb is read after the first MIN_OPS ops, so that it covers the same
# work in every run, however many ops the host's speed allows: train's peak
# rises again around its fifth op.
MIN_OPS = 3
TRACED_MIN_OPS = 2
DIGEST_OPS = 2  # the behaviour digest covers this many leading ops


def _die(msg: str) -> None:
    print(f"benchmark: {msg}", file=sys.stderr)
    sys.exit(2)


def _nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


# BLAS may use at most one thread per available core; set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, str(_nproc()))

sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(1, str(HERE))
try:
    import numpy as np
    import rotdet
except ImportError as exc:
    _die(f"cannot import rotdet from {ROOT / 'src'}: {exc}")
if Path(rotdet.__file__).resolve().parent != ROOT / "src" / "rotdet":
    _die(f"rotdet was imported from {rotdet.__file__}, not from src/")

from hostspeed import HostSpeed  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _blas() -> tuple[str, int | None]:
    """BLAS library name and the thread count it reports, when it can."""
    try:
        info = np.__config__.CONFIG["Build Dependencies"]["blas"]
        name = f"{info['name']} {info.get('version', '')}".strip()
    except (AttributeError, KeyError, TypeError):
        name = "unknown"
    # dlsym on numpy's core extension also searches the BLAS it links to.
    try:
        try:
            from numpy._core import _multiarray_umath as core
        except ImportError:  # NumPy 1.x
            from numpy.core import _multiarray_umath as core
        lib = ctypes.CDLL(core.__file__)
        for sym in ("openblas_get_num_threads",
                    "scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_"):
            if hasattr(lib, sym):
                fn = getattr(lib, sym)
                fn.argtypes, fn.restype = [], ctypes.c_int
                return name, fn()
    except (ImportError, OSError):
        pass
    return name, None


def _peak_rss_mib() -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss is in KiB on Linux and in bytes on macOS
    return peak / (1024.0 * 1024.0) if sys.platform == "darwin" \
        else peak / 1024.0


def _environment(seed: int) -> dict:
    blas, threads = _blas()
    return {
        "nproc": _nproc(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": threads,
        "seed": seed,
        "ru_maxrss_unit": "bytes" if sys.platform == "darwin" else "KiB",
    }


def _declared(kind: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def _metrics(host, tracer, setup_times, setup_probes, op_times, op_probes,
             good, traced, untraced, peak_rss) -> dict[str, float]:
    """Each time is corrected by the host speed sampled while it ran (see
    hostspeed.py); the wall times stay in the record."""
    op_corr = {i: host.correction(*op_probes[i]) for i in good}
    corrected = {i: op_times[i] * op_corr[i] for i in good}
    metrics = {
        "wall.op_p50_s": statistics.median(op_times[i] for i in good),
        "host.op_correction_p50": statistics.median(op_corr.values()),
        "host.probes": host.mark(),
    }
    if tracer is not None:
        metrics.update(tracer.layer_metrics(traced, op_corr))
        metrics["trace.op_p50_s"] = statistics.median(
            corrected[i] for i in traced)
        metrics["trace.overhead_s"] = metrics["trace.op_p50_s"] - \
            statistics.median(corrected[i] for i in untraced)
    else:
        setup_corr = [host.correction(*p) for p in setup_probes]
        metrics["wall.setup_s"] = statistics.median(setup_times)
        metrics["host.setup_correction_p50"] = statistics.median(setup_corr)
        metrics["setup_s"] = statistics.median(
            t * c for t, c in zip(setup_times, setup_corr))
        metrics["op_p50_s"] = statistics.median(corrected.values())
        metrics["ops_per_s"] = len(corrected) / sum(corrected.values())
        metrics["peak_rss_mb"] = peak_rss
    return metrics


def run(workload: str, seed: int, seconds: float, trace: bool) -> int:
    declared = _declared("per_layer" if trace else "end_to_end")
    wl = WORKLOADS[workload]()
    host = HostSpeed()
    host.start()

    setup_times: list[float] = []
    setup_probes: list[tuple[int, int]] = []  # probe samples per set-up
    while len(setup_times) < SETUP_REPEATS or sum(setup_times) < SETUP_MIN_S:
        p0 = host.mark()
        t0 = time.perf_counter()
        wl.setup(seed)
        setup_times.append(time.perf_counter() - t0)
        setup_probes.append((p0, host.mark()))

    tracer = Tracer() if trace else None
    op_times: list[float] = []
    op_probes: list[tuple[int, int]] = []  # host probe samples within each op
    traced: dict[int, float] = {}
    outs = []
    failures: list[str] = []
    failed = 0
    digest = hashlib.sha256()
    min_ops = TRACED_MIN_OPS if trace else MIN_OPS
    peak_rss = float("nan")
    start = time.perf_counter()
    while (len(op_times) < min_ops or time.perf_counter() - start < seconds
           or (trace and len(op_times) % 2)):
        # A traced run makes each op twice on the same inputs, untraced and
        # traced, alternating which goes first so that warm-up evens out.
        i = len(op_times)
        k = i // 2 if trace else i
        on = trace and i % 2 != k % 2
        if on:
            tracer.install(i)
        dt = float("nan")
        p0 = host.mark()
        try:
            t0 = time.perf_counter()
            out = wl.op(k)
            dt = time.perf_counter() - t0
        except Exception as exc:  # a failing op counts; the run goes on
            fails = [f"op raised {type(exc).__name__}: {exc}"]
        finally:
            if on:
                tracer.uninstall()
        op_times.append(dt)
        op_probes.append((p0, host.mark()))
        if len(op_times) == min_ops:
            peak_rss = _peak_rss_mib()
        if dt == dt:
            if on:
                traced[i] = dt
            outs.append(out)
            try:
                fails = wl.check(k, out)
                if not trace and i < DIGEST_OPS:
                    digest.update(f"op {i}\n{wl.record(i, out)}\n".encode())
            except Exception as exc:
                fails = [f"check raised {type(exc).__name__}: {exc}"]
        if fails:
            failed += 1
            failures += [f"op {i}: {f}" for f in fails]
    host.stop()
    if tracer is not None:
        tracer.install("tail")
    try:
        tail_fails = wl.finish(outs)
    except Exception as exc:
        tail_fails = [f"raised {type(exc).__name__}: {exc}"]
    finally:
        if tracer is not None:
            tracer.uninstall()
    if tail_fails:
        failed = min(failed + 1, len(op_times))
        failures += [f"finish: {f}" for f in tail_fails]

    good = [i for i, t in enumerate(op_times) if t == t]
    untraced = [i for i in good if i not in traced]
    metrics: dict[str, float] = {}
    # Without a successful op to time (traced: one of each kind), the result
    # says correct=false and carries no metrics.
    if good and (not trace or (traced and untraced)):
        metrics = _metrics(host, tracer, setup_times, setup_probes,
                           op_times, op_probes, good, traced, untraced,
                           peak_rss)
        missing = sorted(set(declared) - set(metrics))
        if missing:
            _die(f"workload {workload} did not produce {', '.join(missing)}")

    env = _environment(seed)
    print(f"workload {workload}: {len(op_times)} ops, {failed} failed, "
          f"seed {seed}, trace {int(trace)}")
    print("environment " + " ".join(f"{k}={v}" for k, v in env.items()))
    if not trace:
        print(f"digest sha256={digest.hexdigest()} "
              f"over ops 0..{DIGEST_OPS - 1}")
    if metrics and not trace:
        print(f"host correction p50 {metrics['host.op_correction_p50']:.4f} "
              f"(set-up {metrics['host.setup_correction_p50']:.4f}) over "
              f"{metrics['host.probes']} probes; wall op_p50_s = "
              f"{metrics['wall.op_p50_s']:.6g} s, wall setup_s = "
              f"{metrics['wall.setup_s']:.6g} s")
    print(f"error_rate = {failed / len(op_times):.6g} (failed/attempted)")
    for f in failures:
        print(f"FAILED {f}")
    for name, unit in declared.items():
        if name in metrics:
            print(f"{name} = {metrics[name]:.9g} {unit}")

    RESULTS.mkdir(exist_ok=True)
    record = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": int(trace), "environment": env,
        "digest_sha256": None if trace else digest.hexdigest(),
        "digest_ops": DIGEST_OPS,
        "attempted": len(op_times), "failed": failed, "failures": failures,
        "setup_times_s": setup_times, "op_times_s": op_times,
        "metrics": metrics,
        "probe_samples_s": host.samples,
        "setup_probe_ranges": setup_probes,
        "op_probe_ranges": op_probes,
    }
    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        tracer.write_spans(RESULTS / f"{workload}.spans.tsv")

    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(op_times),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in declared.items() if name in metrics},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
