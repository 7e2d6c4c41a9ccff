"""Benchmark of boussinesq-lab: one workload per run, end to end or traced.

    python3 benchmarks/run.py --workload ensemble --seed 1 --seconds 20 --trace 0

Workloads: ensemble, long_path, gramian, cli (see README.md), or `all`,
which runs each in turn in its own process. The package is imported from
`src/` next to this directory, never from an installed copy.

With --trace 0 the run reports throughput, setup_s and peak_rss_mib, timed
with tracing off; with --trace 1 it runs each op of a fixed list traced,
untraced and traced again, and reports the per-layer metrics of the first
traced pass.
Either way the last stdout line is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; earlier lines give the same numbers by
name with units, plus `failed_frac` and the run's context. The full record
goes to .bench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
SETUP_SAMPLES = 3        # the run's own set-up plus fresh-interpreter probes
WORKLOADS = ("ensemble", "long_path", "gramian", "cli")


def set_up(name: str, seed: int, scratch: Path, **size):
    """Import the package, build the workload's inputs, run one warm-up op."""
    t0 = time.perf_counter()
    import workloads
    wl = workloads.build(name, seed, scratch, **size)
    wl.warmup()
    return wl, time.perf_counter() - t0


def probe_setup(name: str, seed: int) -> float:
    """Set-up time of the workload in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", name, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=150)
    if proc.returncode:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-400:]}")
    return float(json.loads(proc.stdout.splitlines()[-1])["setup_s"])


def run_op(wl, i: int, tracer=None):
    """One timed op and its untimed check: (seconds, units, failure or None, counts)."""
    if tracer is not None:
        tracer.active = True
    t0 = time.perf_counter()
    try:
        result = wl.op(i)
    except Exception as exc:       # a failed op is counted, not fatal
        return time.perf_counter() - t0, 0, f"op {i} raised {exc!r}", {}
    finally:
        if tracer is not None:
            tracer.active = False
    busy = time.perf_counter() - t0
    try:
        failure = wl.check(i, result)
    except Exception as exc:
        failure = f"check raised {exc!r}"
    if failure:
        return busy, 0, f"op {i}: {failure}", {}
    return busy, wl.units(result), None, wl.counts(result)


def measure(wl, seconds: float) -> dict:
    """Closed loop of ops until their busy time reaches `seconds`."""
    times, units, failures = [], 0, []
    wall0 = time.perf_counter()
    i = 0
    while i < wl.min_ops or (sum(times) < seconds
                             and time.perf_counter() - wall0 < 3 * seconds):
        i += 1
        busy, done, failure, _ = run_op(wl, i)
        times.append(busy)
        units += done
        if failure:
            failures.append(failure)
    return {"op_seconds": times, "units": units, "failures": failures}


def traced(wl) -> dict:
    """Per op of a fixed list: a traced run, an untraced run, a traced run.

    Each traced run records into the tracer of its pass, so the two passes
    give independent exact counts. The untraced run sits between the two
    traced runs of the same op, so a steady drift in machine speed cancels
    out of the overhead figure.
    """
    import tracing
    tracers = (tracing.Tracer(), tracing.Tracer())
    busy = [0.0, 0.0, 0.0]                # first traced, untraced, second traced
    failures = []
    for i in range(1, wl.trace_ops + 1):
        for slot, tracer in ((0, tracers[0]), (1, None), (2, tracers[1])):
            if tracer is None:
                took, _, failure, _ = run_op(wl, i)
            else:
                wl.span = tracer.span
                try:
                    with tracing.installed(tracer):
                        took, _, failure, counts = run_op(wl, i, tracer)
                finally:
                    del wl.span
                tracer.counts.update(counts)
            busy[slot] += took
            failures += [failure] if failure else []
    first, second = tracers
    for key in sorted(first.counts.keys() | second.counts.keys()):
        a, b = first.counts.get(key, 0), second.counts.get(key, 0)
        if a != b:
            failures.append(f"exact count {key} differs between traced passes: {a} != {b}")
    report = {"counts": dict(first.counts), "self_s": dict(first.self_s),
              "total_s": dict(first.total_s), "spans": first.spans,
              "overhead_frac": (busy[0] + busy[2]) / (2.0 * busy[1]) - 1.0}
    return {"pass": report, "failures": failures, "attempted": 3 * wl.trace_ops}


def _per_call(p, name, base):
    """Microseconds of `name` spans, children included, per `base` count."""
    n = p["counts"].get(base, 0)
    return p["total_s"].get(name, 0.0) / n * 1e6 if n else 0.0


def _ratio(num, den):
    return lambda p: p["counts"].get(num, 0) / p["counts"][den] if p["counts"].get(den) else 0.0


def _count(key):
    return lambda p: p["counts"].get(key, 0)


def _self(key):
    return lambda p: p["self_s"].get(key, 0.0)


# (name, unit, value from the first traced pass); BENCHMARK.json lists the same
PER_LAYER = [
    ("spectral.fft.calls", "count", _count("spectral.fft.calls")),
    ("spectral.fft.points", "count", _count("spectral.fft.points")),
    ("spectral.fft.bytes_computed", "bytes", _count("spectral.fft.bytes_computed")),
    ("spectral.fft.self_s", "s", _self("spectral.fft")),
    ("spectral.nonlinear_B.calls", "count", _count("spectral.nonlinear_B.calls")),
    ("spectral.nonlinear_B.self_s", "s", _self("spectral.nonlinear_B")),
    ("spectral.norms.self_s", "s", _self("spectral.norms")),
    ("stepping.advance.calls", "count", _count("stepping.advance.calls")),
    ("stepping.advance.self_s", "s", _self("stepping.advance")),
    ("stepping.advance.us_per_call", "us",
     lambda p: _per_call(p, "stepping.advance", "stepping.advance.calls")),
    ("stepping.simulate.self_s", "s", _self("stepping.simulate")),
    ("ensembles.batch_advance.calls", "count", _count("ensembles.batch_advance.calls")),
    ("ensembles.batch_advance.self_s", "s", _self("ensembles.batch_advance")),
    ("ensembles.batch_advance.us_per_path_step", "us",
     lambda p: _per_call(p, "ensembles.batch_advance", "ensembles.batch_advance.rows")),
    ("ensembles.run.self_s", "s", _self("ensembles.run")),
    ("ensembles.sample_noise_batch.self_s", "s", _self("ensembles.sample_noise_batch")),
    ("noise.sample_subordinator.self_s", "s", _self("noise.sample_subordinator")),
    ("noise.stopping_times.self_s", "s", _self("noise.stopping_times")),
    ("variation.prepare.calls", "count", _count("variation.prepare.calls")),
    ("variation.prepare.self_s", "s", _self("variation.prepare")),
    ("variation.tangent.calls", "count", _count("variation.tangent.calls")),
    ("variation.tangent.rows", "count", _count("variation.tangent.rows")),
    ("variation.tangent.self_s", "s", _self("variation.tangent")),
    ("variation.tangent.us_per_row", "us",
     lambda p: _per_call(p, "variation.tangent", "variation.tangent.rows")),
    ("variation.adjoint.calls", "count", _count("variation.adjoint.calls")),
    ("variation.adjoint.rows", "count", _count("variation.adjoint.rows")),
    ("variation.adjoint.self_s", "s", _self("variation.adjoint")),
    ("variation.adjoint.us_per_row", "us",
     lambda p: _per_call(p, "variation.adjoint", "variation.adjoint.rows")),
    ("variation.malliavin_forward.self_s", "s", _self("variation.malliavin_forward")),
    ("variation.malliavin_backward.self_s", "s", _self("variation.malliavin_backward")),
    ("variation.min_eigen_probe.calls", "count", _count("variation.min_eigen_probe.calls")),
    ("variation.min_eigen_probe.self_s", "s", _self("variation.min_eigen_probe")),
    ("variation.eigh.calls", "count", _count("variation.eigh.calls")),
    ("variation.eigh_per_probe", "ratio",
     _ratio("variation.eigh.calls", "variation.min_eigen_probe.calls")),
    ("hormander.span_generation.self_s", "s", _self("hormander.span_generation")),
    ("hormander.verify_span.self_s", "s", _self("hormander.verify_span")),
    ("hormander.verify_span.checks", "count", _count("hormander.verify_span.checks")),
    ("cli.simulate.wall_s", "s", lambda p: p["total_s"].get("cli.simulate", 0.0)),
    ("cli.audit.wall_s", "s", lambda p: p["total_s"].get("cli.audit", 0.0)),
    ("cli.malliavin.wall_s", "s", lambda p: p["total_s"].get("cli.malliavin", 0.0)),
    ("cli.brackets.wall_s", "s", lambda p: p["total_s"].get("cli.brackets", 0.0)),
    ("cli.span.wall_s", "s", lambda p: p["total_s"].get("cli.span", 0.0)),
    ("cli.write_snapshots.self_s", "s", _self("cli.write_snapshots")),
    ("cli.bytes_written", "bytes", _count("cli.bytes_written")),
    ("trace.overhead_frac", "ratio", lambda p: p["overhead_frac"]),
]


def context(name: str, seed: int, seconds: float, trace: int) -> dict:
    import numpy
    import scipy

    def git(*args):
        proc = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                              text=True, timeout=30)
        return proc.stdout.strip() if proc.returncode == 0 else None

    has_git = (ROOT / ".git").exists() and shutil.which("git")
    sha = git("rev-parse", "HEAD") if has_git else None
    dirty = bool(git("status", "--porcelain", "--untracked-files=no")) if sha else None
    files = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    for f in files:
        digest.update(f.relative_to(SRC).as_posix().encode() + b"\0" + f.read_bytes())
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    status = Path("/proc/self/status")
    if status.exists():
        for line in status.read_text().splitlines():
            if line.startswith("Threads:"):
                threads = int(line.split()[1])
    return {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "git_sha": sha, "git_dirty": dirty,
        "src_sha256": digest.hexdigest(),
        "src_lines": sum(len(f.read_text().splitlines()) for f in files),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "os_threads": threads,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "machine": platform.machine(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": {k: os.environ.get(k) for k in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "bqlab_workers": os.environ.get("BQLAB_WORKERS"),
    }


def run(name: str, seed: int, seconds: float, trace: int, scratch: Path,
        probes: int = SETUP_SAMPLES - 1, **size):
    """Run one workload; returns (result line, full record)."""
    samples = [probe_setup(name, seed) for _ in range(0 if trace else probes)]
    wl, own = set_up(name, seed, scratch, **size)
    samples.append(own)
    try:
        if trace:
            out = traced(wl)
            p = out["pass"]
            metrics = {key: {"value": fn(p), "unit": unit} for key, unit, fn in PER_LAYER}
            attempted, failures = out["attempted"], out["failures"]
            extra = {"spans": p["spans"], "counts": p["counts"]}
        else:
            out = measure(wl, seconds)
            busy = sum(out["op_seconds"])
            metrics = {
                "throughput": {"value": out["units"] / busy, "unit": "1/s"},
                "setup_s": {"value": statistics.median(samples), "unit": "s"},
                "peak_rss_mib": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                                 / 1024.0, "unit": "MiB"},
            }
            attempted, failures = len(out["op_seconds"]), out["failures"]
            extra = {"op_seconds": out["op_seconds"], "units": out["units"],
                     "setup_samples_s": samples}
    finally:
        wl.close()
    result = {"correct": not failures, "attempted": attempted,
              "failed": min(len(failures), attempted), "metrics": metrics}
    record = {"context": context(name, seed, seconds, trace), "unit": wl.unit,
              "failures": failures,
              "failed_frac": result["failed"] / attempted, **result, **extra}
    return result, record


def report(result: dict, record: dict) -> None:
    ctx = record["context"]
    print(f"{ctx['workload']} seed {ctx['seed']} trace {ctx['trace']}: "
          f"{result['attempted']} ops, {result['failed']} failed")
    for key, m in result["metrics"].items():
        unit = f"{record['unit']}/s" if key == "throughput" else m["unit"]
        print(f"  {key:44s} {m['value']:.6g} {unit}")
    print(f"  {'failed_frac':44s} {record['failed_frac']:.6g} 1")
    for failure in record["failures"]:
        print(f"  FAILED {failure}")
    print("context " + json.dumps(ctx, sort_keys=True))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "boussinesq_lab" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ["BQLAB_WORKERS"] = "1"

    if args.workload == "all":
        results = {}
        for name in WORKLOADS:
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)], cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.splitlines()
            if proc.returncode or not lines:
                print(proc.stdout + proc.stderr, file=sys.stderr)
                return 1
            print("\n".join(lines[:-1]), flush=True)
            results[name] = json.loads(lines[-1])
        print(json.dumps(results))
        return 0

    scratch = ROOT / ".bench_tmp" / f"{args.workload}-{os.getpid()}"
    try:
        if args.setup_probe:
            wl, took = set_up(args.workload, args.seed, scratch)
            wl.close()
            print(json.dumps({"setup_s": took}))
            return 0
        result, record = run(args.workload, args.seed, args.seconds, args.trace, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out / name).write_text(json.dumps(record) + "\n")
    report(result, record)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
