"""qobf benchmark: closed-loop workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload paper_eval --seed 1 --seconds 25 --trace 0

With ``--trace 0`` it reports the end-to-end metrics of the workload; with
``--trace 1`` it runs the same loop untraced for half the time and traced for
the other half, and reports per-layer metrics and the tracing overhead. It
prints a readable summary, then one JSON object as the last line. See
``perfbench/README.md`` for the metrics and workloads.
"""
from __future__ import annotations

import time

_T0 = time.perf_counter()  # start of set-up, before anything heavy is imported

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# One BLAS thread: the loop has one client and the machine may have two cores.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("paper_eval", "qasm_pipeline", "midcircuit")
SETUP_PROBES = 3
PROBE_REFERENCE_S = 0.05  # reference time after each set-up probe
# Printed in the summary but left out of the result object: fail_ratio is 0
# on a correct run (the result's failed/attempted carry it), and tvd_mean
# moves with the seeded circuits (tvd_ratio is its steady form).
UNGATED = ("fail_ratio", "tvd_mean")


class SetupError(RuntimeError):
    pass


def _import_program():
    """Import qobf from this checkout's ``src/``, never from elsewhere."""
    if not (SRC / "qobf" / "__init__.py").is_file():
        raise SetupError(f"no qobf sources at {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import qobf

    if Path(qobf.__file__).resolve().parent != SRC / "qobf":
        raise SetupError(f"imported qobf from {qobf.__file__}, not from {SRC}")


def probe_setup(workload: str, seed: int) -> tuple[float, float]:
    """In a fresh interpreter: import qobf, finish one warm-up job.

    Returns the set-up time and the speed scale measured right after it.
    """
    _import_program()
    import jobs
    import speed

    jobs.warm_up(jobs.passes(workload, seed))
    seconds = time.perf_counter() - _T0
    reference = speed.Speed()
    reference.sample(PROBE_REFERENCE_S)
    return seconds, reference.scale


def setup_seconds(workload: str, seed: int, probes: int) -> float:
    """Median set-up time at the nominal speed over fresh processes, one at a time."""
    times = []
    for i in range(probes):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
               "--workload", workload, "--seed", str(seed + i)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise SetupError(f"set-up probe failed:\n{proc.stderr}")
        seconds, scale = map(float, proc.stdout.split()[-2:])
        times.append(seconds * scale)
    return statistics.median(times)


def provenance() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "qobf").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    threads = None
    status = Path("/proc/self/status")
    if status.exists():
        for line in status.read_text().splitlines():
            if line.startswith("Threads:"):
                threads = int(line.split()[1])
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": os.environ["OPENBLAS_NUM_THREADS"],
        "process_threads": threads,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def benchmark(workload: str, seed: int, seconds: float, trace: bool,
              tiny: bool = False, probes: int = SETUP_PROBES) -> dict:
    """Measure one workload; return the result object and what the summary shows."""
    _import_program()
    import jobs
    import spans

    source = jobs.passes(workload, seed, tiny)
    jobs.warm_up(source)
    info = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace)}
    if not trace:
        setup_s = setup_seconds(workload, seed, probes)
        loops = [jobs.measure(source, seconds)]
        e2e = jobs.end_to_end(workload, loops[0])
        metrics = {"setup_s": (setup_s, "s"), **e2e}
        tail = jobs.TAIL_PERCENTILE[workload]
        n = len(loops[0].latencies)
        info["tail"] = f"p{tail}, {n - 1 - int((n - 1) * tail / 100)} of {n} jobs beyond it"
        info["speed_scale"] = loops[0].reference.scale
        info["measured_jobs_per_s"] = n / loops[0].busy
    else:
        plain = jobs.measure(source, seconds / 2)
        tracer = spans.Tracer()
        tracer.install()
        try:
            traced = jobs.measure(source, seconds / 2, tracer)
        finally:
            tracer.uninstall()
        loops = [plain, traced]
        plain_rate = len(plain.latencies) / sum(plain.nominal_latencies)
        metrics = spans.per_layer(tracer, traced.latencies, plain_rate,
                                  traced.reference.scale)
        OUT.mkdir(exist_ok=True)
        path = OUT / f"spans-{workload}-seed{seed}.npz"
        tracer.save(path)
        info["spans_file"] = str(path.relative_to(ROOT))
    attempted = sum(len(lp.latencies) for lp in loops)
    failed = sum(lp.failed for lp in loops)
    info["errors"] = [e for lp in loops for e in lp.errors][:5]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()
                    if k not in UNGATED},
    }
    return {"result": result, "info": info, "table": metrics}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    try:
        if args.probe_setup:
            print(*map(repr, probe_setup(args.workload, args.seed)))
            return 0
        out = benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
        prov = provenance()
    except (SetupError, ImportError, subprocess.SubprocessError, OSError) as exc:
        print(f"benchmark set-up failed: {exc}", file=sys.stderr)
        return 2
    print(f"# qobf benchmark {json.dumps(out['info'])}")
    print(f"# provenance {json.dumps(prov)}")
    for name, (value, unit) in out["table"].items():
        print(f"# {name:44s} {value:14.6g} {unit}")
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
