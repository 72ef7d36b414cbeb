"""Benchmark of vortexlab through its public entry point `vortexlab.cli.run`.

    python3 perfbench/run.py --workload orbit|simulate --seed N \
        --seconds S --trace 0|1

Run from anywhere; the package is imported from `src/` beside this
directory.  One client runs one operation after another (closed loop):
it writes a generated config, calls `cli.run` in-process, checks the
artifacts, and starts the next operation while the median operation
still fits in the measured window.  The last stdout line is the result
object; the line before it records provenance.

With `--trace 0` the end-to-end metrics are reported.  With `--trace 1`
operations alternate between untraced and traced (see spans.py), and the
per-layer metrics come from the traced ones; the traced-minus-untraced
difference in operation time is reported as tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
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

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
SETUP_REPEATS = 5
WORKLOADS = ("orbit", "simulate")

END_TO_END = (
    ("op_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


class Workload:
    def __init__(self, config, check, n_vortices, newton_iters):
        self.config = config          # (seed, index, outdir) -> INI text
        self.check = check            # (outdir, index) -> list of problems
        self.n_vortices = n_vortices
        self.newton_iters = newton_iters  # outdir -> iterations written


def make_workload(name: str, seed: int):
    if name == "orbit":
        golden = workloads.load_golden(ROOT)
        return Workload(
            workloads.orbit_config,
            lambda outdir, index: workloads.check_orbit(outdir, golden),
            workloads.ORBIT_VORTICES, workloads.orbit_newton_iters)
    return Workload(
        workloads.simulate_config,
        lambda outdir, index: workloads.check_simulate(outdir, seed, index),
        workloads.SIM_VORTICES, lambda outdir: 0)


def measure_setup(repeats: int) -> float:
    """Median wall time of a fresh interpreter importing vortexlab."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, "-c", "import vortexlab"]
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "vortexlab").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def provenance(seed: int, threads_env) -> dict:
    import numpy
    import scipy
    return {
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "os_cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "VORTEXLAB_THREADS_removed": threads_env,
    }


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def run_operation(cli, text: str, outdir: Path):
    """(exit code, seconds in cli.run, captured stderr) of one operation."""
    outdir.mkdir(parents=True)
    cfg = outdir.with_suffix(".cfg")
    cfg.write_text(text)
    log = io.StringIO()
    with contextlib.redirect_stderr(log):
        t0 = time.perf_counter()
        code = cli.run(str(cfg))
        seconds = time.perf_counter() - t0
    cfg.unlink()
    return code, seconds, log.getvalue()


def save_spans(tracer, path: Path):
    """Write the spans column-wise, names as indices into `names`."""
    import numpy as np
    names = sorted({s[2] for s in tracer.spans})
    code = {name: i for i, name in enumerate(names)}
    cols = dict(zip(spans.Span._fields, zip(*tracer.spans))) if tracer.spans \
        else {field: () for field in spans.Span._fields}
    cols["name"] = [code[n] for n in cols["name"]]
    np.savez(path, names=np.array(names),
             **{field: np.array(col) for field, col in cols.items()})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "vortexlab" / "__init__.py").is_file():
        print(f"perfbench: no vortexlab package under {SRC}", file=sys.stderr)
        return 2
    # measure the program's defaults: the scan's worker cap stays unset
    threads_env = os.environ.pop("VORTEXLAB_THREADS", None)
    sys.path.insert(0, str(SRC))
    cli = importlib.import_module("vortexlab.cli")
    if SRC.resolve() not in Path(cli.__file__).resolve().parents:
        print(f"perfbench: imported {cli.__file__}, not the checkout's",
              file=sys.stderr)
        return 2

    try:
        workload = make_workload(args.workload, args.seed)
    except OSError as exc:
        print(f"perfbench: no golden orbit: {exc}", file=sys.stderr)
        return 2
    setup_s = None if args.trace else measure_setup(SETUP_REPEATS)

    run_dir = WORK / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    tracer = spans.Tracer()
    times = {False: [], True: []}  # seconds in cli.run, by traced
    verified = []
    wall = []
    failed = 0
    artifact_bytes = newton_iters = 0
    index = 0
    start = time.perf_counter()
    try:
        while True:
            traced = bool(args.trace) and index % 2 == 1
            outdir = run_dir / f"op{index}"
            text = workload.config(args.seed, index, str(outdir))
            tracer.op = index
            with tracer if traced else contextlib.nullcontext():
                code, seconds, log = run_operation(cli, text, outdir)
            wall.append(seconds)
            problems = ([f"exit code {code}: {log.strip()}"] if code
                        else workload.check(str(outdir), index))
            if problems:
                failed += 1
                print(f"perfbench: operation {index} failed: "
                      + "; ".join(problems), file=sys.stderr)
            else:
                verified.append(seconds)
                if traced:
                    artifact_bytes += _dir_bytes(outdir)
                    newton_iters += workload.newton_iters(str(outdir))
            shutil.rmtree(outdir)
            times[traced].append(seconds)
            index += 1
            if args.trace and not (times[False] and times[True]):
                continue
            elapsed = time.perf_counter() - start
            if elapsed + statistics.median(wall) > args.seconds:
                break
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    if args.trace:
        n = len(times[True])
        overhead = (statistics.median(times[True])
                    / statistics.median(times[False]) - 1.0)
        values = spans.summarize(tracer.spans, n, workload.n_vortices, {
            "cli.artifact_bytes": artifact_bytes / n,
            "periodic.newton_iters": newton_iters / n,
            "trace.overhead_share": overhead,
        })
        units = dict(spans.PER_LAYER)
        WORK.mkdir(exist_ok=True)
        save_spans(tracer, WORK / f"spans-{args.workload}.npz")
    else:
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        values = {
            "op_s": statistics.median(verified or times[False]),
            "setup_s": setup_s,
            "peak_rss_mb": rss_kib * 1024 / 1e6,
        }
        units = dict(END_TO_END)

    record = provenance(args.seed, threads_env)
    record["operations"] = index
    record["trace_absent"] = tracer.absent
    print(json.dumps({"provenance": record}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": index,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
