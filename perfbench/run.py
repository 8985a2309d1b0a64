"""cubequot benchmark: one workload per process, closed loop, one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --record [--workload NAME]

Run from the repository root; the program is imported from ./src. The
workload seed chooses the inputs, which are written to .perfbench-work/
before timing starts. Passes of jobs run back to back, each job after the
previous one finished; the number of passes fills --seconds at the
workload's nominal pass time. Every step's output is checked after its
job's timed region against perfbench/reference.json and an independent
oracle (see workloads.py).

--trace 0 reports the end-to-end metrics: setup_s (median of fresh
processes that start the interpreter, import cubequot and write the
inputs), wall_s (median over passes of the summed job times), job_p50_ms
(median job time) and peak_rss_mb. --trace 1 runs the first pass untraced,
traced with spans around every layer (tracing.py), and untraced again, and
reports the per-layer metrics, the tracing overhead, and the share of
traced time no layer span covers. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

--record runs every job any seed can reach and writes the digests of their
checked outputs to perfbench/reference.json.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import METRICS, ROOT_SPAN, Tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench-work"
TRACE_OUT = ROOT / ".perfbench-out"
REFERENCE = HERE / "reference.json"
SETUP_PROBES = 5
MAX_UNATTRIBUTED = 0.05

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "job_p50_ms": "ms", "peak_rss_mb": "MB"}


def import_program():
    """Import cubequot from this checkout's src/, or exit without a result."""
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    try:
        import cubequot
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import cubequot from {src}: {exc}")
    if not Path(cubequot.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"perfbench: cubequot was imported from {cubequot.__file__}, not {src}")
    return cubequot


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def run_job(job, tracer=None):
    """Run a job's steps back to back; returns (seconds, outputs, error)."""
    outputs = []
    error = None
    span = tracer.span(ROOT_SPAN) if tracer else contextlib.nullcontext()
    start = time.perf_counter()
    try:
        with span:
            for step in job.steps:
                outputs.append(step.run())
    except Exception as exc:  # any failure of the program counts against the job
        error = f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - start, outputs, error


def check_job(job, outputs, error, refs) -> str | None:
    if error is not None:
        return error
    for step, (text, data) in zip(job.steps, outputs):
        want = refs.get(step.key)
        if want is None:
            return f"{step.key}: no reference digest"
        if digest(text) != want:
            return f"{step.key}: output digest {digest(text)} != reference {want}"
        try:
            reason = step.check(text, data)
        except Exception as exc:  # a malformed output fails its check
            reason = f"check raised {type(exc).__name__}: {exc}"
        if reason is not None:
            return f"{step.key}: {reason}"
    return None


class Tally:
    def __init__(self):
        self.pass_walls: list[float] = []
        self.job_times: list[float] = []
        self.failures: list[str] = []

    def run_pass(self, jobs, refs, tracer=None) -> float:
        wall = 0.0
        for job in jobs:
            gc.collect()  # each job starts from the same heap state, untimed
            seconds, outputs, error = run_job(job, tracer)
            wall += seconds
            self.job_times.append(seconds)
            reason = check_job(job, outputs, error, refs)
            if reason is not None:
                self.failures.append(f"{job.name}: {reason}")
        self.pass_walls.append(wall)
        return wall


def measure(passes, refs) -> Tally:
    tally = Tally()
    for jobs in passes:
        tally.run_pass(jobs, refs)
    return tally


def probe_setup(args) -> list[float]:
    """Time fresh processes from spawn until their inputs are written."""
    samples = []
    for _ in range(SETUP_PROBES):
        cmd = [
            sys.executable, str(HERE / "run.py"), "--setup-probe",
            "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        ]
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(proc.stdout.split()[-1]) - start)
    return samples


def traced_metrics(passes, refs, args, tally: Tally) -> tuple[dict, list[str]]:
    """Run the first pass untraced, traced, and untraced again; the two
    untraced runs bracket the traced one, so warm-up favours neither side."""
    before = tally.run_pass(passes[0], refs)
    tracer = Tracer(f"{args.workload}:{args.seed}:{os.getpid()}")
    tracer.install()
    try:
        traced = tally.run_pass(passes[0], refs, tracer)
    finally:
        tracer.uninstall()
    untraced = (before + tally.run_pass(passes[0], refs)) / 2
    tracer.write(TRACE_OUT / f"spans-{args.workload}-seed{args.seed}-{os.getpid()}.jsonl")
    layers = tracer.layer_metrics()
    unattributed = layers.pop("unattributed_s") / traced
    layers.update(
        {
            "trace.untraced_wall_s": untraced,
            "trace.traced_wall_s": traced,
            "trace.overhead_s": traced - untraced,
            "trace.unattributed_ratio": unattributed,
        }
    )
    problems = []
    if unattributed > MAX_UNATTRIBUTED:
        problems.append(
            f"trace self-check: {unattributed:.1%} of traced time is outside every layer span"
        )
    return layers, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default=None)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true", help="write reference digests")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload is not None and args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}")
    if args.workload is None and not args.record:
        parser.error("--workload is required")

    import_program()
    workdir = WORK / str(os.getpid())
    try:
        if args.record:
            return record(args.workload, workdir)
        workdir.mkdir(parents=True, exist_ok=True)
        passes = WORKLOADS[args.workload](workdir).passes(args.seed, args.seconds)
        if args.setup_probe:
            print(time.perf_counter())
            return 0
        refs = json.loads(REFERENCE.read_text(encoding="utf-8"))
        if args.trace:
            tally = Tally()
            metrics, problems = traced_metrics(passes, refs, args, tally)
            units = {name: unit for name, (unit, _) in METRICS.items()}
        else:
            setup = probe_setup(args)
            tally = measure(passes, refs)
            metrics = {
                "setup_s": statistics.median(setup),
                "wall_s": statistics.median(tally.pass_walls),
                "job_p50_ms": statistics.median(tally.job_times) * 1000.0,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            units = END_TO_END_UNITS
            problems = []
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    report(args, tally, metrics, units, problems)
    return 0


def report(args, tally: Tally, metrics: dict, units: dict, problems: list[str]) -> None:
    times = sorted(tally.job_times)
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(tally.pass_walls)} jobs={len(times)}")
    if len(times) >= 20:
        # a percentile is shown only with at least ten samples beyond it
        q = statistics.quantiles(times, n=100)
        line = f"job latency over {len(times)} jobs: p50={q[49] * 1000:.2f} ms"
        if len(times) >= 100:
            line += f" p90={q[89] * 1000:.2f} ms"
        print(line)
    print("pass times (s): " + " ".join(f"{w:.3f}" for w in tally.pass_walls))
    for failure in tally.failures[:20]:
        print(f"FAILED {failure}")
    for problem in problems:
        print(problem)
    print(f"fail_ratio={len(tally.failures)}/{len(times)}")
    for name, value in metrics.items():
        print(f"{name}={value} {units[name]}")
    result = {
        "correct": not tally.failures and not problems,
        "attempted": len(times),
        "failed": len(tally.failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))


def record(name: str | None, workdir: Path) -> int:
    """Run every pool job once, check it by its oracle, store its digests."""
    workdir.mkdir(parents=True, exist_ok=True)
    refs = json.loads(REFERENCE.read_text(encoding="utf-8")) if REFERENCE.exists() else {}
    names = [name] if name else list(WORKLOADS)
    bad = 0
    for wname in names:
        refs = {key: value for key, value in refs.items() if not key.startswith(f"{wname}/")}
        jobs = WORKLOADS[wname](workdir).pool_jobs()
        start = time.perf_counter()
        for job in jobs:
            _, outputs, error = run_job(job)
            reason = error
            if reason is None:
                for step, (text, data) in zip(job.steps, outputs):
                    reason = step.check(text, data)
                    if reason is not None:
                        break
                    refs[step.key] = digest(text)
            if reason is not None:
                bad += 1
                print(f"FAILED {job.name}: {reason}", file=sys.stderr)
        print(f"recorded {wname}: {len(jobs)} jobs in {time.perf_counter() - start:.1f} s",
              file=sys.stderr)
    REFERENCE.write_text(json.dumps(refs, sort_keys=True, indent=0) + "\n", encoding="utf-8")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
