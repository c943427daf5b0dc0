"""Seeded benchmark of geoflow: one workload per invocation.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 20 --trace 0

Run from the repository root. The benchmark makes the workload's inputs
from the seed (several times, to time set-up), then runs the workload's
job again and again, one at a time, as child processes, until the time
budget is spent. Every job's outputs are checked. With `--trace 0` the
last stdout line is a JSON object with the end-to-end metrics; with
`--trace 1` half the budget runs jobs under tracer.py, and the line holds
the per-layer metrics instead. A full record, provenance included, goes
to .perfbench/BENCH_<workload>.json. See README.md for the workloads and
the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata

import layers
from workloads import WORKLOADS, file_hashes

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
TRACER = os.path.join(HERE, "tracer.py")
CHECKER = os.path.join(HERE, "workloads.py")

SETUP_REPS = 3  # set-ups per untraced run; setup_s is their median
MIN_JOBS = 2  # untraced jobs per untraced run, whatever the budget
LAST_START_S = 140  # no job starts later than this into the run
KILL_AT_S = 170  # a child still running this far into the run is killed
ROTATE_S = 0.2  # a running job moves to the next CPU this often
CPUS = sorted(os.sched_getaffinity(0))

END_TO_END = {
    "run_s": "s",
    "events_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MiB",
    "rss_bytes_per_event": "B",
    "setup_s": "s",
    "success_rate": "share",
}

# ROADMAP item 1: in-process stage times for 99,600 events, and `run` at 10^6.
ROADMAP_EVENTS = 99_600
ROADMAP_STAGE_S = {
    "ingest": 0.98, "clean": 0.73, "profile": 0.50, "metrics": 1.65, "network": 0.51,
    "communities": 0.05, "fit_gravity": 0.003, "fit_powerlaw": 0.27,
}
ROADMAP_US_PER_EVENT = 46.5  # 46.5 s for 10^6 events


@dataclass
class Job:
    """One job: its processes' summed CPU, peak RSS and total wall time."""

    wall: float = 0.0
    cpu: float = 0.0
    rss_mib: float = 0.0
    records: int = 0  # input records, counted by the output check
    errors: list[str] = field(default_factory=list)
    hashes: dict[str, str] = field(default_factory=dict)
    spans: list[list] = field(default_factory=list)


def child_env(extra: dict[str, str]) -> dict[str, str]:
    path = SRC + os.pathsep + os.environ["PYTHONPATH"] if os.environ.get("PYTHONPATH") else SRC
    return dict(os.environ, PYTHONPATH=path, **extra)


def rotate_cpus(pid: int, done: threading.Event) -> None:
    """Move a running child to the next CPU every ROTATE_S until `done`.

    On a virtual machine each CPU can slow down on its own, by half or
    more for seconds at a time, so a job left on one CPU would time that
    CPU's luck. Moving it gives every job an even share of each CPU
    (README.md, "Measured spread").
    """
    turn = 0
    while not done.wait(ROTATE_S):
        turn += 1
        try:
            os.sched_setaffinity(pid, {CPUS[turn % len(CPUS)]})
        except OSError:
            return


def spawn(argv: list[str], env_extra: dict[str, str], log_path: str, job: Job, kill_at: float) -> bool:
    """Run one child process to exit and add its costs to `job`."""
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable] + argv, cwd=ROOT, env=child_env(env_extra),
                                stdout=log, stderr=subprocess.STDOUT)
        done = threading.Event()
        helpers = [threading.Timer(max(0.0, kill_at - time.perf_counter()), proc.kill)]
        if len(CPUS) > 1:
            helpers.append(threading.Thread(target=rotate_cpus, args=(proc.pid, done)))
        for helper in helpers:
            helper.start()
        exited = False
        try:
            # Wait without reaping, so that the helpers never act on a reused pid.
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
            exited = True
            job.wall += time.perf_counter() - start
        finally:
            helpers[0].cancel()
            done.set()
            for helper in helpers:
                helper.join()
            if not exited:  # interrupted, e.g. by SIGTERM: leave no child behind
                proc.kill()
                proc.wait()
        _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    job.cpu += usage.ru_utime + usage.ru_stime
    job.rss_mib = max(job.rss_mib, usage.ru_maxrss / 1024.0)
    with open(log_path, encoding="utf-8", errors="replace") as fh:
        output = fh.read()
    if proc.returncode != 0 or "Traceback" in output:
        job.errors.append(f"{' '.join(argv[-4:])} exited {proc.returncode}: {output[-400:]!r}")
        return False
    return True


def run_commands(commands, directory: str, traced: bool, kill_at: float) -> Job:
    job = Job()
    os.makedirs(directory, exist_ok=True)
    for i, (argv, env) in enumerate(commands):
        spans_path = os.path.join(directory, f"spans{i}.json")
        if traced:
            argv = [TRACER, spans_path] + argv
        ok = spawn(argv, env, os.path.join(directory, f"log{i}.txt"), job, kill_at)
        if traced and os.path.exists(spans_path):
            with open(spans_path, encoding="utf-8") as fh:
                job.spans.append(json.load(fh))
        if not ok:
            break
    return job


def run_job(name: str, inputs: str, directory: str, traced: bool, first: Job | None, kill_at: float) -> Job:
    """One job with its logs in `directory` and its outputs in a subdirectory.

    Only the first job of a run is checked in full; a later job must
    reproduce its outputs byte for byte, and then shares its verdict.
    """
    out = os.path.join(directory, "out")
    job = run_commands(WORKLOADS[name].job(inputs, out), directory, traced, kill_at)
    job.hashes = file_hashes(out) if os.path.isdir(out) else {}
    if not job.errors:
        if first is None:
            job.errors, job.records = check(name, inputs, out, kill_at)
        elif job.hashes == first.hashes:
            job.errors, job.records = list(first.errors), first.records
        else:
            job.errors.append("outputs differ from the first job's outputs for the same seed")
    shutil.rmtree(directory)
    return job


def check(name: str, inputs: str, out: str, kill_at: float) -> tuple[list[str], int]:
    """Run the output checks in a process of their own (see workloads.py)."""
    argv = [sys.executable, CHECKER, "check", name, inputs, out]
    try:
        result = subprocess.run(argv, cwd=ROOT, env=child_env({}), capture_output=True, text=True,
                                timeout=max(0.0, kill_at - time.perf_counter()))
        report = json.loads(result.stdout.splitlines()[-1])
        return report["errors"], report["records"]
    except subprocess.TimeoutExpired:
        return ["output check timed out"], 0
    except (IndexError, ValueError, KeyError):
        return [f"output check crashed: {result.stderr[-400:]!r}"], 0


def measure(name: str, inputs: str, work: str, tag: str, budget_s: float, min_jobs: int,
            traced: bool, started: float, first: Job) -> list[Job]:
    """Closed loop with one client: the next job starts when the last ends.

    Every job must reproduce the outputs of `first`, the checked warm-up job.
    """
    jobs: list[Job] = []
    start = time.perf_counter()
    while True:
        walls = [j.wall for j in jobs]
        now = time.perf_counter()
        if len(jobs) >= min_jobs and now - start + statistics.median(walls) > budget_s:
            break
        if jobs and now + max(walls) > started + LAST_START_S:
            break
        directory = os.path.join(work, f"{tag}{len(jobs)}")
        jobs.append(run_job(name, inputs, directory, traced, first, started + KILL_AT_S))
    return jobs


def tail(samples: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest percentile with ten samples beyond it.

    With fewer than 20 samples no percentile has ten beyond it, and the
    maximum (percentile 100) is the tail reported. Nearest-rank values.
    """
    ordered = sorted(samples)
    n = len(ordered)
    for permille in (999, 990, 900, 500):
        rank = -(-permille * n // 1000)  # ceil(permille / 1000 * n)
        if n - rank >= 10:
            return permille / 10, ordered[rank - 1]
    return 100.0, ordered[-1]


def provenance(seed: int) -> dict:
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        result = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = result.stdout.strip() or commit
    src_lines = 0
    for dirpath, _, names in os.walk(SRC):
        for name in names:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "rb") as fh:
                    src_lines += sum(1 for _ in fh)
    return {
        "commit": commit,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "seed": seed,
        "src_lines": src_lines,
    }


def baseline_notes(name: str, records: int, run_s: float, layer: dict[str, float] | None) -> list[str]:
    """Ratios to ROADMAP item 1's table, per event, so any world size compares."""
    notes = []
    if name == "corpus":
        us = run_s / records * 1e6
        notes.append(f"corpus run_s: {us:.1f} us/event; ROADMAP `run` at 10^6: {ROADMAP_US_PER_EVENT} us/event; "
                     f"ratio {us / ROADMAP_US_PER_EVENT:.2f}")
    if name in ("corpus", "stagewise") and layer is not None:
        scale = records / ROADMAP_EVENTS
        measured = {stage: layer[f"cli.stage_{stage}.wall_s"] for stage in ROADMAP_STAGE_S}
        measured["total"] = sum(measured.values())
        table = dict(ROADMAP_STAGE_S, total=sum(ROADMAP_STAGE_S.values()))
        for stage, seconds in measured.items():
            notes.append(f"{name} stage {stage}: {seconds:.3f} s for {records} events; ROADMAP "
                         f"{table[stage]} s for {ROADMAP_EVENTS}; per-event ratio {seconds / (table[stage] * scale):.2f}")
    return notes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join(SRC, "geoflow", "__init__.py")):
        print(f"perfbench: no geoflow sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    started = time.perf_counter()
    workload = WORKLOADS[args.workload]
    work = os.path.join(ROOT, ".perfbench", args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)

    traced = bool(args.trace)
    setup_s, setup_hashes, setup_spans = [], [], []
    for rep in range(1 if traced else SETUP_REPS):
        inputs = os.path.join(work, f"inputs{rep}")
        begin = time.perf_counter()
        setup = run_commands(workload.setup(inputs, args.seed), os.path.join(work, f"setup{rep}"), traced,
                             started + KILL_AT_S)
        if setup.errors:
            print(f"perfbench: set-up failed: {setup.errors[0]}", file=sys.stderr)
            return 1
        setup_s.append(time.perf_counter() - begin)
        setup_hashes.append(file_hashes(inputs, skip=("config.json",)))
        setup_spans = setup.spans[0] if setup.spans else []

    # The warm-up job is checked in full and counted in success_rate, but
    # not timed: the timed loop starts on a warm page cache and warm CPU.
    warmup = run_job(args.workload, inputs, os.path.join(work, "warmup"), False, None, started + KILL_AT_S)
    if traced:
        plain = measure(args.workload, inputs, work, "plain", args.seconds / 2, 1, False, started, warmup)
        traced_jobs = measure(args.workload, inputs, work, "traced", args.seconds / 2, 1, True, started, warmup)
    else:
        plain = measure(args.workload, inputs, work, "job", args.seconds, MIN_JOBS, False, started, warmup)
        traced_jobs = []
    jobs = [warmup] + plain + traced_jobs
    reference = workload.reference_job(inputs, os.path.join(work, "reference", "out"))
    if reference is not None:
        ref = run_commands(reference, os.path.join(work, "reference"), False, started + KILL_AT_S)
        if not ref.errors and file_hashes(os.path.join(work, "reference", "out")) != jobs[0].hashes:
            ref.errors.append("stagewise artifacts differ from a one-process run on the same inputs")
        jobs.append(ref)
    errors = [e for job in jobs for e in job.errors]
    if any(h != setup_hashes[0] for h in setup_hashes):
        errors.append("set-up is not deterministic: inputs differ between repetitions")
    failed = sum(1 for job in jobs if job.errors)
    records = max(job.records for job in jobs) or 1

    walls = [j.wall for j in plain]
    run_s = statistics.median(walls)
    peak_rss_mb = statistics.median(j.rss_mib for j in plain)
    e2e = {
        "run_s": run_s,
        "events_per_s": records / run_s,
        "cpu_s": statistics.median(j.cpu for j in plain),
        "peak_rss_mb": peak_rss_mb,
        "rss_bytes_per_event": peak_rss_mb * 2**20 / records,
        "setup_s": statistics.median(setup_s),
        "success_rate": 1.0 - failed / len(jobs),
    }
    layer = None
    if traced:
        per_job = [layers.aggregate(j.spans, setup_spans) for j in traced_jobs]
        layer = {name: statistics.median(m[name] for m in per_job) for name in per_job[0]}
        layer["trace.overhead_s"] = statistics.median(j.wall for j in traced_jobs) - run_s
        units = layers.units()
    else:
        units = END_TO_END
    metrics = {name: {"value": (layer or e2e)[name], "unit": unit} for name, unit in units.items()}

    info = provenance(args.seed)
    p, value = tail(walls)
    notes = [
        f"run_s: median {run_s:.4f} s, p{p:g} {value:.4f} s over {len(plain)} untraced jobs"
        + (" (under 20 jobs no percentile has ten beyond it, so the tail is the maximum)" if p == 100.0 else ""),
        f"setup_s: median of {len(setup_s)} set-ups; {records} input records",
    ] + baseline_notes(args.workload, records, run_s, layer)
    record = {
        "workload": args.workload, "seconds": args.seconds, "trace": args.trace, "provenance": info,
        "end_to_end": e2e, "per_layer": layer, "notes": notes, "errors": errors,
        "jobs": [{"wall_s": j.wall, "cpu_s": j.cpu, "peak_rss_mb": j.rss_mib, "ok": not j.errors} for j in jobs],
        "setup_s": setup_s,
    }
    with open(os.path.join(ROOT, ".perfbench", f"BENCH_{args.workload}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
    print(" ".join(f"{k}={v}" for k, v in info.items()))
    for line in notes + [f"error: {e}" for e in errors[:10]]:
        print(line)
    print(json.dumps({"correct": not errors, "attempted": len(jobs), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
