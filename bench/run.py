#!/usr/bin/env python3
"""matchcover benchmark: fixed CLI workloads, end to end and layer by layer.

    python3 bench/run.py --workload {search,certify,replay,ramsey} \
        --seed N --seconds S --trace {0,1}
    python3 bench/run.py --workload all --seed N --seconds S

One process per workload drives `matchcover.cli.dispatch(argv)` in-process,
one job at a time in a closed loop with one client and no threads.  A pass
runs the workload's fixed job mix once.  The run sets up (imports the
package from `src/`, writes the seeded inputs, builds the replay corpus)
several times and reports the median as `setup_s`, then runs whole passes
until `--seconds` have gone by.  The first run of each job is also checked
on an independent route; later runs must reproduce its exit code and
output bytes.  With `--trace 1` the time is split: untraced passes first,
then traced passes whose spans give the per-layer metrics and, by
difference, the tracing overhead.  Job and set-up times are wall times
rescaled to a nominal machine speed by a probe timed around each of them,
because the shared host's speed drifts by tens of percent (README.md).

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  A fuller record (machine,
revision, per-job medians, tail percentile, span file) goes to
`bench/results/`.  See bench/README.md for the workloads and metrics.
"""

import sys

sys.dont_write_bytecode = True  # leave no bytecode in src/ or tests/

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import time
import traceback
from collections import defaultdict
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
PACKAGE = "matchcover"
SOURCE_DATE_EPOCH = "1700000000"
# typical speed_probe() time on the 2-vCPU Xeon VM that defined the benchmark
PROBE_NOMINAL_S = 0.0013
HASH_SEED = "0"
SETUP_REPEATS = 3
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
MIN_BEYOND_TAIL = 10

sys.path.insert(0, str(BENCH_DIR))
from tracing import LAYERS, SPANS, Tracer  # noqa: E402
from workloads import WORKLOADS, JobRun  # noqa: E402

# name -> unit; the order is the print order
END_TO_END = {
    "jobs_per_s": "1/s",
    "job_p50_s": "s",
    "job_tail_s": "s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}


def per_layer_units() -> dict:
    """Per-layer metric names and units, per pass of the job mix."""
    units = {}
    timed = list(SPANS) + ["serialize.encode", "serialize.decode"]
    for name in timed:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    for name in ("groups.validate", "groups.multiply", "ramsey.embedding_build"):
        units[f"{name}.calls"] = "count"
    for name in (
        "bipartite.covering_graph.edges",
        "bipartite.max_matching.left_vertices",
        "bipartite.max_matching.matched",
        "bipartite.edges_per_match.edges",
        "bipartite.edges_per_match.matched",
        "folner.folner_search.evaluations",
        "folner.build_certificate.pairs",
        "ramsey.embeddings.found",
        "ramsey.ramsey_condition_check.colorings",
    ):
        units[name] = "count"
    units["serialize.encode.bytes"] = "bytes"
    units["bipartite.edges_per_match"] = "edges/pair"
    for layer in LAYERS:
        units[f"share.{layer}"] = "%"
    units["trace.overhead_jobs_per_s"] = "1/s"
    units["trace.overhead_pct"] = "%"
    units["trace.spans"] = "count"
    return units


class Runner:
    """Runs one CLI job in-process and captures what it prints."""

    def __init__(self, cli) -> None:
        self.cli = cli

    def run(self, argv) -> JobRun:
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                # looked up per call, so an installed span wrapper is used
                rc = self.cli.dispatch(list(argv))
        except Exception:  # an uncaught crash is a failed job, not a stop
            rc = -1
            err.write(traceback.format_exc())
        seconds = time.perf_counter() - start
        return JobRun(rc, out.getvalue(), err.getvalue(), seconds)


def _digest(job, run: JobRun) -> str:
    h = hashlib.sha256()
    h.update(f"{run.rc}\0{run.stdout}\0{run.stderr}\0".encode())
    for path in job.outputs:
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def _purge_package() -> None:
    for name in [m for m in sys.modules if m == PACKAGE or m.startswith(PACKAGE + ".")]:
        del sys.modules[name]


def setup(workload: str, seed: int, work: Path) -> tuple:
    """Import, input generation and corpus build, repeated; median time."""
    times, wall = [], []
    for _ in range(SETUP_REPEATS):
        _purge_package()
        if work.exists():
            shutil.rmtree(work)
        work.mkdir(parents=True)
        before = speed_probe()
        start = time.perf_counter()
        cli = importlib.import_module(f"{PACKAGE}.cli")
        runner = Runner(cli)
        jobs = WORKLOADS[workload](seed, work, runner)
        wall.append(time.perf_counter() - start)
        times.append(at_nominal_speed(wall[-1], before, speed_probe()))
    return runner, jobs, statistics.median(times), wall


class Reference:
    """What each job must reproduce.  The first run of a job gets the full
    check (exit code plus its independent check); later runs must repeat
    the exit code and the output bytes of that checked run."""

    def __init__(self) -> None:
        self.digests: dict = {}
        self.problems: dict = {}

    def _check(self, job, run: JobRun) -> None:
        found = []
        if run.rc != job.expect:
            found.append(f"exit {run.rc}, expected {job.expect}: {run.stderr.strip()[-300:]}")
        elif job.check is not None:
            try:
                found.extend(job.check(run))
            except Exception as exc:  # a malformed result fails its job
                found.append(f"check raised {exc!r}")
        try:
            self.digests[job.name] = _digest(job, run)
        except OSError as exc:
            self.digests[job.name] = None
            found.append(f"output missing: {exc}")
        if found:
            self.problems[job.name] = found

    def passed(self, job, run: JobRun) -> bool:
        if job.name not in self.digests:
            self._check(job, run)
        if job.name in self.problems or run.rc != job.expect:
            return False
        try:
            return _digest(job, run) == self.digests[job.name]
        except OSError:
            return False


def speed_probe() -> float:
    """Wall time of a fixed slice of interpreter work (dict and set updates)."""
    start = time.perf_counter()
    table = {}
    for i in range(4000):
        key = (i * 7919) & 1023
        table[key] = table.get(key, 0) + (i ^ (i >> 3))
    seen = set()
    for i in range(4000):
        seen.add((i * 104729) % 4093)
    return time.perf_counter() - start


def at_nominal_speed(seconds: float, probe_before: float, probe_after: float) -> float:
    """Rescale a wall time to the machine speed that PROBE_NOMINAL_S stands for."""
    return seconds * 2 * PROBE_NOMINAL_S / (probe_before + probe_after)


def run_passes(runner, jobs, reference, seconds, tracer=None) -> dict:
    """Whole passes over the job mix until `seconds` have gone by.  Each job
    is bracketed by speed probes; `samples` holds its time at nominal speed
    and `wall` its raw wall time."""
    samples, wall = defaultdict(list), defaultdict(list)
    probes = []
    attempted = failed = passes = 0
    start = time.perf_counter()
    while passes == 0 or time.perf_counter() - start < seconds:
        # untimed: no cyclic garbage carries from one pass into the next, which
        # otherwise makes the peak RSS flip between two levels from run to run
        gc.collect()
        for job in jobs:
            if tracer is not None:
                tracer.job += 1
            before = speed_probe()
            run = runner.run(job.argv)
            after = speed_probe()
            probes += (before, after)
            wall[job.name].append(run.seconds)
            samples[job.name].append(at_nominal_speed(run.seconds, before, after))
            attempted += 1
            failed += not reference.passed(job, run)
        passes += 1
    return {"samples": dict(samples), "wall": dict(wall), "attempted": attempted,
            "failed": failed, "passes": passes, "probe_median_s": statistics.median(probes)}


def jobs_per_s(samples: dict) -> float:
    """Jobs of the fixed mix per second, from each job's median time."""
    return len(samples) / sum(statistics.median(v) for v in samples.values())


def tail(values: list) -> tuple:
    """Highest percentile of TAIL_LADDER with at least ten samples beyond it
    (nearest rank).  Returns (percentile, value)."""
    ordered = sorted(values)
    n = len(ordered)
    best = None
    for p in TAIL_LADDER:
        rank = max(1, math.ceil(p * n / 100))
        if n - rank >= MIN_BEYOND_TAIL:
            best = (p, ordered[rank - 1])
    if best is None:
        best = (100.0, ordered[-1])
    return best


def end_to_end(timed: dict, setup_s: float) -> tuple:
    all_times = [t for v in timed["samples"].values() for t in v]
    pct, tail_value = tail(all_times)
    metrics = {
        "jobs_per_s": jobs_per_s(timed["samples"]),
        "job_p50_s": statistics.median(all_times),
        "job_tail_s": tail_value,
        "setup_s": setup_s,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    extra = {
        "job_tail_percentile": pct,
        "job_samples": len(all_times),
        "fail_frac": timed["failed"] / timed["attempted"],
    }
    return metrics, extra


def per_layer(tracer: Tracer, passes: int, untraced_rate: float, traced_rate: float) -> dict:
    units = per_layer_units()
    own = tracer.self_times()
    total = sum(own.values())
    values = {name: 0.0 for name in units}
    for name, count in tracer.counts.items():
        values[name] = count / passes
    for name, seconds in own.items():
        values[f"{name}.self_s"] = seconds / passes
    matched = tracer.counts["bipartite.edges_per_match.matched"]
    edges = tracer.counts["bipartite.edges_per_match.edges"]
    values["bipartite.edges_per_match"] = edges / matched if matched else 0.0
    for layer in LAYERS:
        layer_self = sum(s for name, s in own.items() if name.split(".")[0] == layer)
        values[f"share.{layer}"] = 100.0 * layer_self / total if total else 0.0
    values["trace.overhead_jobs_per_s"] = traced_rate - untraced_rate
    values["trace.overhead_pct"] = 100.0 * (untraced_rate - traced_rate) / untraced_rate
    values["trace.spans"] = len(tracer.spans) / passes
    unknown = set(values) - set(units)
    if unknown:
        raise RuntimeError(f"metrics without a declared unit: {sorted(unknown)}")
    return values


def machine() -> dict:
    info = {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": platform.processor() or None,
        "git_revision": None,
        "src_sha256": None,
    }
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    info["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                timeout=30, check=True,
            )
            info["git_revision"] = rev.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    h = hashlib.sha256()
    for path in sorted((SRC / PACKAGE).rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    info["src_sha256"] = h.hexdigest()
    return info


def run_workload(args) -> dict:
    work = BENCH_DIR / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        runner, jobs, setup_s, setup_wall = setup(args.workload, args.seed, work)
        tracer = Tracer(PACKAGE)
        if tracer.installed():
            raise RuntimeError("span wrappers installed before the untraced run")
        reference = Reference()
        untraced_budget = args.seconds / 2 if args.trace else args.seconds
        timed = run_passes(runner, jobs, reference, untraced_budget)
        if tracer.installed():
            raise RuntimeError("span wrappers installed during the untraced run")
        metrics, extra = end_to_end(timed, setup_s)
        record = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "machine": machine(),
            "jobs": [job.name for job in jobs],
            "passes": timed["passes"],
            "job_median_s": {k: statistics.median(v) for k, v in timed["samples"].items()},
            "job_samples_s": timed["samples"],
            "job_wall_samples_s": timed["wall"],
            "setup_wall_s": setup_wall,
            "wall_jobs_per_s": jobs_per_s(timed["wall"]),
            "probe_median_s": timed["probe_median_s"],
            "problems": reference.problems,
            "attempted": timed["attempted"],
            "failed": timed["failed"],
            **extra,
        }
        if args.trace:
            tracer.install()
            try:
                traced = run_passes(runner, jobs, reference, args.seconds / 2, tracer)
            finally:
                tracer.uninstall()
            untraced_rate = metrics["jobs_per_s"]
            traced_rate = jobs_per_s(traced["samples"])
            record["traced_passes"] = traced["passes"]
            record["attempted"] += traced["attempted"]
            record["failed"] += traced["failed"]
            metrics = per_layer(tracer, traced["passes"], untraced_rate, traced_rate)
            record["spans_file"] = str(save_spans(tracer, args).relative_to(ROOT))
        record["metrics"] = metrics
        return record
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only when no other run is using it


def _results_path(args, suffix: str) -> Path:
    out = BENCH_DIR / "results"
    out.mkdir(exist_ok=True)
    return out / f"{args.workload}-seed{args.seed}-trace{args.trace}{suffix}"


def save_spans(tracer: Tracer, args) -> Path:
    path = _results_path(args, "-spans.tsv.gz")
    tracer.write_spans(path)
    return path


def report(record: dict, units: dict) -> None:
    m = record["machine"]
    print(
        f"# {record['workload']} seed={record['seed']} seconds={record['seconds']} "
        f"trace={record['trace']} passes={record['passes']} "
        f"rev={m['git_revision'] or 'n/a'} src={m['src_sha256'][:12]} "
        f"nproc={m['nproc']} cpu={m['cpu_model']!r} python={m['python']}"
    )
    for name, problems in record["problems"].items():
        for problem in problems:
            print(f"# CHECK FAILED {name}: {problem}")
    if not record["trace"]:
        print(f"# job_tail_s is p{record['job_tail_percentile']:g} of "
              f"{record['job_samples']} job samples")
        print(f"# raw wall-clock jobs_per_s {record['wall_jobs_per_s']:.6f}; median speed "
              f"probe {record['probe_median_s'] * 1000:.4f} ms (nominal "
              f"{PROBE_NOMINAL_S * 1000:g} ms)")
    print(f"# fail_frac {record['failed'] / record['attempted']:.6f} "
          f"({record['failed']} of {record['attempted']} jobs)")
    for name, value in record["metrics"].items():
        print(f"{name:48s} {value:16.6f} {units[name]}")


def run_all(args) -> int:
    """Each workload in a fresh process, then one table of every metric."""
    names = list(WORKLOADS)
    rows = {}
    status = 0
    for name in names:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900,
        )
        lines = proc.stdout.strip().splitlines()
        sys.stdout.write("\n".join(line for line in lines[:-1] if line.startswith("#")) + "\n")
        if proc.returncode != 0 or not lines:
            print(f"# {name}: exit {proc.returncode}\n{proc.stderr}")
            status = 1
            continue
        result = json.loads(lines[-1])
        rows[name] = result
        if not result["correct"]:
            status = 1
    metric_names = list(next(iter(rows.values()))["metrics"]) if rows else []
    print(f"{'metric':40s} {'unit':>10s} " + " ".join(f"{n:>14s}" for n in rows))
    for metric in metric_names:
        unit = next(iter(rows.values()))["metrics"][metric]["unit"]
        cells = " ".join(f"{r['metrics'][metric]['value']:14.6f}" for r in rows.values())
        print(f"{metric:40s} {unit:>10s} {cells}")
    print(f"{'fail_frac':40s} {'1':>10s} " + " ".join(
        f"{r['failed'] / r['attempted']:14.6f}" for r in rows.values()))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / PACKAGE / "cli.py").is_file():
        print(f"error: no {PACKAGE} sources under {SRC}", file=sys.stderr)
        return 2
    os.environ["SOURCE_DATE_EPOCH"] = SOURCE_DATE_EPOCH
    os.environ["NO_COLOR"] = "1"
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    record = run_workload(args)
    units = per_layer_units() if args.trace else END_TO_END
    with open(_results_path(args, ".json"), "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
    report(record, units)
    correct = record["failed"] == 0 and not record["problems"]
    result = {
        "correct": correct,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in record["metrics"].items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # a fixed hash seed fixes set and dict order, so one seed gives the
        # same work and the same allocation pattern in every run
        os.environ["PYTHONHASHSEED"] = HASH_SEED
        os.execv(sys.executable, [sys.executable, *sys.argv])
    sys.exit(main())
