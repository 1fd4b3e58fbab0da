#!/usr/bin/env python3
"""End-to-end and per-layer benchmark for trialgame.

    python3 perfbench/run.py --workload {sweep,heatmap,point-queries}
                             --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
``src/`` and the CLI is run as ``python3 -m trialgame``. One client drives
one operation at a time.

Workloads (why each is here is in BENCHMARK.json):

* ``sweep``: ``loss-sweep`` CLI runs on the ``cardiovascular`` and
  ``fn-curves-062`` presets; a unit is one alpha row.
* ``heatmap``: ``heatmap`` CLI runs on seeded 10 x 10 sub-grids of the
  ``cardiovascular`` R x c0 grid, plus a seeded 7 x 7 grid around the
  mu_b = 0.838 instance where the critical-level search is known to be
  wrong; a unit is one cell.
* ``point-queries``: an in-process closed loop of single-applicant queries,
  90% ``best_response`` and 10% ``participation_threshold``, each with its
  own alpha, belief and instance; a unit is one query.

With ``--trace 0`` the CLI workloads run their jobs in turn until
``--seconds`` have passed and report the end-to-end metrics. With
``--trace 1`` a fixed amount of work runs once untraced and once traced,
and the per-layer metrics come from spans recorded around the package's
public functions (see ``spans.py``); counts repeat exactly for a seed.

End-to-end times are scaled to a nominal CPU speed, measured in the same
run by a fixed pure-Python loop (``Speed``); the summary line keeps the raw
figures.

Every output is checked against an oracle outside the timed region, and
repeated CLI runs of one job must write byte-identical CSV. The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it record the environment and
a readable summary.
"""

from __future__ import annotations

import argparse
import array
import dataclasses
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_PROBES = 6  # before and again after the timed work, so drift averages out
CLI_TIMEOUT_S = 120.0

# Reference speed. On the 2-CPU virtual machine this benchmark was tuned on,
# the host's load moves CPU speed by about 20% either way over minutes, for
# trialgame and any other Python code alike. Each run therefore also times a
# fixed pure-Python loop, interleaved with the workload, and reports its
# times scaled to the loop's nominal time. Over 30-second windows the loop
# and the point queries correlated at 0.998, and scaling cut the spread of
# their 30-second means from 23% to 4%. The summary line keeps the raw
# figures.
CAL_ITERATIONS = 10_000
CAL_NOMINAL_S = 1.6e-3
CAL_SLICES = 10  # per mark, between CLI runs and between set-up probes

SETUP_PRESET = "cardiovascular"
SWEEP_PRESETS = ("cardiovascular", "fn-curves-062")
HEATMAP_PRESET = "cardiovascular"
HEATMAP_SUBGRID = 10  # each cardiovascular job is a 10 x 10 sub-grid
HEATMAP_SUBGRIDS = 2  # per axis, so 4 jobs and 400 distinct cells
# The instance of the known wrong critical level (ROADMAP item 2).
DEFECT_INSTANCE = {"R": 271.7, "c0": 3.56e-3, "c": 0.432, "mu_b": 0.838, "n_min": 1, "n_max": 100_000}
DEFECT_GRID = 7
DEFECT_SPREAD = 0.1  # R and c0 drawn within +-10% of the instance
SWEEP_REFERENCE_ROWS = 2  # fine-panel checks per sweep job and run

QUERY_THRESHOLD_SHARE = 0.1
QUERY_ALPHA = (1e-4, 0.9)
QUERY_MU_B = (0.3, 0.9)
QUERY_N_MAX = (500, 100_000)
QUERY_BLOCK = 1024
QUERY_CHECK_STRIDE = 256  # every 256th query is checked by an oracle
TRACED_QUERIES = 20_000


class BenchmarkError(Exception):
    """A run that cannot produce its metrics."""


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _median(values: list[float], what: str) -> float:
    if not values:
        raise BenchmarkError(f"no successful {what}")
    return statistics.median(values)


@dataclasses.dataclass
class Outcome:
    """What one workload run produced."""

    attempted: int = 0
    failed: int = 0
    problems: list = dataclasses.field(default_factory=list)
    metrics: dict = dataclasses.field(default_factory=dict)
    summary: dict = dataclasses.field(default_factory=dict)

    def fail(self, count: int, problem: str) -> None:
        self.failed += count
        self.problems.append(problem)


class Speed:
    """Timings of a fixed pure-Python loop, taken between pieces of work."""

    def __init__(self) -> None:
        self.factors: list[float] = []

    def mark(self, slices: int = CAL_SLICES) -> float:
        """Time the loop now; return the factor from measured to nominal time."""
        times = []
        for _ in range(slices):
            t0 = time.perf_counter()
            acc = 0.0
            for i in range(1, CAL_ITERATIONS):
                x = i * 1e-4
                acc += math.erfc(x) * math.sqrt(x) + (x if i % 3 else -x)
            times.append(time.perf_counter() - t0)
        factor = CAL_NOMINAL_S / statistics.fmean(times)
        self.factors.append(factor)
        return factor

    def mean(self) -> float:
        return statistics.fmean(self.factors)


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    index = max(0, math.ceil(q * len(sorted_values)) - 1)
    return sorted_values[index]


# ---------------------------------------------------------------- processes


@dataclasses.dataclass
class Invocation:
    code: int
    wall_s: float
    maxrss_kb: int
    output: bytes
    stderr: str
    nominal_s: float = math.nan  # wall_s at nominal speed, once scaled


class Runner:
    """Runs child Python processes with the checkout's ``src`` importable."""

    def __init__(self, workdir: Path) -> None:
        self.workdir = workdir
        pythonpath = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + pythonpath if pythonpath else ""))

    def path(self, name: str) -> Path:
        return self.workdir / name

    def run(self, argv: list[str], output: Path | None = None) -> Invocation:
        """Run ``python3 ARGV``; time it and read its peak RSS and output."""
        if output is not None and output.exists():
            output.unlink()
        err_path = self.path("stderr.txt")
        with open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, *argv], env=self.env, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=err
            )
            watchdog = threading.Timer(CLI_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        data = output.read_bytes() if output is not None and output.exists() else b""
        return Invocation(proc.returncode, wall, usage.ru_maxrss, data, err_path.read_text(errors="replace")[-500:])

    def cli(self, args: list[str], output: Path) -> Invocation:
        return self.run(["-m", "trialgame", *args, "--output", str(output), "--quiet"], output)

    def traced_cli(self, args: list[str], output: Path) -> tuple[Invocation, dict | None]:
        trace_out = self.path("trace.json")
        inv = self.run(
            [str(HERE / "child.py"), "--trace", str(trace_out), "cli", *args, "--output", str(output), "--quiet"],
            output,
        )
        return inv, self._read_trace(trace_out)

    def setup_probe(self, trace: bool = False) -> tuple[Invocation, dict | None]:
        if not trace:
            return self.run([str(HERE / "child.py"), "setup", SETUP_PRESET]), None
        trace_out = self.path("trace.json")
        inv = self.run([str(HERE / "child.py"), "--trace", str(trace_out), "setup", SETUP_PRESET])
        return inv, self._read_trace(trace_out)

    @staticmethod
    def _read_trace(path: Path) -> dict | None:
        if not path.exists():
            return None
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        path.unlink()
        return data


def measure_setup(runner: Runner, out: Outcome, speed: Speed, warm_up: bool) -> list[Invocation]:
    """``SETUP_PROBES`` set-up probes, each scaled by the speed around it.

    The warm-up probe also compiles the checkout's bytecode, so no timed
    run pays for that.
    """
    probes = []
    before = speed.mark()
    for i in range(SETUP_PROBES + warm_up):
        inv, _ = runner.setup_probe()
        after = speed.mark()
        inv.nominal_s = inv.wall_s * 0.5 * (before + after)
        before = after
        out.attempted += 1
        if inv.code != 0:
            out.fail(1, f"set-up probe exited {inv.code}: {inv.stderr}")
        elif i >= warm_up:
            probes.append(inv)
    return probes


# ---------------------------------------------------------------- CLI workloads


@dataclasses.dataclass
class Job:
    """One CLI command the CLI workloads repeat, with its output oracle."""

    name: str
    args: list[str]
    units: int
    check: Callable[[bytes], tuple[list[str], int]]  # -> (problems, known defects)
    runs: list = dataclasses.field(default_factory=list)  # Invocation per run


def sweep_check(cfg, sample: list[int]):
    """Oracle for a ``loss-sweep`` CSV: row invariants, then the sampled rows."""
    import oracles

    def check(data: bytes):
        rows, problems = oracles.check_sweep_csv(data, cfg.alpha_grid, cfg.weights)
        if not problems:
            for i in sample:
                problems.extend(oracles.check_sweep_row_reference(rows[i], cfg))
        return problems, 0

    return check


def sweep_jobs(seed: int) -> list[Job]:
    from trialgame import load_config, preset_path

    rng = random.Random(seed)
    jobs = []
    for preset in SWEEP_PRESETS:
        cfg = load_config(preset_path(preset))
        units = len(cfg.alpha_grid)
        check = sweep_check(cfg, sorted(rng.sample(range(units), SWEEP_REFERENCE_ROWS)))
        jobs.append(Job(f"loss-sweep {preset}", ["loss-sweep", "--config", preset], units, check))
    rng.shuffle(jobs)
    return jobs


def _heatmap_job(runner: Runner, name: str, instance: dict, r_grid: list, c0_grid: list) -> Job:
    from trialgame import EconomicInstance

    import oracles

    path = runner.path(f"{name}.json")
    config = {"instance": instance, "grids": {"R": {"values": r_grid}, "c0": {"values": c0_grid}}}
    path.write_text(json.dumps(config), encoding="utf-8")
    base = EconomicInstance(**instance)

    def check(data: bytes):
        cells, problems = oracles.check_heatmap_csv(data, r_grid, c0_grid)
        known = 0
        for (r, c0), (alpha_hat, status) in cells.items():
            verdict = oracles.classify_cell(dataclasses.replace(base, R=r, c0=c0), alpha_hat, status)
            if verdict == "known_defect":
                known += 1
            elif verdict is not None:
                problems.append(f"cell ({r!r}, {c0!r}): {verdict}")
        return problems, known

    return Job(name, ["heatmap", "--config", str(path)], len(r_grid) * len(c0_grid), check)


def heatmap_jobs(runner: Runner, seed: int) -> list[Job]:
    from trialgame import load_config, preset_path

    rng = random.Random(seed)
    cfg = load_config(preset_path(HEATMAP_PRESET))
    instance = {f.name: getattr(cfg.instance, f.name) for f in dataclasses.fields(cfg.instance)}
    per_axis = HEATMAP_SUBGRID * HEATMAP_SUBGRIDS
    r_pick = rng.sample(cfg.r_grid, per_axis)
    c0_pick = rng.sample(cfg.c0_grid, per_axis)
    jobs = []
    for i in range(HEATMAP_SUBGRIDS):
        for j in range(HEATMAP_SUBGRIDS):
            r_grid = sorted(r_pick[i * HEATMAP_SUBGRID:(i + 1) * HEATMAP_SUBGRID])
            c0_grid = sorted(c0_pick[j * HEATMAP_SUBGRID:(j + 1) * HEATMAP_SUBGRID])
            jobs.append(_heatmap_job(runner, f"heatmap-{HEATMAP_PRESET}-{i}{j}", instance, r_grid, c0_grid))

    def around(value: float) -> list[float]:
        return sorted(value * (1.0 + rng.uniform(-DEFECT_SPREAD, DEFECT_SPREAD)) for _ in range(DEFECT_GRID))

    r_grid, c0_grid = around(DEFECT_INSTANCE["R"]), around(DEFECT_INSTANCE["c0"])
    jobs.append(_heatmap_job(runner, "heatmap-mu_b-0.838", DEFECT_INSTANCE, r_grid, c0_grid))
    rng.shuffle(jobs)
    return jobs


def check_jobs(jobs: list[Job], out: Outcome) -> int:
    """Oracle and rerun checks for every job; returns the known-defect count."""
    known = 0
    for job in jobs:
        for inv in job.runs:
            if inv.code != 0:
                out.fail(1, f"{job.name}: exited {inv.code}: {inv.stderr}")
        ran = [inv for inv in job.runs if inv.code == 0]
        if not ran:
            continue
        first = ran[0].output
        differing = sum(inv.output != first for inv in ran)
        if differing:
            out.fail(differing, f"{job.name}: {differing} of {len(ran)} runs wrote different CSV bytes")
        problems, job_known = job.check(first)
        known += job_known
        if problems:
            same = sum(inv.output == first for inv in ran)
            out.fail(same, f"{job.name}: {len(problems)} oracle problems, first: {problems[0]}")
    return known


def run_cli_workload(ctx, jobs: list[Job], rate_name: str) -> Outcome:
    out = Outcome()
    runner = ctx.runner
    if ctx.trace:
        return traced_cli_workload(ctx, jobs, out)
    speed = Speed()
    setup = measure_setup(runner, out, speed, warm_up=True)
    outputs = {job.name: runner.path(f"{job.name.replace(' ', '_')}.csv") for job in jobs}
    # Jobs run in turn until the time is up and each has run twice (for the
    # byte-identity check).
    t_end = time.perf_counter() + ctx.seconds
    turn = 0
    before = speed.mark()
    while time.perf_counter() < t_end or len(jobs[-1].runs) < 2:
        job = jobs[turn % len(jobs)]
        inv = runner.cli(job.args, outputs[job.name])
        after = speed.mark()
        inv.nominal_s = inv.wall_s * 0.5 * (before + after)
        before = after
        job.runs.append(inv)
        turn += 1
    setup += measure_setup(runner, out, speed, warm_up=False)
    out.attempted += turn
    known = check_jobs(jobs, out)

    def timing(attr: str) -> dict:
        setup_s = _median([getattr(probe, attr) for probe in setup], "set-up probes")
        return {**cli_timing(jobs, attr), "setup_s": setup_s}

    raw, nominal = timing("wall_s"), timing("nominal_s")
    out.metrics = {name: (value, TIME_UNITS[name]) for name, value in nominal.items()}
    out.metrics["peak_rss_mb"] = (max(inv.maxrss_kb for job in jobs for inv in job.runs) / 1024.0, "MB")
    out.summary = {
        rate_name: raw["units_per_s"],
        "raw": raw,
        "speed_scale": speed.mean(),
        "cli_runs": turn,
        "known_defect_cells": known,
    }
    return out


TIME_UNITS = {"units_per_s": "1/s", "unit_p50_us": "us", "unit_p99_us": "us", "setup_s": "s"}


def cli_timing(jobs: list[Job], attr: str) -> dict:
    """Throughput and per-unit latency percentiles of CLI runs.

    Every metric weighs each job once, by the mean of its runs, so that
    where the time runs out in a round does not change the mix of jobs. A
    unit's latency is its job's mean run time over the job's units, and the
    percentiles are taken over the units of one round: a single slow run
    would otherwise set the percentile.
    """
    mean_s = {job.name: statistics.fmean(getattr(inv, attr) for inv in job.runs) for job in jobs}
    per_unit = sorted(t for job in jobs for t in [mean_s[job.name] / job.units] * job.units)
    return {
        "units_per_s": sum(job.units for job in jobs) / sum(mean_s.values()),
        "unit_p50_us": percentile(per_unit, 0.5) * 1e6,
        "unit_p99_us": percentile(per_unit, 0.99) * 1e6,
    }


def traced_cli_workload(ctx, jobs: list[Job], out: Outcome) -> Outcome:
    """One untraced and one traced round, for per-layer metrics and overhead."""
    import spans

    runner = ctx.runner
    tracer = spans.Tracer()
    inv, dumped = runner.setup_probe(trace=True)
    out.attempted += 1
    if inv.code != 0 or dumped is None:
        out.fail(1, f"traced set-up probe exited {inv.code}: {inv.stderr}")
    else:
        tracer.merge(dumped)
    untraced = traced = 0.0
    for job in jobs:
        output = runner.path(f"{job.name.replace(' ', '_')}.csv")
        inv = runner.cli(job.args, output)
        untraced += inv.wall_s
        job.runs.append(inv)
        inv, dumped = runner.traced_cli(job.args, output)
        traced += inv.wall_s
        job.runs.append(inv)
        if dumped is not None:
            tracer.merge(dumped)
        elif inv.code == 0:
            out.fail(1, f"{job.name}: traced run wrote no spans")
    runs = sum(len(job.runs) for job in jobs)
    out.attempted += runs
    known = check_jobs(jobs, out)
    out.metrics = spans.layer_metrics(tracer, traced / untraced - 1.0)
    out.summary = {"cli_runs": runs, "known_defect_cells": known}
    return out


# ---------------------------------------------------------------- point queries


def query_stream(seed: int):
    """Endless seeded stream of ``(kind, alpha, mu0, instance)`` queries."""
    from trialgame import EconomicInstance

    rng = random.Random(seed)
    log_lo, log_hi = math.log(QUERY_ALPHA[0]), math.log(QUERY_ALPHA[1])
    while True:
        R = 10.0 ** rng.uniform(0.0, 4.0)
        inst = EconomicInstance(
            R=R,
            c0=R * 10.0 ** rng.uniform(-4.0, -1.0),
            c=R * 10.0 ** rng.uniform(-7.0, -3.0),
            mu_b=rng.uniform(*QUERY_MU_B),
            n_min=1,
            n_max=rng.choice(QUERY_N_MAX),
        )
        kind = "threshold" if rng.random() < QUERY_THRESHOLD_SHARE else "best_response"
        yield kind, math.exp(rng.uniform(log_lo, log_hi)), rng.uniform(0.01, 0.99), inst


def answer(tg, query):
    kind, alpha, mu0, inst = query
    if kind == "threshold":
        return tg.participation_threshold(alpha, inst)
    return tg.best_response(alpha, mu0, inst)


def check_queries(checked: list, out: Outcome) -> None:
    import oracles

    for (kind, alpha, mu0, inst), result in checked:
        if kind == "threshold":
            problem = oracles.check_threshold(alpha, inst, result)
        else:
            problem = oracles.check_best_response(alpha, mu0, inst, result)
        if problem is not None:
            out.fail(1, f"{kind} alpha={alpha!r} mu0={mu0!r} {inst}: {problem}")


def run_point_queries(ctx) -> Outcome:
    import trialgame as tg
    from trialgame import TrialGameError

    out = Outcome()
    stream = query_stream(ctx.seed)
    if ctx.trace:
        return traced_point_queries(ctx, stream, out)
    speed = Speed()
    setup = measure_setup(ctx.runner, out, speed, warm_up=True)
    for _ in range(QUERY_BLOCK):  # warm up the interpreter and the code paths
        answer(tg, next(stream))
    latencies = array.array("f")
    loop_speed = Speed()
    checked = []
    clock = time.perf_counter
    t_end = clock() + ctx.seconds
    while clock() < t_end:
        loop_speed.mark(1)
        block = [next(stream) for _ in range(QUERY_BLOCK)]
        base = len(latencies)
        for i, query in enumerate(block):
            t0 = clock()
            try:
                result = answer(tg, query)
            except TrialGameError as exc:
                result = exc
            latencies.append(clock() - t0)
            if isinstance(result, TrialGameError):
                out.fail(1, f"{query}: raised {result!r}")
            elif (base + i) % QUERY_CHECK_STRIDE == 0:
                checked.append((query, result))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out.attempted += len(latencies)
    setup += measure_setup(ctx.runner, out, speed, warm_up=False)
    check_queries(checked, out)
    ordered = sorted(latencies)
    raw = {
        "units_per_s": len(ordered) / math.fsum(ordered),
        "unit_p50_us": percentile(ordered, 0.5) * 1e6,
        "unit_p99_us": percentile(ordered, 0.99) * 1e6,
        "setup_s": _median([p.wall_s for p in setup], "set-up probes"),
    }
    # Queries are scaled by the mean speed over the loop, marked between blocks.
    scale = loop_speed.mean()
    nominal = {
        "units_per_s": raw["units_per_s"] / scale,
        "unit_p50_us": raw["unit_p50_us"] * scale,
        "unit_p99_us": raw["unit_p99_us"] * scale,
        "setup_s": _median([p.nominal_s for p in setup], "set-up probes"),
    }
    out.metrics = {name: (value, TIME_UNITS[name]) for name, value in nominal.items()}
    out.metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
    out.summary = {
        "queries_per_s": raw["units_per_s"],
        "raw": raw,
        "speed_scale": scale,
        "queries": len(ordered),
        "checked": len(checked),
        "p99_tail_samples": len(ordered) - math.ceil(0.99 * len(ordered)),
    }
    return out


def traced_point_queries(ctx, stream, out: Outcome) -> Outcome:
    """A fixed query list run untraced, checked, then run again traced."""
    import trialgame as tg

    import spans

    tracer = spans.Tracer()
    inv, dumped = ctx.runner.setup_probe(trace=True)
    out.attempted += 1
    if inv.code != 0 or dumped is None:
        out.fail(1, f"traced set-up probe exited {inv.code}: {inv.stderr}")
    else:
        tracer.merge(dumped)
    queries = [next(stream) for _ in range(TRACED_QUERIES)]
    t0 = time.perf_counter()
    plain = [answer(tg, q) for q in queries]
    untraced = time.perf_counter() - t0
    check_queries([(q, r) for i, (q, r) in enumerate(zip(queries, plain)) if i % QUERY_CHECK_STRIDE == 0], out)
    # Start the traced pass from the cold alpha cache the untraced pass saw.
    cache = getattr(tg.agent, "_upper_quantile", None)
    if hasattr(cache, "cache_clear"):
        cache.cache_clear()
    spans.install(tracer)
    t0 = time.perf_counter()
    traced_results = [answer(tg, q) for q in queries]
    traced = time.perf_counter() - t0
    out.attempted += 2 * len(queries)
    differing = sum(a != b for a, b in zip(plain, traced_results))
    if differing:
        out.fail(differing, f"{differing} traced answers differ from untraced ones")
    out.metrics = spans.layer_metrics(tracer, traced / untraced - 1.0)
    out.summary = {"queries": len(queries)}
    return out


# ---------------------------------------------------------------- entry point


def environment() -> dict:
    head = ROOT / ".git" / "HEAD"
    sha = None
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            sha = ref_file.read_text().strip() if ref_file.is_file() else None
        else:
            sha = ref
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
    }


@dataclasses.dataclass
class Context:
    seed: int
    seconds: float
    trace: bool
    runner: Runner


WORKLOADS = {
    "sweep": lambda ctx: run_cli_workload(ctx, sweep_jobs(ctx.seed), "sweep_rows_per_s"),
    "heatmap": lambda ctx: run_cli_workload(ctx, heatmap_jobs(ctx.runner, ctx.seed), "heatmap_cells_per_s"),
    "point-queries": run_point_queries,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        return _fail("--seconds must be positive")
    if not (SRC / "trialgame" / "__init__.py").is_file():
        return _fail(f"no trialgame sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import trialgame

    if Path(trialgame.__file__).resolve().parent != SRC / "trialgame":
        return _fail(f"imported trialgame from {trialgame.__file__}, not from {SRC}")

    env = environment()
    env["loadavg_start"] = os.getloadavg()
    # One CPU for this process and its children, so that the speed loop
    # times the CPU the CLI runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    run_root = ROOT / ".perfbench_run"
    run_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=run_root))
    try:
        ctx = Context(args.seed, args.seconds, bool(args.trace), Runner(workdir))
        out = WORKLOADS[args.workload](ctx)
    except BenchmarkError as exc:
        return _fail(str(exc))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            run_root.rmdir()
        except OSError:
            pass  # another run still uses it
    env["loadavg_end"] = os.getloadavg()

    for problem in out.problems[:20]:
        print(f"perfbench: FAILED {problem}", file=sys.stderr)
    summary = {"workload": args.workload, "seed": args.seed, "trace": args.trace, **out.summary}
    summary["error_rate"] = out.failed / out.attempted if out.attempted else math.nan
    print("env " + json.dumps(env))
    print("summary " + json.dumps(summary))
    for name, (value, unit) in out.metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    result = {
        "correct": out.failed == 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in out.metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
