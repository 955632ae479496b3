"""Benchmark for the edgeworth simulator: three workloads, outside-in layer tracing.

Usage (from the repository root)::

    python3 bench/run.py --workload simulate --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1

Each repetition runs in a fresh interpreter (``bench/rep.py``) against the
package source in ``src/``.  With ``--trace 0`` a run makes a fixed number of
repetitions with the same seed, ``round(--seconds / nominal)`` with the
workload's nominal repetition time (``NOMINAL_REP_S``), at least one.  The
end-to-end metrics are medians over them, and set-up is sampled at least
``SETUP_SAMPLES`` times.  With ``--trace 1`` one plain and one traced
repetition run with the same seed; the per-layer metrics come from the
traced one and ``trace.overhead_frac`` from the pair.

The metric names and units are read from ``BENCHMARK.json``.  The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; everything else is for people.  Results, with
the environment they were measured in, go to ``.bench_work/results/`` and
the spans of traced repetitions to ``.bench_work/traces/``.
"""

from __future__ import annotations

import argparse
import hashlib
import signal
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from importlib import metadata
from pathlib import Path

from scenarios import GENERATORS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
# Nominal wall time of one repetition on a 2-core VM.  A run makes
# round(--seconds / nominal) repetitions, at least one: a fixed count, so that
# a seed always does the same work and attempts the same operations, however
# fast the machine happens to be.
NOMINAL_REP_S = {"simulate": 11.0, "generic": 10.0, "verify_full": 38.0}
WORKLOADS = tuple(NOMINAL_REP_S)
SETUP_SAMPLES = 3
DEADLINE_S = 170.0

# Acceptance budgets (tests/test_acceptance.py) beside the bodies timed here:
# criterion -> (what it times, budget in seconds, timings summed).
BUDGETS = {
    "c2": ("simulate sticky + uniform, 10k runs each", 60.0, ("simulate example4_sticky", "simulate example5_uniform")),
    "c3": ("simulate maxspeed, 10k runs", 60.0, ("simulate example5_maxspeed",)),
    "c4": ("welfare_suite[cobb_douglas]", 30.0, ("welfare_suite#0",)),
    "c5": ("identity_suite x2", 2.0, ("identity_suite",)),
    "c6": ("jacobian_suite x2", 5.0, ("jacobian_suite",)),
    "c7": ("attraction_suite x2", 30.0, ("attraction_suite",)),
}

# Acceptance budgets printed beside the per-layer rows that time the same body.
LAYER_BUDGETS = {
    "engine.run_monte_carlo.self_s.example4_sticky": "c2: 60 s for sticky + uniform simulate",
    "engine.run_monte_carlo.self_s.example5_uniform": "c2: 60 s for sticky + uniform simulate",
    "engine.run_monte_carlo.self_s.example5_maxspeed": "c3: 60 s for maxspeed simulate",
    "engine.draw_price.us_per_call": "c9: 10 s for 10k 2x2 draws plus sweeps, < 1000 us/call",
    "verify.identity_suite.s": "c5: 2 s",
    "verify.jacobian_suite.s": "c6: 5 s",
    "verify.attraction_suite.s": "c7: 30 s",
    "verify.welfare_suite.s": "c4: 30 s for welfare[cobb_douglas] alone",
}

# Workloads whose report prints these figures.  Elsewhere a figure does not
# mean what its name says: there are no trajectories of the workload's own, or
# rare stalled runs dominate it.  The JSON line carries every gated metric.
APPLIES = {
    "wall_s": {"simulate", "verify_full"},
    "runs_per_s": {"simulate"},
    "us_per_step": {"simulate", "generic"},
}


class BenchError(Exception):
    """The benchmark could not measure: missing program, crashed repetition."""


def environment() -> dict:
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    git = None
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        git = out.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "src").rglob("*.json")):
        src.update(str(path.relative_to(ROOT)).encode() + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "git_sha": git,
        "src_sha256": src.hexdigest(),
        "loadavg": os.getloadavg(),
    }


class Runner:
    """Spawns repetitions of one workload and gathers what they report."""

    def __init__(self, workload: str, seed: int, deadline: float):
        self.workload = workload
        self.seed = seed
        self.deadline = deadline
        self.dir = WORK / f"{workload}-s{seed}-p{os.getpid()}"
        self.count = 0

    def rep(self, trace: bool = False, setup_only: bool = False) -> dict:
        self.count += 1
        out = self.dir / f"rep{self.count}"
        out.mkdir(parents=True)
        if self.workload in GENERATORS:
            for name, doc in GENERATORS[self.workload](self.seed).items():
                (out / f"{name}.json").write_text(json.dumps(doc))
        result = self.dir / f"rep{self.count}.json"
        cmd = [
            sys.executable, str(BENCH / "rep.py"),
            "--workload", self.workload, "--seed", str(self.seed),
            "--out", str(out), "--result", str(result),
        ]
        if trace:
            traces = WORK / "traces"
            traces.mkdir(parents=True, exist_ok=True)
            cmd += ["--trace", str(traces / f"{self.workload}.npz")]
        if setup_only:
            cmd.append("--setup-only")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
        )
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError(f"{self.workload}: out of time before repetition {self.count}")
        t0 = time.monotonic()
        try:
            proc = subprocess.run(
                cmd + ["--t0", repr(t0)], env=env, cwd=ROOT,
                capture_output=True, text=True, timeout=timeout,
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{self.workload}: repetition {self.count} timed out") from exc
        elapsed = time.monotonic() - t0
        if proc.returncode != 0 or not result.exists():
            raise BenchError(
                f"{self.workload}: repetition {self.count} exited {proc.returncode}:\n{proc.stderr[-4000:]}"
            )
        data = json.loads(result.read_text())
        data["elapsed_s"] = elapsed
        shutil.rmtree(out)
        return data


def median_wall(reps: list[dict]) -> float:
    """Wall time of one repetition, job by job: the sum over its timed jobs,
    and the untimed rest, of each one's median over the repetitions.

    Every repetition of a run does the same jobs in the same order, so a slow
    spell of a few seconds on a shared host inflates one job of one
    repetition and drops out of that job's median.
    """
    parts = [[secs for _, secs in r["timings"]] + [r["wall_s"] - sum(s for _, s in r["timings"])] for r in reps]
    return sum(statistics.median(column) for column in zip(*parts))


def measure(workload: str, seed: int, seconds: float, trace: bool, deadline: float) -> dict:
    runner = Runner(workload, seed, deadline)
    try:
        if trace:
            reps = [runner.rep(), runner.rep(trace=True)]
        else:
            count = max(1, round(seconds / NOMINAL_REP_S[workload]))
            reps = [runner.rep() for _ in range(count)]
        setups = [r["setup_s"] for r in reps]
        while not trace and len(setups) < SETUP_SAMPLES:
            setups.append(runner.rep(setup_only=True)["setup_s"])
    finally:
        shutil.rmtree(runner.dir, ignore_errors=True)

    plain = reps[:1] if trace else reps
    wall = median_wall(plain)
    digests = {r["digest"] for r in reps}
    problems = [p for r in reps for p in r["problems"]]
    if len(digests) > 1:
        problems.append("repetitions with the same seed produced different outputs"
                        + (" (traced vs plain)" if trace else ""))
    summary = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "reps": len(reps),
        "setup_samples": len(setups),
        "correct": not problems,
        "problems": problems,
        "attempted": sum(r["attempted"] for r in reps),
        "failed": sum(r["failed"] for r in reps),
        "e2e": {
            "setup_s": statistics.median(setups),
            "wall_s": wall,
            "runs_per_s": plain[0]["runs"] / wall,
            "us_per_step": wall / max(plain[0]["steps"], 1) * 1e6,
            "peak_rss_mb": statistics.median([r["peak_rss_mb"] for r in plain]),
        },
        "steps": plain[0]["steps"],
        "runs": plain[0]["runs"],
        "failures": dict(sum((Counter(r["failures"]) for r in reps), Counter())),
        "timings": plain[0]["timings"],
        "reps_detail": reps,
    }
    summary["e2e"]["failed_frac"] = summary["failed"] / max(summary["attempted"], 1)
    if trace:
        traced = reps[1]
        layers = dict(traced["layers"])
        layers["trace.overhead_frac"] = traced["wall_s"] / reps[0]["wall_s"] - 1.0
        layers["trace.accounted_frac"] = traced["accounted_s"] / traced["wall_s"]
        summary["layers"] = layers
    return summary


def budget_rows(summary: dict) -> list[str]:
    """Acceptance budgets beside the measured bodies they gate."""
    timings: dict[str, float] = {}
    seen: dict[str, int] = {}
    for name, secs in summary["timings"]:
        timings[name] = timings.get(name, 0.0) + secs
        key = f"{name}#{seen.get(name, 0)}"
        seen[name] = seen.get(name, 0) + 1
        timings[key] = secs
    rows = []
    for crit, (what, budget, parts) in BUDGETS.items():
        if all(p in timings for p in parts):
            secs = sum(timings[p] for p in parts)
            rows.append(f"  {crit}: {what}: {secs:.3f} s of {budget:g} s budget ({secs / budget:.0%})")
    return rows


def report(summary: dict, spec: dict, env: dict) -> dict:
    """Print the human-readable block; return the contract's metrics."""
    w = summary["workload"]
    print(f"== {w}  seed={summary['seed']}  trace={int(summary['trace'])}  reps={summary['reps']}  "
          f"setup samples={summary['setup_samples']}")
    print("  env: " + "  ".join(f"{k}={v}" for k, v in env.items() if k != "src_sha256"))
    e2e = summary["e2e"]
    units = {"setup_s": "s", "wall_s": "s", "runs_per_s": "1/s", "us_per_step": "us",
             "peak_rss_mb": "MB", "failed_frac": "ratio"}
    for name, unit in units.items():
        if w in APPLIES.get(name, {w}):
            print(f"  {name:<12s} {e2e[name]:>14.6g} {unit}")
    print(f"  failed {summary['failed']}/{summary['attempted']} {summary['failures']}  "
          f"steps/rep={summary['steps']}  runs/rep={summary['runs']}")
    for line in budget_rows(summary):
        print(line)
    for p in summary["problems"][:10]:
        print(f"  CHECK FAILED: {p}")
    if summary["trace"]:
        layers = summary["layers"]
        for m in spec["per_layer"]:
            note = LAYER_BUDGETS.get(m["name"], "")
            print(f"  {m['name']:<48s} {layers.get(m['name'], float('nan')):>14.6g} {m['unit']:<12s} {note}")
        print(f"  spans account for {layers['trace.accounted_frac']:.3f} of the traced wall time, "
              f"which is {layers['trace.overhead_frac']:+.3f} off the plain one")
        wanted = spec["per_layer"]
        values = layers
    else:
        wanted = spec["end_to_end"]
        values = e2e
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise BenchError(f"{w}: no value for {missing}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    started = time.monotonic()
    # Turn SIGTERM into SystemExit so that a running repetition is killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (ROOT / "src" / "edgeworth" / "__init__.py").is_file():
        print(f"no program source at {ROOT / 'src' / 'edgeworth'}; nothing to measure", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    env = environment()
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for w in workloads:
            deadline = (time.monotonic() if len(workloads) > 1 else started) + DEADLINE_S
            summary = measure(w, args.seed, args.seconds, bool(args.trace), deadline)
            summary["env"] = env
            results[w] = (summary, report(summary, spec, env))
            out = WORK / "results"
            out.mkdir(parents=True, exist_ok=True)
            path = out / f"{w}-seed{args.seed}-trace{args.trace}.json"
            path.write_text(json.dumps(summary, indent=1, default=str) + "\n")
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        metrics = results[workloads[0]][1]
    else:
        metrics = {f"{w}/{k}": v for w, (_, m) in results.items() for k, v in m.items()}
    summaries = [s for s, _ in results.values()]
    print(json.dumps({
        "correct": all(s["correct"] for s in summaries),
        "attempted": sum(s["attempted"] for s in summaries),
        "failed": sum(s["failed"] for s in summaries),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
