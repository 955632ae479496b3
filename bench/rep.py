"""One repetition of one workload, in a fresh interpreter.

``run.py`` starts this script once per repetition and reads the JSON it
writes to ``--result``.  The repetition imports the program, parses its
inputs, runs the workload, then (outside the timed region) checks the
outputs and digests them.  With ``--trace`` it binds span wrappers onto the
program's public functions first and derives the per-layer metrics.  With
``--setup-only`` it stops at the end of setup, which gives ``run.py`` extra
set-up samples at little cost.

Setup ends at the first call into the engine (``engine.run_monte_carlo`` for
the CLI workloads, ``engine.run_trajectory`` for the generic ones); for
``verify_full``, which does not start in the engine, it ends at the call of
``cli.main``.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import resource
import sys
import time
from pathlib import Path

from scenarios import BUNDLED_SCENARIOS, GENERIC_SCENARIOS, SIGMA

STICKY_TRACE_RUNS = 500
BUNDLED_RUNS = 10_000
CONSERVATION_TOL = 1e-9
ERROR_KINDS = ("SamplingError", "LPError", "DomainDegeneracyError", "SpecificationError")


class SetupDone(Exception):
    """Raised at the end of setup in ``--setup-only`` repetitions."""


class Marker:
    """Remembers when setup ended; stops the repetition there if asked to."""

    def __init__(self, t0: float, stop: bool):
        self.t0 = t0
        self.stop = stop
        self.setup_s: float | None = None
        self.wall_start: float | None = None

    def hit(self) -> None:
        if self.setup_s is not None:
            return
        self.setup_s = time.monotonic() - self.t0
        self.wall_start = time.perf_counter()
        if self.stop:
            raise SetupDone


def bind(stack: contextlib.ExitStack, module, attr: str, make) -> None:
    """Replace ``module.attr`` by ``make(original)`` until ``stack`` closes."""
    original = getattr(module, attr)
    setattr(module, attr, make(original))
    stack.callback(setattr, module, attr, original)


def before(fn, callback):
    def wrapper(*args, **kwargs):
        callback()
        return fn(*args, **kwargs)

    return wrapper


def timed(fn, name: str, sink: list):
    def wrapper(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            sink.append((name, time.perf_counter() - t0))

    return wrapper


def quiet_main(cli, argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def file_digest(h, paths) -> int:
    size = 0
    for path in paths:
        data = path.read_bytes()
        size += len(data)
        h.update(path.name.encode())
        h.update(data)
    return size


def read_rows(path: Path) -> list[dict]:
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


class Rep:
    """What one repetition measured and found."""

    def __init__(self):
        self.runs = 0
        self.steps = 0
        self.scenario_steps: dict[str, int] = {}
        self.attempted = 0
        self.failures: dict[str, int] = {}
        self.problems: list[str] = []
        self.timings: list[tuple[str, float]] = []
        self.bytes_written = 0
        self.digest = hashlib.sha256()

    def fail(self, kind: str, count: int = 1) -> None:
        self.failures[kind] = self.failures.get(kind, 0) + count

    def problem(self, text: str, count: int = 1) -> None:
        """An output check failed; ``count`` operations fail with it."""
        self.problems.append(text)
        self.fail("output_check", count)


# --- workloads: each returns a checker to run after the timed region ------


SIMULATE_JOBS = [(name, name, BUNDLED_RUNS, []) for name in BUNDLED_SCENARIOS] + [
    ("example4_sticky_trace", "example4_sticky", STICKY_TRACE_RUNS, ["--trace"]),
]


def simulate(ctx, rep: Rep, stack):
    """CLI ``simulate`` per job; setup ends at ``engine.run_monte_carlo``.

    The three bundled scenarios at 10k runs take the 2x2 scalar fast path and
    never call ``prefs`` or ``trade``; the sticky job with ``--trace`` takes
    the recording rerun in ``cli._write_trajectories`` and writes 7 MB of CSV.
    """
    cli, engine = ctx["cli"], ctx["engine"]
    bind(stack, engine, "run_monte_carlo", lambda fn: before(fn, ctx["marker"].hit))
    results = {}
    for label, name, runs, extra in SIMULATE_JOBS:
        out = ctx["out"] / label
        argv = ["simulate", "--scenario", name, "--seed", str(ctx["seed"]), "--out", str(out), "--runs", str(runs)]
        t0 = time.perf_counter()
        rc, _, err = quiet_main(cli, argv + extra)
        rep.timings.append((f"simulate {label}", time.perf_counter() - t0))
        results[label] = (rc, err.strip(), out)

    def check():
        docs = read_outcomes(rep, results)
        if all(name in docs for name in BUNDLED_SCENARIOS):
            check_laws(rep, {name: docs[name]["summary"] for name in BUNDLED_SCENARIOS})
        label = SIMULATE_JOBS[-1][0]
        if label in docs:
            check_trajectories(rep, docs[label]["rows"], results[label][2] / "trajectories.csv")

    return check


def read_outcomes(rep: Rep, results) -> dict[str, dict]:
    """Per job: summary and outcome rows; a failed command fails all its runs."""
    docs = {}
    for label, _, runs, _ in SIMULATE_JOBS:
        rc, err, out = results[label]
        rep.attempted += runs
        if rc != 0:
            rep.problems.append(f"{label}: exit {rc}: {err}")
            rep.fail("other", runs)
            continue
        files = sorted(out.iterdir())
        rep.bytes_written += file_digest(rep.digest, files)
        rows = read_rows(out / "outcomes.csv")
        rep.runs += len(rows)
        rep.steps += sum(int(r["steps"]) for r in rows)
        docs[label] = {"summary": json.loads((out / "summary.json").read_text()), "rows": rows}
    return docs


def check_laws(rep: Rep, summaries: dict[str, dict]) -> None:
    """The acceptance laws of the bundled scenarios."""
    sticky = summaries["example4_sticky"]
    uniform = summaries["example5_uniform"]
    maxspeed = summaries["example5_maxspeed"]
    width = lambda s: s["bands"]["5-95"][1] - s["bands"]["5-95"][0]  # noqa: E731
    if not all(abs(v - 1.5) < 0.05 for v in sticky["household_means"][0]):
        rep.problem(f"sticky h1 means {sticky['household_means'][0]} not within 0.05 of 1.5", count=BUNDLED_RUNS)
    if not width(sticky) < width(uniform):
        rep.problem("sticky 5-95 band not narrower than the uniform band", count=2 * BUNDLED_RUNS)
    if not abs(maxspeed["mean"] - 1.5) < 0.1:
        rep.problem(f"maxspeed mean {maxspeed['mean']} not within 0.1 of 1.5", count=BUNDLED_RUNS)
    if maxspeed["mode_bin"] == maxspeed["mean_bin"]:
        rep.problem("maxspeed mode_bin equals mean_bin", count=BUNDLED_RUNS)


def check_trajectories(rep: Rep, outcomes: list[dict], path: Path) -> None:
    """Last trajectory row = outcome row, step counts match, aggregate conserved."""
    cols = [c for c in outcomes[0] if c.startswith("h")]
    traj: dict[str, list[dict]] = {}
    for row in read_rows(path):
        traj.setdefault(row["run"], []).append(row)
    aggregate = None
    for out_row in outcomes:
        rows = traj.get(out_row["run"], [])
        bad = []
        if not rows or [rows[-1][c] for c in cols] != [out_row[c] for c in cols]:
            bad.append("last trajectory row differs from outcomes row")
        if len(rows) - 1 != int(out_row["steps"]):
            bad.append(f"{len(rows) - 1} trajectory steps, outcomes say {out_row['steps']}")
        for row in rows:
            totals = [float(row[f"h1_{g}"]) + float(row[f"h2_{g}"]) for g in ("g1", "g2")]
            aggregate = aggregate or totals
            if any(abs(t - a) > CONSERVATION_TOL * a for t, a in zip(totals, aggregate)):
                bad.append(f"aggregate {totals} != {aggregate} at step {row['step']}")
                break
        if bad:
            rep.problem(f"run {out_row['run']}: " + "; ".join(bad))


def ces_utility(weights, c) -> float:
    """CES utility level, computed here rather than by the program under test."""
    return sum(w * x**SIGMA for w, x in zip(weights, c)) ** (1.0 / SIGMA)


def in_box(box, q, slack: float = 1e-9) -> bool:
    """p = (q, 1) satisfies min_j p_j m_ij <= p_i <= max_j p_j M_ij for every i."""
    p = list(q) + [1.0]
    lo, hi = box.lower_rates, box.upper_rates
    n = len(p)
    for i in range(n):
        others = [j for j in range(n) if j != i]
        low = min(p[j] * lo[i, j] for j in others)
        high = max(p[j] * hi[i, j] for j in others)
        if not low * (1 - slack) <= p[i] <= high * (1 + slack):
            return False
    return True


def generic(ctx, rep: Rep, stack):
    """Drive every run of the generated scenarios one at a time."""
    cli, engine, trade = ctx["cli"], ctx["engine"], ctx["trade"]
    configs = {}
    for path in sorted(ctx["out"].glob("*.json")):
        doc = json.loads(path.read_text())
        configs[path.stem] = (doc, cli.load_scenario(doc)[0])
    steps: list = []

    def record(fn):
        def wrapper(e, y, *args, **kwargs):
            out = fn(e, y, *args, **kwargs)
            if out is not None:
                steps.append((e, y, out))
            return out

        return wrapper

    bind(stack, engine, "sntp_step", record)
    ctx["marker"].hit()
    runs = []
    for name, (doc, cfg) in configs.items():
        t0 = time.perf_counter()
        for i in range(cfg.runs):
            first = len(steps)
            try:
                outcome = engine.run_trajectory(cfg, i).terminal.value
            except Exception as exc:  # a failed run counts once; the batch goes on
                outcome = f"{type(exc).__name__}: {exc}"
            runs.append((name, i, doc, first, len(steps), outcome))
        rep.timings.append((name, time.perf_counter() - t0))

    def check():
        for name, i, doc, first, last, outcome in runs:
            rep.attempted += 1
            rep.runs += 1
            rep.steps += last - first
            rep.scenario_steps[name] = rep.scenario_steps.get(name, 0) + last - first
            rep.digest.update(f"{name}/{i}/{outcome}".encode())
            weights = [h["utility"]["weights"] for h in doc["economy"]["households"]]
            bad = []
            for k, (e, y, (y_next, q, _)) in enumerate(steps[first:last]):
                rep.digest.update(y_next.bundles.tobytes() + q.tobytes())
                before_agg, after_agg = y.aggregate, y_next.aggregate
                if any(abs(a - b) > CONSERVATION_TOL * abs(b) for a, b in zip(after_agg, before_agg)):
                    bad.append(f"step {k}: aggregate not conserved")
                for h, w in enumerate(weights):
                    u0, u1 = ces_utility(w, y.bundle(h)), ces_utility(w, y_next.bundle(h))
                    if u1 < u0 * (1 - 1e-12):
                        bad.append(f"step {k}: household {h + 1} utility fell")
                if not in_box(trade.msr_extremes(e, y), q):
                    bad.append(f"step {k}: price {q.tolist()} outside the msr_extremes box")
            if bad:
                rep.problems.append(f"{name} run {i}: " + "; ".join(bad[:3]))
            kind = outcome.split(":")[0] if ":" in outcome else None
            if kind is not None:
                rep.fail(kind if kind in ERROR_KINDS else "other")
            elif bad:
                rep.fail("output_check")

    return check


def verify_full(ctx, rep: Rep, stack):
    cli, engine, verify = ctx["cli"], ctx["engine"], ctx["verify"]
    trajectories = []

    def count(fn):
        def wrapper(*args, **kwargs):
            t = fn(*args, **kwargs)
            trajectories.append(t.steps)
            return t

        return wrapper

    bind(stack, engine, "run_trajectory", count)
    for suite in ("identity_suite", "jacobian_suite", "attraction_suite", "welfare_suite"):
        bind(stack, verify, suite, lambda fn, s=suite: timed(fn, s, rep.timings))
    ctx["marker"].hit()
    rc, out, err = quiet_main(cli, ["verify", "--seed", str(ctx["seed"])])

    def check():
        lines = out.splitlines()
        rep.digest.update(out.encode())
        rep.runs = len(trajectories)
        rep.steps = sum(trajectories)
        rep.attempted = 8
        passed = sum(1 for line in lines if line.split()[1:2] == ["PASS"])
        if rc != 0 or len(lines) != 8 or passed != 8:
            rep.problem(f"verify exit {rc}, {passed}/8 suites PASS: {err.strip()}", count=8 - passed)

    return check


WORKLOADS = {
    "simulate": simulate,
    "generic": generic,
    "verify_full": verify_full,
}


# --- per-layer metrics from the spans -------------------------------------


def per_layer(tracer, rep: Rep, import_s: float) -> dict[str, float]:
    import numpy as np

    from tracer import layer_stats, self_times

    spans = tracer.spans()
    stats = layer_stats(tracer.names, spans)
    steps = max(rep.steps, 1)

    def us_per_call(name):
        s = stats[name]
        return s["s"] / s["calls"] * 1e6 if s["calls"] else 0.0

    m = {
        "prefs.as_bundle.self_s": stats["prefs.as_bundle"]["self_s"],
        "prefs.normalized_demand.calls_per_step": stats["prefs.normalized_demand"]["calls"] / steps,
        "trade.all_trade_directions.calls_per_step": stats["trade.all_trade_directions"]["calls"] / steps,
        "trade.has_trade.calls_per_step": stats["trade.has_trade"]["calls"] / steps,
        "trade.box_contains.self_s": stats["trade.box_contains"]["self_s"],
        "engine.summarize.self_s": stats["engine.summarize"]["self_s"],
        "engine.run_trajectory.self_s": stats["engine.run_trajectory"]["self_s"],
        "engine.steps": rep.steps,
        "verify.weighted_clearing_rates.self_s": stats["verify.weighted_clearing_rates"]["self_s"],
        "cli.bytes_written": rep.bytes_written,
        "cli.load_scenario.s": stats["cli.load_scenario"]["s"],
        "edgeworth.import_s": import_s,
    }
    for name in (
        "prefs.normalized_demand", "prefs.inverse_normalized_demand", "prefs.gradient",
        "geometry.jacobian_phi", "geometry.jacobian_psi", "trade.has_trade",
        "trade.sample_speed", "trade.msr_extremes", "engine.run_rng",
        "engine.draw_price", "engine.sntp_step",
    ):
        m[f"{name}.us_per_call"] = us_per_call(name)
    for suite in ("identity_suite", "jacobian_suite", "attraction_suite", "welfare_suite"):
        m[f"verify.{suite}.s"] = stats[f"verify.{suite}"]["s"]
    for kind in ERROR_KINDS + ("other", "output_check"):
        m[f"engine.runs_failed.{kind}"] = rep.failures.get(kind, 0)

    sample = stats["trade.sample_speed"]
    accepted = sample["calls"] - sample["raised"]
    m["trade.speed_contains.calls_per_sample"] = (
        stats["trade.speed_contains"]["calls"] / accepted if accepted else 0.0
    )
    ids = {name: i for i, name in enumerate(tracer.names)}
    name_id, parent = spans["name_id"], spans["parent"]
    own = self_times(parent, spans["start"], spans["end"])
    draw = stats["engine.draw_price"]
    in_draw = np.count_nonzero(
        (name_id == ids["trade.has_trade"]) & (parent >= 0) & (name_id[np.maximum(parent, 0)] == ids["engine.draw_price"])
    )
    m["engine.draw_price.accept_ratio"] = (draw["calls"] - draw["raised"]) / in_draw if in_draw else 0.0
    mc = own[name_id == ids["engine.run_monte_carlo"]]
    for k, scenario in enumerate(BUNDLED_SCENARIOS):
        m[f"engine.run_monte_carlo.self_s.{scenario}"] = float(mc[k]) if k < mc.size else 0.0
    cli_ids = [i for name, i in ids.items() if name.startswith("cli.")]
    main_id = ids["cli.main"]
    under_main = 0.0
    for idx in np.nonzero(np.isin(name_id, cli_ids))[0]:
        j = idx
        while j >= 0 and name_id[j] != main_id:
            j = parent[j]
        if j >= 0:
            under_main += float(own[idx])
    m["cli.main.self_s"] = under_main
    # Per-scenario cost on the generic path, so an L = 2-only change can be
    # told from one that moves the 4x3 scenario too.
    secs = dict(rep.timings)
    for name in GENERIC_SCENARIOS:
        n = rep.scenario_steps.get(name, 0)
        m[f"engine.us_per_step.{name}"] = secs[name] / n * 1e6 if n else 0.0
    return m


def accounted_s(tracer, t_from: float, t_to: float) -> float:
    """Time covered by root spans inside the timed window."""
    spans = tracer.spans()
    root = spans["parent"] < 0
    lo = spans["start"][root].clip(min=t_from)
    hi = spans["end"][root].clip(max=t_to)
    return float((hi - lo).clip(min=0.0).sum())


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--result", type=Path, required=True)
    ap.add_argument("--t0", type=float, required=True, help="monotonic clock at spawn")
    ap.add_argument("--trace", type=Path, default=None, help="write spans here")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    # Nothing above imports numpy or scipy, so import_s includes them.
    t_import = time.perf_counter()
    from edgeworth import cli, engine, geometry, prefs, trade, verify

    import_s = time.perf_counter() - t_import
    modules = {"prefs": prefs, "geometry": geometry, "trade": trade, "engine": engine, "verify": verify, "cli": cli}
    marker = Marker(args.t0, args.setup_only)
    ctx = {"seed": args.seed, "out": args.out, "marker": marker, **modules}
    rep = Rep()
    tracer = None
    with contextlib.ExitStack() as stack:
        if args.trace is not None:
            from tracer import Tracer

            tracer = Tracer(modules).install()
            stack.callback(tracer.restore)
        try:
            check = WORKLOADS[args.workload](ctx, rep, stack)
        except SetupDone:
            check = None
        t_end = time.perf_counter()
    result = {"setup_s": marker.setup_s, "import_s": import_s}
    if check is not None:
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["wall_s"] = t_end - marker.wall_start
        check()
        result.update(
            runs=rep.runs,
            steps=rep.steps,
            scenario_steps=rep.scenario_steps,
            attempted=rep.attempted,
            failed=min(sum(rep.failures.values()), rep.attempted),
            failures=rep.failures,
            problems=rep.problems[:20],
            correct=not rep.problems,
            digest=rep.digest.hexdigest(),
            bytes_written=rep.bytes_written,
            timings=rep.timings,
        )
        if tracer is not None:
            result["layers"] = per_layer(tracer, rep, import_s)
            result["accounted_s"] = accounted_s(tracer, marker.wall_start, t_end)
            tracer.save(args.trace)
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
