"""Acceptance gate: every shipped claim, at its stated tolerance and budget.

Run with ``pytest tests/test_acceptance.py -s`` to see one line per
criterion.  Each test measures wall time against the criterion's runtime
budget on top of its numeric assertions.
"""

from __future__ import annotations

import csv
import json
import math
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import kstest

from edgeworth import engine, prefs, trade, verify
from edgeworth.cli import main
from edgeworth.engine import PriorSpec, SimConfig, UniformArc
from edgeworth.prefs import UtilitySpec
from edgeworth.trade import Allocation, Economy, SpeedPrior

from oracles import clearing_price, log_uniform

pytestmark = pytest.mark.dispatch


def report(num: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def read_csv(path: Path) -> list[dict]:
    with path.open() as fh:
        return list(csv.DictReader(fh))


def test_criterion_1_example3_distribution(tmp_path, capsys):
    start = time.perf_counter()
    rc = main(["example3", "--runs", "10000", "--seed", "1", "--out", str(tmp_path)])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    with capsys.disabled():
        ok = rc == 0
        rows = {int(r["j"]): r for r in read_csv(tmp_path / "example3.csv")}
        for j, mass in ((1, 0.5), (2, 0.25), (3, 0.125)):
            ok &= abs(float(rows[j]["empirical_mass"]) - mass) <= 0.02
        ok &= abs(float(rows[1]["value"]) - 1.5) < 1e-15
        ok &= abs(float(rows[2]["value"]) - float(Fraction(35, 24))) < 1e-15
        ok &= "1.500000000000" in out and "1.458333333333" in out
        ok &= elapsed < 5.0
        report(1, ok, f"example3 masses/values at 10k runs, {elapsed:.2f}s < 5s")


def _simulate_summary(tmp_path: Path, name: str) -> dict:
    out = tmp_path / name
    rc = main(["simulate", "--scenario", name, "--out", str(out)])
    assert rc == 0
    return json.loads((out / "summary.json").read_text())


def test_criterion_2_price_stickiness(tmp_path, capsys):
    start = time.perf_counter()
    sticky = _simulate_summary(tmp_path, "example4_sticky")
    uniform = _simulate_summary(tmp_path, "example5_uniform")
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        h1 = np.array(sticky["household_means"][0])
        ok = bool(np.all(np.abs(h1 - 1.5) < 0.05))
        width = lambda s: s["bands"]["5-95"][1] - s["bands"]["5-95"][0]
        ok &= width(sticky) < width(uniform)
        ok &= elapsed < 60.0
        report(
            2,
            ok,
            f"sticky mean h1={h1.round(4).tolist()}, band {width(sticky):.4f} < "
            f"{width(uniform):.4f}, {elapsed:.2f}s < 60s",
        )


def test_criterion_3_max_speed_mode_shift(tmp_path, capsys):
    start = time.perf_counter()
    summary = _simulate_summary(tmp_path, "example5_maxspeed")
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        ok = abs(summary["mean"] - 1.5) < 0.1
        ok &= summary["mode_bin"] != summary["mean_bin"]
        ok &= elapsed < 60.0
        report(
            3,
            ok,
            f"maxspeed mean={summary['mean']:.4f}, mode_bin={summary['mode_bin']} != "
            f"mean_bin={summary['mean_bin']}, {elapsed:.2f}s < 60s",
        )


def test_criterion_4_welfare_theorem_surrogate(capsys):
    start = time.perf_counter()
    reportobj = verify.welfare_suite(verify._bundled_configs()["cobb_douglas"], seed=0)
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        ok = reportobj.passed and elapsed < 30.0
        report(
            4,
            ok,
            f"1000 max-speed trajectories reach gap<1e-3 within 200 steps "
            f"(non-converged share / 1%: {reportobj.worst_violation:.4f}), {elapsed:.2f}s < 30s",
        )


def test_criterion_5_identity_suite(capsys):
    start = time.perf_counter()
    reports = [
        verify.identity_suite(UtilitySpec.cobb_douglas_log([0.5, 0.5]), 1000, 0),
        verify.identity_suite(UtilitySpec.ces([0.5, 0.5], 0.5), 1000, 0),
    ]
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        worst = max(r.worst_violation for r in reports)
        ok = all(r.passed for r in reports) and worst <= 1e-8 and elapsed < 2.0
        report(5, ok, f"identities worst residual {worst:.2e} <= 1e-8, {elapsed:.2f}s < 2s")


def test_criterion_6_jacobian_suite(capsys):
    start = time.perf_counter()
    reports = [
        verify.jacobian_suite(UtilitySpec.cobb_douglas_log([0.5, 0.5]), 1000, 0),
        verify.jacobian_suite(UtilitySpec.ces([0.5, 0.5], 0.5), 1000, 0),
    ]
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        ok = all(r.passed for r in reports) and elapsed < 5.0
        report(
            6,
            ok,
            f"chart Jacobians within 1e-5 of FD, tangency within 1e-6, {elapsed:.2f}s < 5s",
        )


def test_criterion_7_attraction_suite(capsys):
    start = time.perf_counter()
    cd = UtilitySpec.cobb_douglas_log([0.5, 0.5])
    ces_a = UtilitySpec.ces([0.2, 0.5, 0.3], 0.5)
    ces_b = UtilitySpec.ces([0.4, 0.3, 0.3], 0.5)
    reports = [
        verify.attraction_suite(Economy.of([cd, cd]), 1000, 0),
        verify.attraction_suite(Economy.of([ces_a, ces_b]), 1000, 0),
    ]
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        ok = all(r.failures == 0 for r in reports) and elapsed < 30.0
        report(
            7,
            ok,
            f"monotone gaps/extremes/nested boxes over 2x1000 paths, {elapsed:.2f}s < 30s",
        )


def test_criterion_8_sharp_attractive_predicates(capsys):
    start = time.perf_counter()
    rng = engine.run_rng(0, 0)
    violations = 0
    for spec in (UtilitySpec.cobb_douglas_log([0.5, 0.5]), UtilitySpec.ces([0.5, 0.5], 0.5)):
        for _ in range(1000):
            y = log_uniform(rng, 2)
            p = log_uniform(rng, 2)
            if not prefs.check_sharp(spec, y, p):
                violations += 1
            for i, j in ((0, 1), (1, 0)):
                if not prefs.check_attractive(spec, y, p, i, j):
                    violations += 1
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        ok = violations == 0 and elapsed < 5.0
        report(8, ok, f"0 predicate violations over 1000 draws per family, {elapsed:.2f}s < 5s")


def test_criterion_9_box_containment_and_sampler_law(capsys):
    start = time.perf_counter()
    ces = UtilitySpec.ces([0.5, 0.5], 0.5)
    ces73 = UtilitySpec.ces([0.7, 0.3], 0.5)
    e2 = Economy.of([ces, ces73])
    shock = Allocation(np.array([[2.0, 1.0], [1.0, 2.0]]))
    box = trade.msr_extremes(e2, shock)
    ok = True
    for q in np.linspace(0.05, 4.0, 400):
        if trade.has_trade(e2, shock, [float(q), 1.0]):
            ok &= trade.box_contains(box, [float(q)])

    rng3 = np.random.default_rng(5)
    specs3 = [UtilitySpec.ces(w, 0.5) for w in ([0.2, 0.3, 0.5], [0.5, 0.3, 0.2], [0.3, 0.4, 0.3], [0.4, 0.2, 0.4])]
    e3 = Economy.of(specs3)
    y3 = Allocation(log_uniform(rng3, (4, 3), 0.5, 2.0))
    box3 = trade.msr_extremes(e3, y3)
    q_eq = clearing_price(e3, y3)
    hits = 0
    for _ in range(300):
        q = q_eq * np.exp(rng3.uniform(-0.7, 0.7, 2))
        if trade.has_trade(e3, y3, np.append(q, 1.0)):
            hits += 1
            ok &= trade.box_contains(box3, q)
    ok &= hits > 0

    cd = UtilitySpec.cobb_douglas_log([0.5, 0.5])
    e_cd = Economy.of([cd, cd])
    rng = engine.run_rng(0, 0)
    prior = PriorSpec(UniformArc(), SpeedPrior.UNIFORM_CUBE)
    draws = np.array(
        [float(engine.draw_price(e_cd, shock, prior, rng)[0]) for _ in range(10_000)]
    )
    a, b = math.atan(0.5), math.atan(2.0)
    stat = kstest(draws, lambda q: (np.arctan(q) - a) / (b - a)).statistic
    ok &= stat < 0.02
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        ok = bool(ok) and elapsed < 10.0
        report(9, ok, f"trade=>box on both sweeps, KS={stat:.4f} < 0.02, {elapsed:.2f}s < 10s")


def test_criterion_10_determinism(tmp_path, capsys):
    args = [
        "simulate",
        "--scenario",
        "example4_sticky",
        "--runs",
        "300",
        "--seed",
        "7",
        "--trace",
    ]
    rc1 = main(args + ["--out", str(tmp_path / "a")])
    rc2 = main(args + ["--out", str(tmp_path / "b")])
    capsys.readouterr()
    with capsys.disabled():
        ok = rc1 == rc2 == 0
        for name in ("outcomes.csv", "summary.json", "trajectories.csv"):
            ok &= (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        cd = UtilitySpec.cobb_douglas_log([0.5, 0.5])
        cfg = SimConfig(
            Economy.of([cd, cd]),
            Allocation(np.array([[2.0, 1.0], [1.0, 2.0]])),
            PriorSpec(UniformArc(), SpeedPrior.UNIFORM_CUBE),
            master_seed=7,
            runs=500,
        )
        seq = engine.run_monte_carlo(cfg, workers=1)
        par = engine.run_monte_carlo(cfg, workers=2)
        ok &= bool(np.array_equal(seq.samples, par.samples))
        ok &= bool(np.array_equal(seq.coords, par.coords))
        report(10, ok, "byte-identical reruns and parallel == sequential aggregation")
