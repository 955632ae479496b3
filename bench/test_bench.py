"""Tests of the benchmark's own code: span wrappers, self times, generators.

Run with ``python3 -m pytest bench``.
"""

from __future__ import annotations

import itertools
import textwrap
import types

import numpy as np
import pytest

import scenarios
from tracer import Tracer, layer_stats, self_times


def fake_layer() -> types.ModuleType:
    mod = types.ModuleType("fake_layer")
    exec(
        textwrap.dedent(
            """
            def leaf(x):
                return x + 1

            def middle(x):
                return leaf(x) + leaf(x)

            def top(x):
                return middle(x) * 2 + leaf(x)

            def boom(x):
                leaf(x)
                raise ValueError(x)

            def _private(x):
                return x
            """
        ),
        mod.__dict__,
    )
    return mod


def ticking_clock():
    ticks = itertools.count()
    return lambda: float(next(ticks))


def test_wrappers_bind_aliases_and_restore_every_attribute():
    mod = fake_layer()
    alias = types.ModuleType("alias_layer")
    alias.leaf = mod.leaf
    before = {m: dict(vars(m)) for m in (mod, alias)}
    with Tracer({"fake": mod, "alias": alias}) as tracer:
        assert mod.top is not before[mod]["top"]
        assert alias.leaf is mod.leaf is not before[mod]["leaf"]
        assert mod._private is before[mod]["_private"]
        alias.leaf(1)
    assert sorted(tracer.names) == ["fake.boom", "fake.leaf", "fake.middle", "fake.top"]
    assert len(tracer.starts) == 1
    for m, saved in before.items():
        assert vars(m).keys() == saved.keys()
        assert all(vars(m)[k] is v for k, v in saved.items())


def test_program_modules_are_restored():
    from edgeworth import cli, engine, geometry, prefs, trade, verify

    modules = {"prefs": prefs, "geometry": geometry, "trade": trade, "engine": engine, "verify": verify, "cli": cli}
    before = {name: dict(vars(m)) for name, m in modules.items()}
    tracer = Tracer(modules).install()
    assert trade.as_price is prefs.as_price is not before["prefs"]["as_price"]
    tracer.restore()
    for name, m in modules.items():
        assert all(vars(m)[k] is v for k, v in before[name].items())


def test_self_times_add_up_to_the_root_duration():
    mod = fake_layer()
    with Tracer({"fake": mod}, clock=ticking_clock()) as tracer:
        assert mod.top(1) == 10
        with pytest.raises(ValueError):
            mod.boom(1)
    spans = tracer.spans()
    roots = np.nonzero(spans["parent"] < 0)[0]
    assert [tracer.names[spans["name_id"][i]] for i in roots] == ["fake.top", "fake.boom"]
    own = self_times(spans["parent"], spans["start"], spans["end"])
    assert own.min() > 0
    # spans are stored in call order, so a root's subtree runs up to the next root
    for root, stop in zip(roots, list(roots[1:]) + [own.size]):
        duration = spans["end"][root] - spans["start"][root]
        assert own[root:stop].sum() == pytest.approx(duration)
    stats = layer_stats(tracer.names, spans)
    assert stats["fake.leaf"]["calls"] == 4
    assert stats["fake.boom"] == {**stats["fake.boom"], "calls": 1, "raised": 1}
    assert stats["fake.top"]["raised"] == 0
    total = sum(s["self_s"] for s in stats.values())
    assert total == pytest.approx(sum(spans["end"][r] - spans["start"][r] for r in roots))


def test_self_times_on_hand_built_spans():
    parent = np.array([-1, 0, 1, 0])
    start = np.array([0.0, 1.0, 2.0, 5.0])
    end = np.array([10.0, 4.0, 3.0, 6.0])
    assert self_times(parent, start, end).tolist() == [6.0, 2.0, 1.0, 1.0]


@pytest.mark.parametrize("name", sorted(scenarios.GENERATORS))
def test_generators_are_deterministic_given_the_seed(name):
    from edgeworth.cli import load_scenario

    make = scenarios.GENERATORS[name]
    assert make(7) == make(7)
    assert make(7) != make(8)
    for doc in make(7).values():
        assert doc["engine"]["master_seed"] == 7
        assert doc["engine"]["max_steps"] == 500 and doc["engine"]["pareto_tol"] == 1e-8
        cfg, _ = load_scenario(doc)
        assert cfg.runs == doc["engine"]["runs"]


def test_tabulated_grids_have_the_specified_atoms():
    docs = scenarios.generic(1)
    assert tuple(docs) == scenarios.GENERIC_SCENARIOS
    grid = docs["2x2_tabulated"]["prior"]["q_prior"]["grid"]
    assert len(grid) == 200 and grid[0] == pytest.approx(0.25) and grid[-1] == pytest.approx(4.0)
    l3 = docs["4x3_tabulated"]
    assert len(l3["prior"]["q_prior"]["grid"]) == 14 * 14
    assert len(l3["economy"]["households"]) == 4
