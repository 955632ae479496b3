from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from edgeworth import cli, engine
from edgeworth.cli import main
from edgeworth.engine import ArctanNormal, PriorSpec, SimConfig, Tabulated
from edgeworth.errors import DomainDegeneracyError
from edgeworth.geometry import ManifoldKind
from edgeworth.prefs import UtilitySpec
from edgeworth.trade import Allocation, Economy, SpeedPrior

import oracles


def read_csv(path: Path) -> list[dict]:
    with path.open() as fh:
        return list(csv.DictReader(fh))


BASE_SCENARIO = {
    "economy": {
        "households": [
            {
                "label": "h1",
                "utility": {"family": "cobb_douglas_log", "weights": [0.5, 0.5]},
                "endowment": [2.0, 1.0],
            },
            {
                "label": "h2",
                "utility": {"family": "cobb_douglas_log", "weights": [0.5, 0.5]},
                "endowment": [1.0, 2.0],
            },
        ]
    },
    "prior": {
        "q_prior": {"kind": "uniform_arc"},
        "s_prior": {"kind": "uniform_cube"},
    },
    "engine": {"runs": 50, "max_steps": 300, "pareto_tol": 1e-8, "master_seed": 7},
}


def write_scenario(tmp_path: Path, doc: dict) -> Path:
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    return path


class TestSimulate:
    def test_bundled_scenario_outputs(self, tmp_path):
        rc = main(
            ["simulate", "--scenario", "example4_sticky", "--runs", "60", "--out", str(tmp_path)]
        )
        assert rc == 0
        rows = read_csv(tmp_path / "outcomes.csv")
        assert len(rows) == 60
        assert set(rows[0]) == {"run", "q_1", "h1_g1", "h1_g2", "h2_g1", "h2_g2", "steps", "terminal"}
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["schema_version"] == 1
        assert summary["runs"] == 60
        assert abs(summary["mean"] - 1.5) < 0.1
        lo, hi = summary["bands"]["5-95"]
        li, hii = summary["bands"]["25-75"]
        assert lo <= li <= hii <= hi

    def test_custom_scenario_file_and_overrides(self, tmp_path):
        path = write_scenario(tmp_path, BASE_SCENARIO)
        out = tmp_path / "out"
        rc = main(
            [
                "simulate",
                "--scenario",
                str(path),
                "--runs",
                "10",
                "--seed",
                "3",
                "--max-steps",
                "50",
                "--pareto-tol",
                "1e-6",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        rows = read_csv(out / "outcomes.csv")
        assert len(rows) == 10
        assert all(int(r["steps"]) <= 50 for r in rows)

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            rc = main(
                [
                    "simulate",
                    "--scenario",
                    "example5_uniform",
                    "--runs",
                    "40",
                    "--seed",
                    "7",
                    "--trace",
                    "--out",
                    str(out),
                ]
            )
            assert rc == 0
        for name in ("outcomes.csv", "summary.json", "trajectories.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_conservation_in_outcomes(self, tmp_path):
        rc = main(
            ["simulate", "--scenario", "example5_maxspeed", "--runs", "30", "--out", str(tmp_path)]
        )
        assert rc == 0
        for row in read_csv(tmp_path / "outcomes.csv"):
            total1 = float(row["h1_g1"]) + float(row["h2_g1"])
            total2 = float(row["h1_g2"]) + float(row["h2_g2"])
            assert total1 == pytest.approx(3.0, abs=1e-8)
            assert total2 == pytest.approx(3.0, abs=1e-8)

    def test_unknown_scenario_name_is_config_error(self, tmp_path, capsys):
        rc = main(["simulate", "--scenario", "does_not_exist", "--out", str(tmp_path)])
        assert rc == 2
        assert "configuration error" in capsys.readouterr().err

    def test_unknown_keys_rejected(self, tmp_path):
        doc = json.loads(json.dumps(BASE_SCENARIO))
        doc["extra"] = 1
        rc = main(["simulate", "--scenario", str(write_scenario(tmp_path, doc)), "--out", str(tmp_path)])
        assert rc == 2

    def test_unknown_prior_keys_rejected(self, tmp_path):
        doc = json.loads(json.dumps(BASE_SCENARIO))
        doc["prior"]["q_prior"]["bogus"] = 2.0
        rc = main(["simulate", "--scenario", str(write_scenario(tmp_path, doc)), "--out", str(tmp_path)])
        assert rc == 2

    def test_bad_utility_rejected(self, tmp_path):
        doc = json.loads(json.dumps(BASE_SCENARIO))
        doc["economy"]["households"][0]["utility"]["weights"] = [0.9, 0.5]
        rc = main(["simulate", "--scenario", str(write_scenario(tmp_path, doc)), "--out", str(tmp_path)])
        assert rc == 2

    def test_three_good_scenario_roundtrip(self, tmp_path):
        doc = {
            "economy": {
                "households": [
                    {"utility": {"family": "ces", "weights": [0.2, 0.3, 0.5], "sigma": 0.5},
                     "endowment": [1.1, 0.9, 1.3]},
                    {"utility": {"family": "ces", "weights": [0.5, 0.3, 0.2], "sigma": 0.5},
                     "endowment": [0.8, 1.4, 0.7]},
                    {"utility": {"family": "cobb_douglas_log", "weights": [0.3, 0.4, 0.3]},
                     "endowment": [1.2, 1.0, 0.9]},
                    {"utility": {"family": "cobb_douglas_log", "weights": [0.4, 0.2, 0.4]},
                     "endowment": [0.9, 1.1, 1.2]},
                ]
            },
            "prior": {
                "q_prior": {
                    "kind": "tabulated",
                    "grid": [[0.95, 1.0], [1.0, 1.05], [1.05, 0.95], [1.0, 1.0]],
                    "densities": [1.0, 1.0, 1.0, 1.0],
                },
                "s_prior": {"kind": "uniform_cube"},
            },
            "engine": {"runs": 3, "max_steps": 4, "pareto_tol": 1e-8, "master_seed": 2},
        }
        rc = main(["simulate", "--scenario", str(write_scenario(tmp_path, doc)), "--out", str(tmp_path)])
        assert rc == 0
        rows = read_csv(tmp_path / "outcomes.csv")
        assert len(rows) == 3
        assert {"q_1", "q_2", "h4_g3"} <= set(rows[0])
        for row in rows:
            for g in range(1, 4):
                total = sum(float(row[f"h{i}_g{g}"]) for i in range(1, 5))
                agg = sum(doc["economy"]["households"][i]["endowment"][g - 1] for i in range(4))
                assert total == pytest.approx(agg, abs=1e-8)

    @pytest.mark.parametrize(
        "q_prior, goods",
        [
            ({"kind": "tabulated", "grid": [[1.0, 1.0]], "densities": [1.0]}, 2),
            ({"kind": "uniform_arc"}, 3),
        ],
    )
    def test_prior_that_cannot_fit_fails_at_load(self, tmp_path, capsys, q_prior, goods):
        doc = json.loads(json.dumps(BASE_SCENARIO))
        for hh, e in zip(doc["economy"]["households"], ([2.0, 1.0, 1.0], [1.0, 2.0, 1.0])):
            hh["utility"]["weights"] = [1.0 / goods] * goods
            hh["endowment"] = e[:goods]
        doc["prior"]["q_prior"] = q_prior
        out = tmp_path / "out"
        rc = main(["simulate", "--scenario", str(write_scenario(tmp_path, doc)), "--out", str(out)])
        assert rc == 2
        assert "configuration error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "edit, flags",
        [
            (lambda doc: doc["prior"].update(q_prior={"kind": "tabulated", "grid": [0.3, 1.0, 1.5], "densities": [1.0, math.nan, 1.0]}), []),
            (lambda doc: doc["prior"].update(q_prior={"kind": "tabulated", "grid": [0.3, 1.0, 1.5], "densities": [1.0, math.inf, 1.0]}), []),
            (lambda doc: doc["prior"].update(q_prior={"kind": "tabulated", "grid": [0.3, math.nan, 1.5], "densities": [1.0, 1.0, 1.0]}), []),
            (lambda doc: doc["engine"].update(pareto_tol=math.inf), []),
            (lambda doc: None, ["--pareto-tol", "inf"]),
        ],
        ids=["nan_density", "inf_density", "nan_grid_point", "inf_pareto_tol", "inf_pareto_tol_flag"],
    )
    def test_non_finite_value_fails_at_load(self, tmp_path, capsys, edit, flags):
        doc = json.loads(json.dumps(BASE_SCENARIO))
        edit(doc)
        out = tmp_path / "out"
        rc = main(["simulate", "--scenario", str(write_scenario(tmp_path, doc)), *flags, "--out", str(out)])
        assert rc == 2
        assert "configuration error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "q_prior",
        [{"kind": "uniform_arc"}, {"kind": "tabulated", "grid": [1.0], "densities": [1.0]}],
        ids=["angle", "tabulated"],
    )
    @pytest.mark.parametrize(
        "endowment, message",
        [
            ([1e-305, 1.0], "initial allocation has a coordinate below 1e-300"),
            # the substitution rate 1e600 overflows: caught at the start, not mid-run
            ([1e-300, 1e300], "initial allocation has substitution rates that are not finite or fall below 1e-300"),
        ],
        ids=["coordinate", "rates"],
    )
    def test_start_below_the_floor_is_config_error(self, tmp_path, capsys, q_prior, endowment, message):
        doc = json.loads(json.dumps(BASE_SCENARIO))
        doc["economy"]["households"][0]["endowment"] = endowment
        doc["prior"]["q_prior"] = q_prior
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rc = main(["simulate", "--scenario", str(write_scenario(tmp_path, doc)), "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == f"configuration error: {message}\n"
        assert not out.exists()

    def test_degeneracy_mid_run_is_one_line_exit_3(self, tmp_path, capsys, monkeypatch):
        def degenerate(*args, **kwargs):
            raise DomainDegeneracyError("demand degenerated below the positive floor")

        monkeypatch.setattr(engine, "run_monte_carlo", degenerate)
        rc = main(["simulate", "--scenario", "example5_uniform", "--runs", "5", "--out", str(tmp_path)])
        assert rc == 3
        assert capsys.readouterr().err == (
            "numeric degeneracy: demand degenerated below the positive floor\n"
        )

    def test_rejection_cap_is_sampling_failure(self, tmp_path, capsys):
        doc = json.loads(json.dumps(BASE_SCENARIO))
        doc["prior"]["q_prior"] = {"kind": "tabulated", "grid": [9.0], "densities": [1.0]}
        rc = main(["simulate", "--scenario", str(write_scenario(tmp_path, doc)), "--out", str(tmp_path)])
        assert rc == 3
        assert "sampling failure" in capsys.readouterr().err

    @pytest.mark.parametrize("max_steps", [1, 60])
    def test_demand_overflow_on_the_2x2_kernel_is_exit_3(self, tmp_path, capsys, max_steps):
        # eta = 1 / (1 - 0.999) = 1000: the CES demand's powers overflow at
        # step 1's price, which the kernel must catch before the NaN reaches
        # the rates or the histogram
        doc = json.loads(json.dumps(BASE_SCENARIO))
        _household(doc)["utility"] = {"family": "ces", "weights": [0.3, 0.7], "sigma": 0.999}
        doc["engine"].update(runs=3, max_steps=max_steps, master_seed=1)
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rc = main(["simulate", "--scenario", str(write_scenario(tmp_path, doc)), "--out", str(out)])
        assert rc == 3
        assert re.fullmatch(
            r"numeric degeneracy: run 0: step 1: demand degenerated below the positive floor; "
            r"rate interval \(\S+, \S+\); state \[\[2\.0, 1\.0\], \[1\.0, 2\.0\]\]\n",
            capsys.readouterr().err,
        )
        assert not out.exists()

    def test_zero_coordinate_on_the_generic_path_is_exit_3(self, tmp_path, capsys):
        # household 1's path end in good 1 is under half an ulp of its
        # holding, so a full-speed move lands on exactly 0.0
        doc = json.loads(json.dumps(BASE_SCENARIO))
        _household(doc)["utility"]["weights"] = [1e-17, 1.0 - 1e-17]
        doc["prior"] = {
            "q_prior": {"kind": "tabulated", "grid": np.geomspace(1e-3, 1e3, 400).tolist(), "densities": [1.0] * 400},
            "s_prior": {"kind": "max_speed"},
        }
        doc["engine"].update(runs=30, max_steps=100, master_seed=5)
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rc = main(["simulate", "--scenario", str(write_scenario(tmp_path, doc)), "--out", str(out)])
        assert rc == 3
        assert capsys.readouterr().err == (
            "numeric degeneracy: run 0: step 1: bundles degenerated below the positive floor; "
            "state [[2.0, 1.0], [1.0, 2.0]]\n"
        )
        assert not out.exists()

    def test_far_tail_price_prior_is_exit_3_without_output(self, tmp_path, capsys):
        # the trade interval (0.5, 2) lies far beyond the prior's tail; the
        # directory is made only once every run has succeeded
        doc = cli.resolve_scenario("example5_uniform")
        doc["prior"]["q_prior"] = {"kind": "arctan_normal", "center_rate": 1e-200, "sigma_angle": 0.001}
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rc = main(["simulate", "--scenario", str(write_scenario(tmp_path, doc)), "--runs", "10", "--out", str(out)])
        assert rc == 3
        assert capsys.readouterr().err == (
            "sampling failure: run 0: step 1: no prior mass on price angles "
            "(0.4636476090008061, 1.1071487177940904): mean 1e-200, sigma 0.001; rate interval (0.5, 2.0); "
            "state [[2.0, 1.0], [1.0, 2.0]]\n"
        )
        assert not out.exists()


def _sticky_with(edit):
    """The bundled example4_sticky document, edited in place or replaced by ``edit``."""
    doc = cli.resolve_scenario("example4_sticky")
    return edit(doc) or doc


def _household(doc, k=0) -> dict:
    return doc["economy"]["households"][k]


class TestScenarioFormat:
    @pytest.mark.parametrize(
        "edit, named",
        [
            (lambda d: d["prior"]["q_prior"].update(center_rate="abc"), 'prior.q_prior.center_rate must be a number, got "abc"'),
            (lambda d: d["engine"].update(pareto_tol="x"), 'engine.pareto_tol must be a number, got "x"'),
            (lambda d: _household(d)["utility"].update(weights=[0.5, "ab"]), "household 0.utility.weights"),
            (lambda d: _household(d).update(endowment=[2.0, "abc"]), "household 0.endowment"),
            (lambda d: d["engine"].update(runs="ten"), 'engine.runs must be an integer, got "ten"'),
            (lambda d: d["engine"].update(master_seed=None), "engine.master_seed must be an integer, got null"),
            (lambda d: _household(d).update(endowment=[[2.0, 1.0], [1.0]]), "household 0.endowment"),
            (lambda d: _household(d).update(endowment=[2.0, 1.0, 1.0]), "household 0.endowment has 3 goods"),
            (lambda d: _household(d).update(utility=3), "household 0.utility must be an object, got 3"),
            (lambda d: [d], "scenario must be an object, got a list"),
            (lambda d: d["engine"].update(runs=2.7), "engine.runs must be an integer, got 2.7"),
            (lambda d: d["engine"].update(runs=True), "engine.runs must be an integer, got true"),
            (lambda d: d["engine"].update(master_seed=1.5), "engine.master_seed must be an integer, got 1.5"),
            (lambda d: d["engine"].update(max_steps=10.9), "engine.max_steps must be an integer, got 10.9"),
            (lambda d: d["engine"].update(max_steps=10**400), "max_steps must be an integer from 1 to 2**53, got 10000"),
            (lambda d: d["economy"]["households"].__setitem__(0, "x"), 'household 0 must be an object, got "x"'),
            (lambda d: d["engine"].update(master_seed=-1), "master seed must be an integer from 0 to 2**64 - 1, got -1"),
            (lambda d: d["engine"].update(master_seed=2**64), "from 0 to 2**64 - 1, got 18446744073709551616"),
        ],
        ids=[
            "string_center_rate", "string_pareto_tol", "string_weight", "string_endowment",
            "string_runs", "null_master_seed", "ragged_endowment", "endowments_of_3_and_2_goods",
            "number_utility", "top_level_list", "fractional_runs", "boolean_runs",
            "fractional_master_seed", "fractional_max_steps", "max_steps_beyond_float_range",
            "string_household", "negative_master_seed", "master_seed_beyond_64_bits",
        ],
    )
    def test_malformed_value_is_one_line_exit_2(self, tmp_path, capsys, edit, named):
        out = tmp_path / "out"
        path = write_scenario(tmp_path, _sticky_with(edit))
        rc = main(["simulate", "--scenario", str(path), "--runs", "5", "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("configuration error: ") and err.count("\n") == 1
        assert named in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "utility, spec",
        [
            ({"family": "cobb_douglas_log", "weights": [0.3, 0.7]}, UtilitySpec.cobb_douglas_log([0.3, 0.7])),
            ({"family": "ces", "weights": [0.7, 0.3], "sigma": 0.4}, UtilitySpec.ces([0.7, 0.3], 0.4)),
            ({"family": "ces", "weights": [0.2, 0.3, 0.5], "sigma": 0.5}, UtilitySpec.ces([0.2, 0.3, 0.5], 0.5)),
        ],
        ids=["cobb_douglas", "ces", "three_good_ces"],
    )
    def test_utility_loads_to_the_constructors_spec(self, utility, spec):
        doc = json.loads(json.dumps(BASE_SCENARIO))
        for hh in doc["economy"]["households"]:
            hh["utility"] = utility
            hh["endowment"] = [1.0] * spec.dimension
        doc["prior"]["q_prior"] = {"kind": "tabulated", "grid": [[1.0] * (spec.dimension - 1)], "densities": [1.0]}
        cfg, _ = cli.load_scenario(doc)
        for got in cfg.economy.specs:
            assert got.family is spec.family
            assert got.weights.tolist() == spec.weights.tolist()
            assert got.elasticity == spec.elasticity

    @pytest.mark.parametrize("key", ["rho", "exponent"])
    def test_unknown_utility_key_names_the_household(self, tmp_path, capsys, key):
        doc = json.loads(json.dumps(BASE_SCENARIO))
        doc["economy"]["households"][0]["utility"][key] = 2.0
        rc = main(["simulate", "--scenario", str(write_scenario(tmp_path, doc)), "--out", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"configuration error: unknown keys in household 0.utility: ['{key}']\n"
        )

    def test_label_is_optional_and_unread(self, tmp_path):
        outs = []
        for label in ("h1", None, ["any", 3]):
            doc = json.loads(json.dumps(BASE_SCENARIO))
            for hh in doc["economy"]["households"]:
                hh.pop("label")
                if label is not None:
                    hh["label"] = label
            outs.append(tmp_path / str(len(outs)))
            path = write_scenario(tmp_path, doc)
            assert main(["simulate", "--scenario", str(path), "--runs", "5", "--out", str(outs[-1])]) == 0
        for out in outs[1:]:
            assert (out / "outcomes.csv").read_bytes() == (outs[0] / "outcomes.csv").read_bytes()


class TestUnusablePaths:
    def test_scenario_directory(self, tmp_path, capsys):
        rc = main(["simulate", "--scenario", str(tmp_path), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"configuration error: cannot read scenario {str(tmp_path)!r}")

    def test_scenario_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes(json.dumps(BASE_SCENARIO).replace('"h1"', '"h\u00e9"').encode("latin-1"))
        rc = main(["simulate", "--scenario", str(path), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"configuration error: scenario {str(path)!r} is not valid JSON")

    def test_output_dir_not_a_string(self, tmp_path, capsys, monkeypatch):
        doc = json.loads(json.dumps(BASE_SCENARIO))
        doc["output_dir"] = 3
        monkeypatch.chdir(tmp_path)
        rc = main(["simulate", "--scenario", str(write_scenario(tmp_path, doc))])
        assert rc == 2
        assert capsys.readouterr().err == "configuration error: output_dir must be a string, got 3\n"
        assert not (tmp_path / "outcomes.csv").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--scenario", "example5_uniform", "--runs", "5"],
            ["example3", "--runs", "5"],
            ["manifold", "--family", "cobb_douglas_log", "--weights", "0.5,0.5", "--anchor", "1,1", "--kind", "offer"],
        ],
        ids=["simulate", "example3", "manifold"],
    )
    def test_out_is_an_existing_file(self, tmp_path, capsys, argv):
        path = tmp_path / "taken"
        path.write_text("")
        rc = main([*argv, "--out", str(path)])
        assert rc == 2
        assert capsys.readouterr().err.startswith(
            f"configuration error: cannot make output directory {str(path)!r}"
        )
        assert path.read_text() == ""


class TestExample3:
    def test_masses_and_values(self, tmp_path, capsys):
        rc = main(["example3", "--runs", "10000", "--seed", "1", "--out", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "1.458333" in out  # the j = 2 outcome, 35/24
        rows = read_csv(tmp_path / "example3.csv")
        by_j = {int(r["j"]): r for r in rows}
        assert abs(float(by_j[1]["empirical_mass"]) - 0.5) <= 0.02
        assert float(by_j[1]["value"]) == pytest.approx(1.5)
        assert float(by_j[2]["value"]) == pytest.approx(35.0 / 24.0)
        assert float(by_j[3]["exact_mass"]) == pytest.approx(0.125)

    def test_single_run(self, tmp_path):
        rc = main(["example3", "--runs", "1", "--seed", "4", "--out", str(tmp_path)])
        assert rc == 0
        rows = read_csv(tmp_path / "example3.csv")
        assert sum(float(r["empirical_mass"]) for r in rows) == pytest.approx(1.0)


class TestManifold:
    def test_indifference_flat_column_constant(self, tmp_path):
        rc = main(
            [
                "manifold",
                "--family",
                "cobb_douglas_log",
                "--weights",
                "0.5,0.5",
                "--anchor",
                "1,1",
                "--kind",
                "indifference",
                "--grid",
                "0.25:4:15",
                "--out",
                str(tmp_path),
            ]
        )
        assert rc == 0
        rows = read_csv(tmp_path / "manifold.csv")
        assert len(rows) == 15
        levels = {float(r["u"]) for r in rows}
        assert max(levels) - min(levels) < 1e-9

    def test_offer_points_lie_on_price_hyperplane(self, tmp_path):
        rc = main(
            [
                "manifold",
                "--family",
                "ces",
                "--weights",
                "0.5,0.5",
                "--sigma",
                "0.5",
                "--anchor",
                "1,1",
                "--kind",
                "offer",
                "--grid",
                "0.5:2:11",
                "--out",
                str(tmp_path),
            ]
        )
        assert rc == 0
        for row in read_csv(tmp_path / "manifold.csv"):
            value = float(row["p_1"]) * 1.0 + float(row["p_2"]) * 1.0
            assert value == pytest.approx(1.0, abs=1e-9)

    def test_trade_hyperplane_defining_equation(self, tmp_path):
        rc = main(
            [
                "manifold",
                "--family",
                "cobb_douglas_log",
                "--weights",
                "0.5,0.5",
                "--anchor",
                "1,1",
                "--kind",
                "trade_hyperplane",
                "--grid",
                "0.2:1.8:9",
                "--out",
                str(tmp_path),
            ]
        )
        assert rc == 0
        for row in read_csv(tmp_path / "manifold.csv"):
            # anchor (1,1): supporting prices (1/2, 1/2), so y1/2 + y2/2 = 1
            assert 0.5 * float(row["y_1"]) + 0.5 * float(row["y_2"]) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize(
        "grid, message",
        [
            ("1:2:0", "grid count must be an integer of at least 1, got 0"),
            ("1:2:-3", "grid count must be an integer of at least 1, got -3"),
            ("1:inf:3", "grid end must be a number in (0, inf), got inf"),
            ("nan:2:3", "grid end must be a number in (0, inf), got nan"),
            ("0:2:3", "grid end must be a number in (0, inf), got 0.0"),
            ("1:-2:3", "grid end must be a number in (0, inf), got -2.0"),
            ("1:2:100000000000", "grid of 100000000000^1 points exceeds the 10000000 point cap"),
        ],
        ids=["count_0", "count_-3", "inf_end", "nan_end", "zero_end", "negative_end", "mesh_over_cap"],
    )
    def test_grid_without_points_is_config_error(self, tmp_path, capsys, grid, message):
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rc = main(["manifold", "--family", "ces", "--weights", "0.3,0.7", "--sigma", "0.4", "--anchor", "1,2",
                       "--kind", "offer", "--grid", grid, "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == f"configuration error: {message}\n"
        assert not out.exists()

    def test_mesh_cap_counts_every_rate(self, tmp_path, capsys):
        # 4000 points a rate are within the cap at two goods, 16 million at three goods are not
        out = tmp_path / "out"
        rc = main(["manifold", "--family", "cobb_douglas_log", "--weights", "0.2,0.3,0.5", "--anchor", "1,1,1",
                   "--kind", "offer", "--grid", "1:2:4000", "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == "configuration error: grid of 4000^2 points exceeds the 10000000 point cap\n"
        assert not out.exists()

    def test_invalid_anchor_is_config_error(self, tmp_path, capsys):
        rc = main(
            [
                "manifold",
                "--family",
                "cobb_douglas_log",
                "--weights",
                "0.5,0.5",
                "--anchor",
                "1,-1",
                "--kind",
                "offer",
                "--out",
                str(tmp_path),
            ]
        )
        assert rc == 2


@pytest.mark.parametrize(
    "argv, name",
    [
        (["example3", "--runs", "300", "--seed", "5"], "example3.csv"),
        (
            ["manifold", "--family", "ces", "--weights", "0.3,0.7", "--sigma", "0.4", "--anchor", "1,2",
             "--kind", "offer", "--grid", "0.5:2:20"],
            "manifold.csv",
        ),
    ],
    ids=["example3", "manifold"],
)
def test_byte_identical_reruns(tmp_path, argv, name):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main([*argv, "--out", str(out)]) == 0
    assert (a / name).read_bytes() == (b / name).read_bytes()


_NUMBER = re.compile(r"-?\d+(?:\.\d+)?(?:e[-+]?\d+)?")


def _is_float(token: str) -> bool:
    return "." in token or "e" in token


def _fingerprint(path: Path) -> tuple[str, float]:
    """The sha256 of an output file's text with every float written ``#``,
    and the sum of ``(k + 1) * x_k`` over its floats ``x_k`` in file order.

    The text keeps the layout, run ids, step counts, terminal kinds and
    histogram counts exactly.  The floats are only held to the sum: they come
    from numpy's SIMD-dispatched tan, arctan and log, which may differ by an
    ulp across CPUs and numpy releases, and near the contract curve a trace's
    speeds scale with the inverse length of a nearly vanishing trade
    direction, so one ulp there moves them by up to 2e-4 relative.
    """
    text = path.read_text()
    floats = [float(m[0]) for m in _NUMBER.finditer(text) if _is_float(m[0])]
    skeleton = _NUMBER.sub(lambda m: "#" if _is_float(m[0]) else m[0], text)
    return hashlib.sha256(skeleton.encode()).hexdigest(), math.fsum((k + 1) * x for k, x in enumerate(floats))


@pytest.mark.dispatch
def test_simulate_outputs_match_the_golden_fingerprints(tmp_path):
    """The bundled scenarios' outputs at 500 runs, seed 1, pinned by ``_fingerprint``.

    Reruns agreeing with each other cannot catch a stream change that stays
    self-consistent; these pin the outputs themselves.  A changed draw moves
    a step count or the weighted sum far beyond its 1e-9 tolerance, which
    perturbing tan, arctan and log by an ulp on half their values moved by
    at most 7e-12.
    """
    lines = (Path(__file__).parent / "data" / "simulate_seed1_runs500.txt").read_text().splitlines()
    golden = {path: (digest, float(total)) for digest, total, path in
              (line.split("  ") for line in lines if not line.startswith("#"))}
    for name in ("example4_sticky", "example5_maxspeed", "example5_uniform", "example4_sticky_trace"):
        scenario, trace = name.removesuffix("_trace"), name.endswith("_trace")
        argv = ["simulate", "--scenario", scenario, "--runs", "500", "--seed", "1"]
        assert main([*argv, *(["--trace"] if trace else []), "--out", str(tmp_path / name)]) == 0
    for path, (digest, total) in golden.items():
        mine = _fingerprint(tmp_path / path)
        assert mine[0] == digest, path
        assert math.isclose(mine[1], total, rel_tol=1e-9), (path, mine[1], total)
    assert len(golden) == 7


class TestSimulateBins:
    def test_bins_flag_changes_histogram(self, tmp_path):
        rc = main(
            [
                "simulate", "--scenario", "example5_uniform", "--runs", "50",
                "--bins", "16", "--out", str(tmp_path),
            ]
        )
        assert rc == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert len(summary["histogram"]["counts"]) == 16

    @pytest.mark.parametrize("bins", ["0", "100000000000"])
    def test_invalid_bins_is_config_error(self, tmp_path, capsys, bins):
        # run_monte_carlo refuses the count before any run, so no histogram allocation fails at the end
        out = tmp_path / "out"
        rc = main(
            [
                "simulate", "--scenario", "example5_uniform", "--runs", "10",
                "--bins", bins, "--out", str(out),
            ]
        )
        assert rc == 2
        assert capsys.readouterr().err == f"configuration error: bins must be an integer from 1 to 1000000, got {bins}\n"
        assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--scenario", "example5_maxspeed", "--runs", "5", "--seed", "-1"],
        ["simulate", "--scenario", "example5_maxspeed", "--runs", "5", "--seed", str(2**64 + 1)],
        ["example3", "--runs", "5", "--seed", "-1"],
        ["verify", "--filter", "identity[ces]", "--seed", str(2**64)],
    ],
    ids=["simulate_negative", "simulate_aliasing_seed_1", "example3_negative", "verify_beyond_64_bits"],
)
def test_seed_outside_64_bits_is_config_error(tmp_path, capsys, argv):
    # a seed is one Philox key word; masking it would rerun another seed's outputs
    out = tmp_path / "out"
    rc = main(argv + (["--out", str(out)] if argv[0] != "verify" else []))
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith("configuration error: master seed must be an integer from 0 to 2**64 - 1")
    assert captured.out == "" and not out.exists()


_MANIFOLD = {"--family": "cobb_douglas_log", "--weights": "0.5,0.5", "--anchor": "1,1", "--kind": "offer"}


@pytest.mark.parametrize(
    "edit, flags, message",
    [
        (lambda d: _household(d).__delitem__("endowment"), None, "missing keys in household 0: ['endowment']"),
        (
            lambda d: d["prior"]["s_prior"].update(kind="fast"), None,
            "prior.s_prior.kind must be one of ['max_speed', 'uniform_cube'], got \"fast\"",
        ),
        (lambda d: d["prior"].update(q_prior=[1.0]), None, "prior.q_prior must be an object, got a list"),
        (
            lambda d: d["economy"]["households"].__delitem__(1), None,
            "economy.households must list at least two households",
        ),
        (None, {"--anchor": ""}, "anchor must be comma-separated numbers"),
        (None, {"--grid": "1:2"}, "grid must look like lo:hi:count"),
    ],
    ids=["missing_endowment", "unknown_speed_prior", "list_price_prior", "one_household", "empty_anchor", "two_part_grid"],
)
def test_refusal_is_one_line_exit_2(tmp_path, capsys, edit, flags, message):
    out = tmp_path / "out"
    if edit is not None:
        argv = ["simulate", "--scenario", str(write_scenario(tmp_path, _sticky_with(edit))), "--runs", "5"]
    else:
        argv = ["manifold", *(token for flag in {**_MANIFOLD, **flags}.items() for token in flag)]
    rc = main(argv + ["--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err == f"configuration error: {message}\n"
    assert captured.out == "" and not out.exists()


class TestVerifyCommand:
    def test_full_run_exits_zero(self, capsys):
        rc = main(["verify", "--seed", "0"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 8
        for name in ("identity", "jacobian", "attraction", "welfare"):
            assert name in out
        # the report, byte for byte, as the suites gave it when they ran one draw at a time
        assert out == (Path(__file__).parent / "data" / "verify_seed0.txt").read_text()

    def test_filtered_run_passes(self, capsys):
        rc = main(["verify", "--filter", "identity", "--seed", "0"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 2

    def test_injected_fault_exits_nonzero(self, capsys):
        rc = main(["verify", "--filter", "identity", "--inject-fault"])
        assert rc == 1
        assert "FAIL" in capsys.readouterr().out

    def test_unmatched_filter_is_config_error(self, capsys):
        rc = main(["verify", "--filter", "nonexistent"])
        assert rc == 2


class TestWriters:
    @pytest.mark.parametrize("goods", [2, 3])
    def test_csv_bytes_match_the_reference_writer(self, tmp_path, goods):
        if goods == 2:
            specs = [UtilitySpec.cobb_douglas_log([0.5, 0.5]), UtilitySpec.ces([0.7, 0.3], 0.5)]
            start = Allocation(np.array([[2.0, 1.0], [1.0, 2.0]]))
            prior = PriorSpec(ArctanNormal(1.0, 0.2), SpeedPrior.UNIFORM_CUBE)
            cfg = SimConfig(Economy.of(specs), start, prior, master_seed=4, runs=40, max_steps=60)
        else:
            specs = [
                UtilitySpec.ces([0.2, 0.3, 0.5], 0.5),
                UtilitySpec.ces([0.5, 0.3, 0.2], 0.5),
                UtilitySpec.cobb_douglas_log([0.3, 0.4, 0.3]),
            ]
            start = Allocation(np.array([[1.1, 0.9, 1.3], [0.8, 1.4, 0.7], [1.2, 1.0, 0.9]]))
            grid = np.array([[0.95, 1.0], [1.0, 1.05], [1.05, 0.95], [1.0, 1.0]])
            prior = PriorSpec(Tabulated(grid, np.ones(4)), SpeedPrior.UNIFORM_CUBE)
            cfg = SimConfig(Economy.of(specs), start, prior, master_seed=2, runs=3, max_steps=4)
        dist = engine.run_monte_carlo(cfg, trace=True)
        cli._write_outcomes(tmp_path / "outcomes.csv", dist, cfg.economy)
        cli._write_trajectories(tmp_path / "trajectories.csv", dist.trace, cfg.economy)
        oracles.write_outcomes_csv(tmp_path / "ref_outcomes.csv", dist, cfg.economy)
        oracles.write_trajectories_csv(tmp_path / "ref_trajectories.csv", cfg)
        assert main(["example3", "--runs", "500", "--seed", str(goods), "--out", str(tmp_path)]) == 0
        oracles.write_example3_csv(tmp_path / "ref_example3.csv", 500, goods)
        for name in ("outcomes.csv", "trajectories.csv", "example3.csv"):
            assert (tmp_path / name).read_bytes() == (tmp_path / f"ref_{name}").read_bytes()
        # CES away from s = 0.5 takes the scalar power whose stacked form once lost the bits
        for spec in (specs[-1], UtilitySpec.ces(specs[0].weights, 0.4)):
            anchor = np.linspace(0.8, 1.4, goods)
            args = ["--family", spec.family.value, "--weights", ",".join(map(repr, spec.weights.tolist()))]
            args += ["--sigma", repr(spec.elasticity)] if spec.elasticity is not None else []
            args += ["--anchor", ",".join(map(repr, anchor.tolist())), "--kind", "offer", "--grid", "0.5:2:30"]
            assert main(["manifold", *args, "--out", str(tmp_path)]) == 0
            oracles.write_manifold_csv(tmp_path / "ref_manifold.csv", spec, ManifoldKind.OFFER, anchor, np.linspace(0.5, 2, 30))
            assert (tmp_path / "manifold.csv").read_bytes() == (tmp_path / "ref_manifold.csv").read_bytes()


def _run_python(code: str) -> str:
    """Standard output of ``python -c code`` in a fresh interpreter that imports this checkout's package."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout


def test_cli_import_leaves_the_process_pool_out():
    # the process pool loads only for workers > 1
    code = "import sys, edgeworth.cli; print('concurrent.futures.process' in sys.modules)"
    assert _run_python(code).strip() == "False"


def test_runtime_runs_without_scipy(tmp_path):
    # scipy is a test dependency only: every command and both 2x2 root finders run with it blocked
    commands = [
        *(["simulate", "--scenario", name, "--runs", "200", "--out", str(tmp_path / name)]
          for name in ("example5_uniform", "example5_maxspeed")),
        ["simulate", "--scenario", "example4_sticky", "--trace", "--runs", "200", "--out", str(tmp_path / "sticky")],
        ["manifold", "--family", "ces", "--weights", "0.3,0.7", "--sigma", "0.4", "--anchor", "1,2", "--kind", "offer",
         "--out", str(tmp_path / "manifold")],
        ["verify"],
        ["example3", "--runs", "1000", "--out", str(tmp_path / "ex3")],
    ]
    code = (
        "import sys; sys.modules['scipy'] = None\n"
        "import numpy as np\n"
        "from edgeworth import geometry\n"
        "from edgeworth.cli import main\n"
        "from edgeworth.prefs import UtilitySpec\n"
        "from edgeworth.trade import Allocation\n"
        f"assert [main(args) for args in {commands!r}] == [0] * {len(commands)}\n"
        "specs = [UtilitySpec.cobb_douglas_log([0.5, 0.5]), UtilitySpec.ces([0.7, 0.3], 0.5)]\n"
        "assert len(geometry.contract_curve_2x2(specs, [3.0, 3.0], 9)) == 9\n"
        "q, _ = geometry.walras_equilibrium_2x2(specs, Allocation(np.array([[2.0, 1.0], [1.0, 2.0]])))\n"
        "print(q)"
    )
    assert float(_run_python(code).splitlines()[-1]) > 0.0
    for out in ("example5_uniform", "example5_maxspeed", "sticky"):
        assert (tmp_path / out / "outcomes.csv").stat().st_size > 0
    assert (tmp_path / "sticky" / "trajectories.csv").stat().st_size > 0
    assert (tmp_path / "manifold" / "manifold.csv").stat().st_size > 0
    assert (tmp_path / "ex3" / "example3.csv").stat().st_size > 0
