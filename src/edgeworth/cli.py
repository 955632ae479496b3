"""Command-line entry point: simulate, example3, manifold, verify.

All outputs are plain CSV/JSON data keyed to the scenario, flags, and seed;
repeated invocations with the same inputs produce byte-identical files.
Exit codes: 0 success, 1 verification failure, 2 configuration error,
3 sampling failure or numeric degeneracy.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
from importlib import resources
from pathlib import Path

import numpy as np

from . import engine, geometry, prefs, verify
from .engine import (
    ArctanNormal,
    OutcomeDistribution,
    PriorSpec,
    SimConfig,
    Tabulated,
    UniformArc,
)
from .errors import (
    ConvergenceError,
    DomainDegeneracyError,
    EdgeworthError,
    LPError,
    SamplingError,
    ScenarioError,
    SpecificationError,
)
from .geometry import ManifoldKind
from .prefs import Family, UtilitySpec
from .trade import Allocation, Economy, SpeedPrior

SUMMARY_SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_CONFIG = 2
EXIT_SAMPLING = 3

BUNDLED_SCENARIOS = ("example4_sticky", "example5_uniform", "example5_maxspeed")


def _show(value) -> str:
    """A scenario value as its JSON text, or its JSON type if it is a list or an object."""
    if isinstance(value, (dict, list)):
        return "an object" if isinstance(value, dict) else "a list"
    return json.dumps(value)


def _object(obj, where: str, required, optional=()) -> dict:
    """``obj`` if it is a JSON object with every ``required`` key and no key outside ``optional``."""
    if not isinstance(obj, dict):
        raise ScenarioError(f"{where} must be an object, got {_show(obj)}")
    unknown = obj.keys() - {*required, *optional}
    if unknown:
        raise ScenarioError(f"unknown keys in {where}: {sorted(unknown)}")
    missing = {*required} - obj.keys()
    if missing:
        raise ScenarioError(f"missing keys in {where}: {sorted(missing)}")
    return obj


def _is_number(value) -> bool:
    """A JSON number that a float holds; ``true`` and ``false`` are not numbers."""
    return type(value) is float or type(value) is int and abs(value) <= sys.float_info.max


def _number(value, where: str) -> float:
    if not _is_number(value):
        raise ScenarioError(f"{where} must be a number, got {_show(value)}")
    return float(value)


def _integer(value, where: str) -> int:
    if type(value) is not int:
        raise ScenarioError(f"{where} must be an integer, got {_show(value)}")
    return value


def _numbers(value, where: str, rows: bool = False) -> np.ndarray:
    """A list of numbers, or with ``rows`` also a list of equal-length lists of numbers."""
    flat = isinstance(value, list) and all(map(_is_number, value))
    nested = rows and isinstance(value, list) and all(
        isinstance(r, list) and len(r) == len(value[0]) and all(map(_is_number, r)) for r in value
    )
    if not (flat or nested):
        shape = " or of equal-length lists of numbers" if rows else ""
        raise ScenarioError(f"{where} must be a list of numbers{shape}")
    return np.asarray(value, dtype=np.float64)


def _choice(value, where: str, choices) -> str:
    """``value`` if it is one of the strings ``choices``."""
    if isinstance(value, str) and value in choices:
        return value
    raise ScenarioError(f"{where} must be one of {sorted(choices)}, got {_show(value)}")


def _read_utility(obj, where: str) -> UtilitySpec:
    _object(obj, where, {"family", "weights"}, {"sigma"})
    family = _choice(obj["family"], f"{where}.family", [f.value for f in Family])
    weights = _numbers(obj["weights"], f"{where}.weights")
    sigma = _number(obj["sigma"], f"{where}.sigma") if "sigma" in obj else None
    try:
        return UtilitySpec(family, weights, sigma)
    except SpecificationError as exc:
        raise ScenarioError(f"{where}: {exc}") from exc


#: Each price prior kind: its type, and a reader for each key of its object besides ``kind``.
_Q_PRIORS = {
    "arctan_normal": (ArctanNormal, {"center_rate": _number, "sigma_angle": _number}),
    "uniform_arc": (UniformArc, {}),
    "tabulated": (Tabulated, {"grid": functools.partial(_numbers, rows=True), "densities": _numbers}),
}


def _read_q_prior(obj, where: str):
    if not isinstance(obj, dict):
        raise ScenarioError(f"{where} must be an object, got {_show(obj)}")
    make, fields = _Q_PRIORS[_choice(obj.get("kind"), f"{where}.kind", _Q_PRIORS)]
    _object(obj, where, {"kind", *fields})
    return make(**{key: read(obj[key], f"{where}.{key}") for key, read in fields.items()})


def load_scenario(data) -> tuple[SimConfig, str | None]:
    """Validate a parsed scenario document and build the simulation config.

    This is the one reader of the scenario format.  Each object's keys are
    checked once, each value must have its JSON type (``runs``,
    ``max_steps`` and ``master_seed`` are integers), and any fault raises
    :class:`ScenarioError`, naming the key of a value of the wrong type.  A
    household's ``label`` is accepted and unused: outputs name households
    ``h1...hH`` by position.
    """
    doc = _object(data, "scenario", {"economy", "prior", "engine"}, {"output_dir"})
    households = _object(doc["economy"], "economy", {"households"})["households"]
    if not isinstance(households, list) or len(households) < 2:
        raise ScenarioError("economy.households must list at least two households")
    specs = []
    endowments = []
    for k, hh in enumerate(households):
        _object(hh, f"household {k}", {"utility", "endowment"}, {"label"})
        specs.append(_read_utility(hh["utility"], f"household {k}.utility"))
        endowments.append(_numbers(hh["endowment"], f"household {k}.endowment"))
        if endowments[-1].size != specs[-1].dimension:
            raise ScenarioError(
                f"household {k}.endowment has {endowments[-1].size} goods, its utility {specs[-1].dimension}"
            )
    prior = _object(doc["prior"], "prior", {"q_prior", "s_prior"})
    s_kind = _object(prior["s_prior"], "prior.s_prior", {"kind"})["kind"]
    optional = {"max_steps": _integer, "pareto_tol": _number}  # read if present; SimConfig holds the defaults
    eng = _object(doc["engine"], "engine", {"runs", "master_seed"}, optional)
    out_dir = doc.get("output_dir")
    if out_dir is not None and not isinstance(out_dir, str):
        raise ScenarioError(f"output_dir must be a string, got {_show(out_dir)}")
    try:
        cfg = SimConfig(
            Economy.of(specs),
            Allocation(np.stack(endowments)),
            PriorSpec(
                _read_q_prior(prior["q_prior"], "prior.q_prior"),
                SpeedPrior(_choice(s_kind, "prior.s_prior.kind", [s.value for s in SpeedPrior])),
            ),
            master_seed=_integer(eng["master_seed"], "engine.master_seed"),
            runs=_integer(eng["runs"], "engine.runs"),
            **{key: read(eng[key], f"engine.{key}") for key, read in optional.items() if key in eng},
        )
    except SpecificationError as exc:
        raise ScenarioError(str(exc)) from exc
    return cfg, out_dir


def resolve_scenario(arg: str) -> dict:
    """Read a scenario document from a path or a bundled name."""
    path = Path(arg)
    if not path.exists():
        if arg not in BUNDLED_SCENARIOS:
            raise ScenarioError(
                f"scenario {arg!r} is neither a readable file nor one of {BUNDLED_SCENARIOS}"
            )
        path = resources.files("edgeworth.scenarios").joinpath(f"{arg}.json")
    try:
        return json.loads(path.read_bytes())
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario {arg!r}: {exc.strerror}") from exc
    except ValueError as exc:  # bad JSON, or text that is not UTF-8
        raise ScenarioError(f"scenario {arg!r} is not valid JSON: {exc}") from exc


def _out_dir(arg: str | None) -> Path:
    """The output directory ``arg`` (default: cwd), made with its parents if missing."""
    path = Path(arg or ".")
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ScenarioError(f"cannot make output directory {str(path)!r}: {exc.strerror}") from exc
    return path


#: Rows the CSV writers format and write at a time.
_CSV_BLOCK = 4096


def _write_csv(path: Path, header: list[str], rows: int, lines) -> None:
    """A CSV file with the bytes ``csv.writer`` gives cells that need no quoting.

    ``lines(start, stop)`` formats rows ``start:stop``, CRLF-terminated;
    each block of ``_CSV_BLOCK`` rows goes out in one ``writelines``, so
    the formatted text of a large trace is never held at once.
    """
    with path.open("w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for start in range(0, rows, _CSV_BLOCK):
            fh.writelines(lines(start, min(start + _CSV_BLOCK, rows)))


def _floats(rows: np.ndarray) -> list[str]:
    """Each row of a float matrix as comma-joined ``repr`` cells."""
    return [",".join(map(repr, row)) for row in rows.tolist()]


def _write_outcomes(path: Path, dist: OutcomeDistribution, economy: Economy) -> None:
    h, l = economy.size, economy.n_goods
    header = (
        ["run"]
        + [f"q_{i + 1}" for i in range(l - 1)]
        + [f"h{i + 1}_g{j + 1}" for i in range(h) for j in range(l)]
        + ["steps", "terminal"]
    )
    values = np.hstack([dist.terminal_qs, dist.samples.reshape(dist.runs, -1)])
    ends = [f"{n},{t.value}\r\n" for n, t in zip(dist.steps.tolist(), dist.terminal_tags)]

    def lines(start, stop):
        cells = zip(range(start, stop), _floats(values[start:stop]), ends[start:stop])
        return [f"{r},{v},{end}" for r, v, end in cells]

    _write_csv(path, header, dist.runs, lines)


def _write_summary(path: Path, dist: OutcomeDistribution) -> None:
    doc = {
        "schema_version": SUMMARY_SCHEMA_VERSION,
        "runs": dist.runs,
        "mean": dist.mean,
        "mode_bin": dist.mode_bin,
        "mean_bin": dist.mean_bin,
        "bands": {k: list(v) for k, v in dist.bands.items()},
        "household_means": dist.household_means.tolist(),
        "histogram": {
            "edges": dist.bin_edges.tolist(),
            "counts": dist.bin_counts.tolist(),
        },
        "steps_mean": float(dist.steps.mean()),
        "terminal_counts": {
            tag.value: int(sum(1 for t in dist.terminal_tags if t is tag))
            for tag in engine.Terminal
        },
    }
    path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")


def _write_trajectories(path: Path, trace: np.ndarray, economy: Economy) -> None:
    h, l = economy.size, economy.n_goods
    header = (
        ["run", "step"]
        + [f"q_{i + 1}" for i in range(l - 1)]
        + [f"sigma_{i + 1}" for i in range(h)]
        + [f"h{i + 1}_g{j + 1}" for i in range(h) for j in range(l)]
    )
    blank = "," * (l - 2 + h)  # the start has no rates or speeds

    def lines(start, stop):
        block = trace[start:stop]
        ids = block[:, :2].astype(np.int64).tolist()
        cells = zip(ids, _floats(block[:, 2 : l + 1 + h]), _floats(block[:, l + 1 + h :]))
        return [f"{r},{k},{d if k else blank},{b}\r\n" for (r, k), d, b in cells]

    _write_csv(path, header, trace.shape[0], lines)


def cmd_simulate(args: argparse.Namespace) -> int:
    data = resolve_scenario(args.scenario)
    cfg, scenario_out = load_scenario(data)
    overrides = {}
    if args.runs is not None:
        overrides["runs"] = args.runs
    if args.seed is not None:
        overrides["master_seed"] = args.seed
    if args.max_steps is not None:
        overrides["max_steps"] = args.max_steps
    if args.pareto_tol is not None:
        overrides["pareto_tol"] = args.pareto_tol
    if overrides:
        cfg = dataclasses.replace(cfg, **overrides)
    dist = engine.run_monte_carlo(cfg, bins=args.bins, trace=args.trace)
    out_dir = _out_dir(args.out or scenario_out)  # after the runs: a failed run leaves no directory
    _write_outcomes(out_dir / "outcomes.csv", dist, cfg.economy)
    _write_summary(out_dir / "summary.json", dist)
    if args.trace:
        _write_trajectories(out_dir / "trajectories.csv", dist.trace, cfg.economy)
    print(
        f"simulate: {dist.runs} runs, mean={dist.mean:.6f}, "
        f"band 5-95=({dist.bands['5-95'][0]:.6f}, {dist.bands['5-95'][1]:.6f}) -> {out_dir}"
    )
    return EXIT_OK


def cmd_example3(args: argparse.Namespace) -> int:
    dist = engine.example3_process(engine.run_rng(args.seed, 0), args.runs)
    out_dir = _out_dir(args.out)
    max_j = int(dist.steps.max())
    js = range(1, max_j + 1)
    rows = np.array([(engine.example3_ladder_value(j), np.mean(dist.steps == j), 2.0**-j) for j in js])

    def lines(start, stop):
        return [f"{j},{v}\r\n" for j, v in zip(js[start:stop], _floats(rows[start:stop]))]

    _write_csv(out_dir / "example3.csv", ["j", "value", "empirical_mass", "exact_mass"], max_j, lines)
    print(f"{'j':>3s} {'value':>20s} {'empirical':>12s} {'exact':>12s}")
    for j, (value, emp, exact) in enumerate(rows.tolist(), 1):
        print(f"{j:>3d} {value:>20.12f} {emp:>12.6f} {exact:>12.6f}")
    return EXIT_OK


def _parse_vector(text: str, name: str) -> np.ndarray:
    try:
        return np.array([float(v) for v in text.split(",")], dtype=np.float64)
    except ValueError as exc:
        raise ScenarioError(f"{name} must be comma-separated numbers") from exc


#: The most points ``manifold`` meshes.
_MAX_MESH = 10**7


def _parse_grid(text: str, axes: int) -> np.ndarray:
    """The rate axis ``lo:hi:count``, meshed over ``axes`` rates by the caller."""
    try:
        lo, hi, n = text.split(":")
        lo, hi, n = float(lo), float(hi), int(n)
    except ValueError as exc:
        raise ScenarioError("grid must look like lo:hi:count") from exc
    lo, hi = (prefs._check_real(end, "grid end", 0, math.inf) for end in (lo, hi))
    n = prefs._check_int(n, "grid count", 1)
    if n**axes > _MAX_MESH:
        raise ScenarioError(f"grid of {n}^{axes} points exceeds the {_MAX_MESH} point cap")
    return np.linspace(lo, hi, n)


def cmd_manifold(args: argparse.Namespace) -> int:
    try:
        spec = UtilitySpec(args.family, _parse_vector(args.weights, "weights"), args.sigma)
        anchor = prefs.as_bundle(_parse_vector(args.anchor, "anchor"), spec.dimension)
    except EdgeworthError as exc:
        raise ScenarioError(str(exc)) from exc
    axis = _parse_grid(args.grid, spec.dimension - 1)
    mesh = np.meshgrid(*([axis] * (spec.dimension - 1)), indexing="ij")
    kind = ManifoldKind(args.kind)
    sample = geometry.sample_manifold(spec, kind, anchor, np.stack([m.reshape(-1) for m in mesh], axis=-1))
    out_dir = _out_dir(args.out)
    l = spec.dimension
    header = (
        ["kind"]
        + [f"anchor_{j + 1}" for j in range(l)]
        + [f"y_{j + 1}" for j in range(l)]
        + [f"p_{j + 1}" for j in range(l)]
        + [f"q_{j + 1}" for j in range(l - 1)]
        + ["u"]
    )
    # one row of each core has the bits of inverse_normalized_demand and flatten
    y = sample.points
    p = prefs._guard(prefs._inverse_demand(spec, y), "inverse demand")
    q = prefs._guard(prefs._rates(spec, y), "substitution rates")
    level = prefs._guard(prefs._utility(spec, y), "utility", floor=0.0)
    rows = np.hstack([np.broadcast_to(anchor, y.shape), y, p, q, level[:, None]])

    def lines(start, stop):
        return [f"{kind.value},{v}\r\n" for v in _floats(rows[start:stop])]

    _write_csv(out_dir / "manifold.csv", header, rows.shape[0], lines)
    print(f"manifold: {len(sample.points)} points -> {out_dir / 'manifold.csv'}")
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    reports = verify.run_all(seed=args.seed, name_filter=args.filter, inject_fault=args.inject_fault)
    if not reports:
        print(f"no verification suite matches filter {args.filter!r}", file=sys.stderr)
        return EXIT_CONFIG
    for report in reports:
        print(report.line())
    return EXIT_OK if all(r.passed for r in reports) else EXIT_VERIFY_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="edgeworth",
        description="Stochastic non-tatonnement trade simulation for pure-exchange economies",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="Monte Carlo a scenario and export outcome data")
    sim.add_argument("--scenario", required=True, help="path to a scenario JSON or a bundled name")
    sim.add_argument("--runs", type=int, default=None)
    sim.add_argument("--seed", type=int, default=None, help="override the master seed")
    sim.add_argument("--max-steps", type=int, default=None)
    sim.add_argument("--pareto-tol", type=float, default=None)
    sim.add_argument("--trace", action="store_true", help="also write full trajectories.csv")
    sim.add_argument("--bins", type=int, default=engine._HISTOGRAM_BINS, help="histogram bins (default: %(default)s)")
    sim.add_argument("--out", default=None, help="output directory (default: cwd)")
    sim.set_defaults(func=cmd_simulate)

    ex3 = sub.add_parser("example3", help="the explicit coin-flip price-ladder process")
    ex3.add_argument("--runs", type=int, default=10_000)
    ex3.add_argument("--seed", type=int, default=1)
    ex3.add_argument("--out", default=None)
    ex3.set_defaults(func=cmd_example3)

    man = sub.add_parser("manifold", help="export a canonical manifold in all three domains")
    man.add_argument("--family", required=True, choices=[f.value for f in prefs.Family])
    man.add_argument("--weights", required=True, help="comma-separated positive weights")
    man.add_argument("--sigma", type=float, default=None, help="CES elasticity in (0, 1)")
    man.add_argument("--anchor", required=True, help="comma-separated bundle coordinates")
    man.add_argument("--kind", required=True, choices=[k.value for k in ManifoldKind])
    man.add_argument("--grid", default="0.25:4.0:25", help="rate grid as lo:hi:count")
    man.add_argument("--out", default=None)
    man.set_defaults(func=cmd_manifold)

    ver = sub.add_parser("verify", help="run the numeric falsification suites")
    ver.add_argument("--filter", default=None, help="substring filter on suite names")
    ver.add_argument("--seed", type=int, default=0)
    ver.add_argument(
        "--inject-fault",
        action="store_true",
        help="corrupt the demand map to demonstrate harness sensitivity",
    )
    ver.set_defaults(func=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ScenarioError, SpecificationError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (SamplingError, LPError, ConvergenceError) as exc:
        print(f"sampling failure: {exc}", file=sys.stderr)
        return EXIT_SAMPLING
    except DomainDegeneracyError as exc:
        print(f"numeric degeneracy: {exc}", file=sys.stderr)
        return EXIT_SAMPLING


if __name__ == "__main__":
    sys.exit(main())
