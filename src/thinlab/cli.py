"""Batch experiment runner: JSON configs in, CSV/JSON/DOT artifacts out.

Every experiment is deterministic given (config, seed): solver start
vectors are fixed, walks are seeded, and CSV floats are written with
round-trip repr.  Wall-clock timing therefore stays out of the data files
(the seconds column is left empty) and lives in the run manifest, which is
the one output that differs between reruns.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import logging
import re
import reprlib
import sys
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from functools import partial
from pathlib import Path
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from . import __version__
from .elements import MAX_MODULUS
from .groups import (
    MULTIPLICATION_TABLE_ENTRIES,
    GeneratorSet,
    bfs_closure,
    check_budget,
    check_vector_keys,
    cyclic_generators,
    direct_product_of_cyclic,
    is_prime,
    resolve_budget,
    sl2_generators,
    sp_order_factors,
    symmetric_generators,
)
from .monodromy import (
    braid_to_matrix,
    build_chain,
    catalog_json,
    congruence_report,
    point_pushing_generators,
    standard_symplectic_generators,
)
from .graphs import (
    DOT_VERTEX_LIMIT,
    MultiGraph,
    cayley_graph,
    check_torsion_states,
    components,
    load_graph,
    quotient_check,
    schreier_graph,
    to_dot,
    torsion_action,
    torsion_projection,
    torsion_symmetry,
)
from .spectra import (
    CSV_FIELDS,
    SpectralReport,
    esperantist_fit,
    family_sweep,
    fit_to_json,
    lambda1,
    write_reports_csv,
)
from . import origami as origami_mod
from . import pra as pra_mod

logger = logging.getLogger("thinlab")

MAX_SEED = 2**63 - 1


class ConfigError(ValueError):
    """Config rejected; the message names the offending key."""


# Config values echoed in a ConfigError are cut to about 80 characters, so a
# huge value does not make a huge message and log line.
_BRIEF = reprlib.Repr()
_BRIEF.maxstring = _BRIEF.maxlong = _BRIEF.maxother = 80
_brief = _BRIEF.repr


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    params: dict
    seed: int = 0
    output_dir: str | None = None
    raw: dict = field(default_factory=dict, compare=False)

    def hash(self) -> str:
        blob = json.dumps(self.raw, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()


def _want_int(key: str, value, minimum: int | None = None) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigError(f"key {key!r}: expected integer, got {_brief(value)}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"key {key!r}: must be >= {minimum}, got {_brief(value)}")
    return value


def _want_seed(value) -> int:
    """A seed numpy's default_rng accepts that also fits in 64 bits."""
    seed = _want_int("seed", value, minimum=0)
    if seed > MAX_SEED:
        raise ConfigError(f"key 'seed': must be <= 2**63 - 1, got {_brief(seed)}")
    return seed


def _want_str(key: str, value, choices: Sequence[str] | None = None) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"key {key!r}: expected string, got {_brief(value)}")
    if choices and value not in choices:
        raise ConfigError(f"key {key!r}: must be one of {choices}, got {_brief(value)}")
    return value


# Checks for _SCHEMA: each takes a key, its config value and the params
# checked before it, and returns the value the runner reads.
def _integer(minimum: int) -> Callable:
    return lambda key, value, params: _want_int(key, value, minimum)


def _choice(*choices: str) -> Callable:
    return lambda key, value, params: _want_str(key, value, choices)


def _flag(key: str, value, params: dict) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"key {key!r}: expected boolean, got {_brief(value)}")
    return value


def _primes(key: str, value, params: dict) -> list[int]:
    if not isinstance(value, list) or not value:
        raise ConfigError(f"key {key!r}: expected a nonempty list of primes")
    for p in value:
        if isinstance(p, int) and p > MAX_MODULUS:
            raise ConfigError(f"key {key!r}: {_brief(p)} exceeds the modulus limit {MAX_MODULUS}")
        if not isinstance(p, int) or not is_prime(p):
            raise ConfigError(f"key {key!r}: {_brief(p)} is not prime")
    if len(set(value)) != len(value):
        raise ConfigError(f"key {key!r}: primes must not repeat, got {_brief(value)}")
    return list(value)


def parse_mu(text: str) -> tuple[int, ...]:
    """Partition string like "3" or "2,2" (optionally parenthesized)."""
    cleaned = text.strip().strip("()")
    try:
        parts = tuple(int(x) for x in cleaned.split(","))
    except ValueError:
        raise ConfigError(f"bad partition string {_brief(text)}") from None
    if not parts or any(p < 1 for p in parts):
        raise ConfigError(f"bad partition string {_brief(text)}")
    return tuple(sorted(parts, reverse=True))


def _group_spec_sizes(spec: str) -> tuple[str, list[int]]:
    """Family ("S" or "Z") and sizes of a group spec, without building
    anything: S<d>, Z<n>, or direct products Z<a>xZ<b>x..."""
    s = spec.strip()
    if re.fullmatch(r"[Ss]\d+", s):
        family = "S"
    elif re.fullmatch(r"[Zz]\d+(?:x[Zz]\d+)*", s):
        family = "Z"
    else:
        raise ConfigError(f"unrecognized group spec {_brief(spec)} (use S3, Z5, Z2xZ2, ...)")
    try:
        sizes = [int(x) for x in re.findall(r"\d+", s)]
    except ValueError:  # more digits than int() accepts
        raise ConfigError(f"group spec {_brief(spec)}: size too large") from None
    if 0 in sizes:
        raise ConfigError(f"group spec {_brief(spec)}: sizes must be positive")
    return family, sizes


def _check_group_size(spec: str, budget: int) -> None:
    """Refuse a group spec before anything is built: its closed-form order
    (n, d!, or the product) must fit the element budget, and both its
    multiplication table (the order squared), which the Epi scan needs, and
    its generators' 2 x factors x points permutation entries must fit
    MULTIPLICATION_TABLE_ENTRIES.  d! is never computed for a huge d."""
    family, sizes = _group_spec_sizes(spec)
    name, table = _brief(spec), MULTIPLICATION_TABLE_ENTRIES
    factors = range(1, sizes[0] + 1) if family == "S" else sizes
    order = check_budget(f"group {name}: elements", factors, budget)
    check_budget(f"group {name}: multiplication table entries", (order, order), table)
    check_budget(f"group {name}: generator entries", (2, len(sizes), sum(sizes)), table)


def parse_group_spec(spec: str) -> GeneratorSet:
    """Generators for a group spec: S<d>, Z<n>, or direct products Z<a>xZ<b>x..."""
    family, sizes = _group_spec_sizes(spec)
    if family == "S":
        return symmetric_generators(sizes[0])
    if len(sizes) == 1:
        return cyclic_generators(sizes[0])
    return direct_product_of_cyclic(sizes)


def _group(key: str, value, params: dict) -> str:
    spec = _want_str(key, value).strip()
    _group_spec_sizes(spec)  # fail early on bad specs
    return spec


def _mu(key: str, value, params: dict) -> tuple[int, ...]:
    mu = parse_mu(_want_str(key, value))
    if sum(mu) != params["degree"]:
        raise ConfigError(
            f"key 'mu': {_brief(value)} is not a partition of {_brief(params['degree'])}"
        )
    return mu


# kind -> {key: (check, default)}, in validation order.  A key the config
# leaves out takes its default unchecked; one whose default is
# _REQUIRED_KEY must be given.
_REQUIRED_KEY = object()
_SWEEP_KEYS = {
    "genus": (_integer(1), _REQUIRED_KEY),
    "primes": (_primes, _REQUIRED_KEY),
}
_SCHEMA: dict[str, dict[str, tuple[Callable, Any]]] = {
    "cayley-sweep": {
        **_SWEEP_KEYS,
        "gens": (_choice("standard", "chain"), "standard"),
        "dot": (_flag, False),
    },
    "schreier-sweep": {
        **_SWEEP_KEYS,
        "compare_cayley": (_flag, False),
    },
    "pointpush": _SWEEP_KEYS,
    "pra": {
        "group": (_group, _REQUIRED_KEY),
        "arity": (_integer(1), _REQUIRED_KEY),
        "steps": (_integer(0), _REQUIRED_KEY),
    },
    "origami-census": {
        "degree": (_integer(1), _REQUIRED_KEY),
        "mu": (_mu, None),
        "image_order": (_integer(1), None),
        "dot": (_flag, False),
    },
}
EXPERIMENT_KINDS = tuple(_SCHEMA)
_COMMON_KEYS = {"kind", "seed", "output_dir"}


def validate_config(raw: dict) -> ExperimentConfig:
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    kind = raw.get("kind")
    if kind not in EXPERIMENT_KINDS:
        raise ConfigError(f"key 'kind': must be one of {EXPERIMENT_KINDS}, got {_brief(kind)}")

    schema = _SCHEMA[kind]
    unknown = set(raw) - schema.keys() - _COMMON_KEYS
    if unknown:
        raise ConfigError(f"unknown keys for {kind}: {_brief(sorted(unknown))}")
    missing = {key for key, (_, default) in schema.items() if default is _REQUIRED_KEY} - set(raw)
    if missing:
        raise ConfigError(f"missing required keys for {kind}: {sorted(missing)}")

    seed = _want_seed(raw.get("seed", 0))
    output_dir = raw.get("output_dir")
    if output_dir is not None:
        output_dir = _want_str("output_dir", output_dir)

    params: dict[str, Any] = {}
    for key, (check, default) in schema.items():
        params[key] = check(key, raw[key], params) if key in raw else default
    return ExperimentConfig(kind=kind, params=params, seed=seed, output_dir=output_dir, raw=raw)


def load_config(path) -> ExperimentConfig:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: line {exc.lineno}: {exc.msg}") from exc
    except ValueError as exc:  # an integer literal beyond int()'s digit limit
        raise ConfigError(f"config {path}: {exc}") from exc
    return validate_config(raw)


@dataclass
class RunManifest:
    config_hash: str
    version: str
    started: str
    finished: str
    tasks: list[dict]
    outputs: list[str]

    @property
    def failed(self) -> bool:
        return any(t["status"] != "ok" for t in self.tasks)

    def to_json(self) -> str:
        return _json_text(asdict(self))


def _float(x: float) -> str:
    return repr(float(x))


def _json_text(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _write_json(path: Path, payload) -> Path:
    path.write_text(_json_text(payload))
    return path


def _write_csv(path: Path, header: Sequence[str], rows) -> Path:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path


def _write_dat(path: Path, header: str, lines: Iterable[str]) -> Path:
    """A plot data file: a "# " comment header, then one line per point."""
    path.write_text("".join(f"{line}\n" for line in (f"# {header}", *lines)))
    return path


def emit_plotdata(
    primed_reports: Sequence[tuple[int, SpectralReport]], out_dir: Path
) -> list[Path]:
    """Plot-ready (log N, lambda1) and (p, lambda1) files plus the
    esperantist fit JSON, restricted to connected graphs."""
    out_dir = Path(out_dir)
    connected = [(p, r) for p, r in primed_reports if r.lambda1 > 0]
    if not connected:
        logger.warning("no connected graphs to plot; writing header-only data files")
    logn = (f"{_float(np.log(r.n_vertices))} {_float(r.lambda1)}" for _, r in connected)
    by_p = (f"{p} {_float(r.lambda1)}" for p, r in connected)
    written = [
        _write_dat(out_dir / "plot_logN_lambda1.dat", "log_N lambda1", logn),
        _write_dat(out_dir / "plot_p_lambda1.dat", "p lambda1", by_p),
    ]
    if len(connected) >= 3:
        fit = esperantist_fit([r for _, r in connected])
        path = out_dir / "esperantist.json"
        path.write_text(fit_to_json(fit))
        written.append(path)
    else:
        logger.warning("fewer than 3 connected graphs; skipping esperantist fit")
    return written


def _sweep_generators(genus: int, gens_choice: str, p: int) -> GeneratorSet:
    if gens_choice == "standard" and genus == 1:
        return sl2_generators(p)
    return standard_symplectic_generators(genus, p)


def _sweep_order(genus: int, p: int) -> tuple[str, Iterable[int]]:
    """Name and lazy order factors of the group a sweep's generators
    generate mod p: SL2(F_p) = Sp_2(F_p) at genus 1.  At genus g >= 2 the
    chain transvections generate Sp_2g(F_p) for odd p and the symmetric
    group S_(2g+2) for p = 2 (A'Campo, Comment. Math. Helv. 1979)."""
    if genus == 1:
        return f"SL2(F{p})", sp_order_factors(1, p)
    if p == 2:
        return f"S{_brief(2 * genus + 2)}", range(1, 2 * genus + 3)
    return f"Sp{_brief(2 * genus)}(F{p})", sp_order_factors(genus, p)


def _sweep_group(genus: int, gens_choice: str, p: int) -> tuple:
    """A sweep's generators mod p and the group they enumerate.  The
    group's closed-form order is refused above the element budget before
    any generator is built, where bfs_closure would refuse it after."""
    name, factors = _sweep_order(genus, p)
    check_budget(f"{name}: elements", factors, resolve_budget())
    gens = _sweep_generators(genus, gens_choice, p)
    return gens, bfs_closure(gens)


def _entry(name: str, error: str | None = None) -> dict:
    """A task's manifest entry: ok, or failed with its error."""
    if error is None:
        return {"name": name, "status": "ok"}
    return {"name": name, "status": "failed", "error": error}


def _task(name: str, fn: Callable[[], Any]) -> tuple[dict, Any]:
    """Run one unit of work; returns its manifest entry and fn's result,
    None if it failed.  A failure is recorded, never raised, so the run
    goes on and ends with a manifest."""
    try:
        result = fn()
    except Exception as exc:  # noqa: BLE001 - isolate the unit of work
        return _entry(name, f"{type(exc).__name__}: {exc}"), None
    return _entry(name), result


def _sweep(builder: Callable[[int], MultiGraph], params: dict, jobs: int | None, outdir: Path):
    """family_sweep over the config's primes: one task per prime, plus
    spectra.csv and the plot files for the primes that were solved."""
    primes = params["primes"]
    sweep = family_sweep(builder, primes, jobs=jobs)
    tasks = [_entry(f"p={p}", sweep.errors.get(p)) for p in primes]
    reports = iter(sweep.reports)  # the solved primes' reports, in order
    by_prime = {p: next(reports) for p in primes if p not in sweep.errors}
    csv_path = outdir / "spectra.csv"
    write_reports_csv(list(by_prime.values()), csv_path, include_seconds=False)
    return tasks, by_prime, [csv_path, *emit_plotdata(list(by_prime.items()), outdir)]


def _run_cayley_sweep(params: dict, seed: int, jobs: int | None, outdir: Path):
    genus, primes = params["genus"], params["primes"]
    # only the graphs the DOT files need outlive their prime's solve
    dot_graphs: dict[int, MultiGraph] = {}

    def builder(p: int) -> MultiGraph:
        gens, group = _sweep_group(genus, params["gens"], p)
        graph = cayley_graph(group, gens, label=f"cayley_g{genus}_p{p}")
        if params["dot"]:
            if graph.n_vertices <= DOT_VERTEX_LIMIT:
                dot_graphs[p] = graph
            else:
                logger.warning(
                    "skipping DOT for p=%d: %d vertices > %d", p, graph.n_vertices, DOT_VERTEX_LIMIT
                )
        return graph

    tasks, _, outputs = _sweep(builder, params, jobs, outdir)
    for p in primes:
        if p in dot_graphs:
            path = outdir / f"cayley_p{p}.dot"
            path.write_text(to_dot(dot_graphs[p]))
            outputs.append(path)
    return tasks, outputs


def _run_schreier_sweep(params: dict, seed: int, jobs: int | None, outdir: Path):
    genus, primes = params["genus"], params["primes"]
    built: dict[int, MultiGraph] = {}

    def builder(p: int) -> MultiGraph:
        check_torsion_states(p, 2 * genus)  # before any generator is built
        gens = _sweep_generators(genus, "standard", p)
        moves = torsion_action(gens)
        # built on first read, which only the dense certificate makes
        symmetry = partial(torsion_symmetry, p, 2 * genus)
        graph = schreier_graph(moves, label=f"torsion_g{genus}_p{p}", symmetry=symmetry)
        if params["compare_cayley"]:
            built[p] = graph
        return graph

    tasks, by_prime, outputs = _sweep(builder, params, jobs, outdir)
    if not params["compare_cayley"]:
        return tasks, outputs

    def compare(p: int) -> list:
        gens, group = _sweep_group(genus, "standard", p)
        cay = cayley_graph(group, gens, label=f"cayley_g{genus}_p{p}")
        ok = quotient_check(cay, built.pop(p), torsion_projection(group))
        del group  # freed before the solve, which sets the peak
        cay_lam, sch = lambda1(cay).lambda1, by_prime[p]
        gap_ok = sch.lambda1 >= cay_lam - 1e-9
        return [p, sch.n_vertices, _float(sch.lambda1), _float(cay_lam), ok, gap_ok]

    rows = []
    for i, p in enumerate(primes):
        if p in by_prime:
            # the comparison belongs to prime p's task: a failure marks it failed
            tasks[i], row = _task(f"p={p}", lambda: compare(p))
            if row is not None:
                rows.append(row)
    header = ["p", "N_schreier", "lambda1_schreier", "lambda1_cayley", "quotient_ok", "gap_ok"]
    outputs.append(_write_csv(outdir / "comparison.csv", header, rows))
    return tasks, outputs


def _run_pointpush(params: dict, seed: int, jobs: int | None, outdir: Path):
    genus, primes = params["genus"], params["primes"]
    # a prime whose vector keys overflow int64 fails before anything is built
    tasks = {p: _task(f"p={p}", lambda: check_vector_keys(p, 2 * genus))[0] for p in primes}
    left = [p for p in primes if tasks[p]["status"] == "ok"]
    if not left:
        return list(tasks.values()), []
    chain = build_chain(genus)
    words = point_pushing_generators(genus)
    mats = [braid_to_matrix(w, chain) for w in words]

    prime_data = {}
    flags = congruence_report(mats, [])
    for p in left:
        tasks[p], report = _task(f"p={p}", lambda: congruence_report(mats, [p]))
        if report is not None:
            order, full_order = report.prime_orders[p]
            prime_data[str(p)] = {
                "order": order,
                "full_order": full_order,
                "surjective": report.surjective[p],
            }

    payload = {
        "genus": genus,
        "mod2_trivial": flags.mod2_trivial,
        "mod4_trivial": flags.mod4_trivial,
        "primes": prime_data,
    }
    catalog = catalog_json(mats, label=f"pointpush_g{genus}")
    return list(tasks.values()), [
        _write_json(outdir / "congruence.json", payload),
        _write_json(outdir / "generators.json", catalog),
    ]


def _run_pra(params: dict, seed: int, jobs: int | None, outdir: Path):
    group_spec, n, steps = params["group"], params["arity"], params["steps"]

    def body() -> list[Path]:
        _check_group_size(group_spec, resolve_budget())
        # the walk draws its coins and picks up front, about 16 bytes a step
        walk_budget = resolve_budget(default=pra_mod.DEFAULT_CANDIDATE_BUDGET)
        check_budget("pra walk: steps", (steps,), walk_budget)
        gens = parse_group_spec(group_spec)
        group = bfs_closure(gens)
        graph = pra_mod.pra_graph(group, n)
        # solved first: the graph keeps the components the solve's sparse A
        # gave, so the orbit sizes and the walk build no second one
        lam = ""
        if graph.n_vertices >= 2 and graph.degree >= 1:
            lam = _float(lambda1(graph).lambda1)
        comps = components(graph)
        orbits = sorted((len(c) for c in comps), reverse=True)
        walk = pra_mod.pra_walk(graph, comps, steps, seed)
        tvs = ";".join(f"{t}:{_float(tv)}" for t, tv in walk.tv_checkpoints)
        orbit_sizes = ";".join(str(s) for s in orbits)
        row = [group_spec, n, graph.n_vertices, graph.degree, orbit_sizes, lam, tvs]
        header = ["group", "arity", "epi_count", "k", "orbit_sizes", "lambda1", "tv_checkpoints"]
        walk_payload = {
            "group": group_spec,
            "arity": n,
            "steps": walk.steps,
            "seed": walk.seed,
            "start_index": walk.start_index,
            "component_size": int(len(walk.component)),
            "tv_distance": walk.tv_distance,
            "tv_checkpoints": [[t, tv] for t, tv in walk.tv_checkpoints],
        }
        return [
            _write_csv(outdir / "pra.csv", header, [row]),
            _write_json(outdir / "walk.json", walk_payload),
        ]

    entry, outputs = _task(f"pra({group_spec},n={n})", body)
    return [entry], outputs or []


def _run_origami_census(params: dict, seed: int, jobs: int | None, outdir: Path):
    d, image_order = params["degree"], params["image_order"]

    def body() -> list[Path]:
        classes = origami_mod.census(d, mu=params["mu"])
        if image_order is not None:
            classes = [c for c in classes if c.image_order == image_order]
        # vertex v of a stratum's move graph is that stratum's v-th class
        comp_ids: list[int] = [0] * len(classes)
        graphs_by_mu = {}
        for mu in sorted({c.mu for c in classes}, reverse=True):
            positions = [i for i, c in enumerate(classes) if c.mu == mu]
            graph = origami_mod.origami_graph(d, mu, image_order=image_order)
            graphs_by_mu[mu] = graph
            for cid, verts in enumerate(components(graph)):
                for v in verts:
                    comp_ids[positions[v]] = cid
        header = ["d", "mu", "image_order", "orbit_size", "genus", "component_id", "representative"]
        rows = (
            [d, ",".join(map(str, c.mu)), c.image_order, c.orbit_size, c.genus, cid, c.rep.encode()]
            for c, cid in zip(classes, comp_ids)
        )
        written = [_write_csv(outdir / "census.csv", header, rows)]
        if params["dot"]:
            for mu, graph in graphs_by_mu.items():
                if 0 < graph.n_vertices <= DOT_VERTEX_LIMIT:
                    path = outdir / f"origami_mu{'_'.join(map(str, mu))}.dot"
                    path.write_text(to_dot(graph))
                    written.append(path)
        return written

    entry, outputs = _task(f"census(d={d})", body)
    return [entry], outputs or []


_RUNNERS: dict[str, Callable] = {
    "cayley-sweep": _run_cayley_sweep,
    "schreier-sweep": _run_schreier_sweep,
    "pointpush": _run_pointpush,
    "pra": _run_pra,
    "origami-census": _run_origami_census,
}


def run(
    config: ExperimentConfig,
    out_dir: str | None = None,
    jobs: int | None = None,
    seed: int | None = None,
) -> RunManifest:
    """Execute one experiment config; returns the manifest (also written to
    manifest.json in the output directory).  A bad jobs or seed override, or
    an output directory that cannot be created, is a ConfigError raised
    before anything runs."""
    if jobs is not None:
        _want_int("jobs", jobs, minimum=1)
    effective_seed = config.seed if seed is None else _want_seed(seed)
    outdir = Path(out_dir or config.output_dir or f"thinlab-{config.kind}")
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {_brief(str(outdir))}: {exc}") from exc
    started = datetime.now(timezone.utc).isoformat()
    tasks, outputs = _RUNNERS[config.kind](config.params, effective_seed, jobs, outdir)
    finished = datetime.now(timezone.utc).isoformat()
    manifest = RunManifest(
        config_hash=config.hash(),
        version=__version__,
        started=started,
        finished=finished,
        tasks=tasks,
        outputs=[str(Path(p).name) for p in outputs],
    )
    for name in manifest.outputs:
        if not (outdir / name).exists():
            raise RuntimeError(f"declared output missing: {name}")
    (outdir / "manifest.json").write_text(manifest.to_json())
    return manifest


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="thinlab", description=__doc__)
    parser.add_argument("--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment config")
    p_run.add_argument("config", type=str)
    p_run.add_argument("--jobs", type=int, default=None, help="worker pool size (default: cores)")
    p_run.add_argument("--out", type=str, default=None, help="output directory")
    p_run.add_argument("--seed", type=int, default=None, help="override config seed")

    # census and pra build the config of their kind from the flags named
    # like its keys
    p_census = sub.add_parser("census", help="square-tiled surface census")
    p_census.set_defaults(kind="origami-census")
    p_census.add_argument("--degree", type=int, required=True)
    p_census.add_argument("--mu", type=str, default=None, help="partition, e.g. 2,2")
    p_census.add_argument("--image-order", type=int, default=None)
    p_census.add_argument("--out", type=str, default=None)
    p_census.add_argument("--dot", action="store_true")

    p_pra = sub.add_parser("pra", help="product replacement experiment")
    p_pra.set_defaults(kind="pra")
    p_pra.add_argument("--group", type=str, required=True, help="S3, Z5, Z2xZ2, ...")
    p_pra.add_argument("--arity", type=int, required=True)
    p_pra.add_argument("--steps", type=int, required=True)
    p_pra.add_argument("--seed", type=int, default=0)
    p_pra.add_argument("--out", type=str, default=None)

    p_spec = sub.add_parser("spectra", help="lambda1 of a dumped graph")
    p_spec.add_argument("--graph", type=str, required=True, help="binary adjacency dump")

    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )

    if args.command == "spectra":
        try:
            graph = load_graph(args.graph, label=Path(args.graph).stem)
            report = lambda1(graph)
        except Exception as exc:  # noqa: BLE001
            logger.error("spectra failed: %s: %s", type(exc).__name__, exc)
            return 1
        writer = csv.writer(sys.stdout)
        writer.writerow(CSV_FIELDS)
        writer.writerow(report.csv_row())
        return 0

    jobs = seed = None
    try:
        if args.command == "run":
            config = load_config(args.config)
            out, jobs, seed = args.out, args.jobs, args.seed
        else:
            keys = _SCHEMA[args.kind].keys() | _COMMON_KEYS
            config = validate_config(
                {key: v for key, v in vars(args).items() if key in keys and v is not None}
            )
            if args.command == "census":
                out = args.out or f"thinlab-census-d{args.degree}"
            else:
                out = args.out or f"thinlab-pra-{config.params['group']}-n{args.arity}"
        manifest = run(config, out_dir=out, jobs=jobs, seed=seed)
    except ConfigError as exc:
        logger.error("config error: %s", exc)
        return 2
    for t in manifest.tasks:
        logger.info("%s: %s%s", t["name"], t["status"], f" ({t['error']})" if "error" in t else "")
    return 1 if manifest.failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
