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
import sys
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Callable, Sequence

import numpy as np

from . import __version__
from .groups import (
    BudgetExceeded,
    GeneratorSet,
    bfs_closure,
    cyclic_generators,
    direct_product_of_cyclic,
    is_prime,
    resolve_budget,
    sl2_generators,
    symmetric_generators,
)
from .monodromy import (
    _trivial_mod,
    braid_to_matrix,
    build_chain,
    catalog_json,
    congruence_report,
    point_pushing_generators,
    standard_symplectic_generators,
)
from .graphs import (
    MultiGraph,
    cayley_graph,
    components,
    load_graph,
    quotient_check,
    schreier_graph,
    to_dot,
    torsion_action,
    torsion_projection,
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

EXPERIMENT_KINDS = (
    "cayley-sweep",
    "schreier-sweep",
    "pointpush",
    "pra",
    "origami-census",
)

MAX_SEED = 2**63 - 1


class ConfigError(ValueError):
    """Config rejected; the message names the offending key."""


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
        raise ConfigError(f"key {key!r}: expected integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"key {key!r}: must be >= {minimum}, got {value}")
    return value


def _want_primes(key: str, value) -> list[int]:
    if not isinstance(value, list) or not value:
        raise ConfigError(f"key {key!r}: expected a nonempty list of primes")
    for p in value:
        if not isinstance(p, int) or not is_prime(p):
            raise ConfigError(f"key {key!r}: {p!r} is not prime")
    if len(set(value)) != len(value):
        raise ConfigError(f"key {key!r}: primes must not repeat, got {value!r}")
    return list(value)


def _want_str(key: str, value, choices: Sequence[str] | None = None) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"key {key!r}: expected string, got {value!r}")
    if choices and value not in choices:
        raise ConfigError(f"key {key!r}: must be one of {choices}, got {value!r}")
    return value


def _want_bool(key: str, value) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"key {key!r}: expected boolean, got {value!r}")
    return value


_PARAM_KEYS = {
    "cayley-sweep": {"genus", "primes", "gens", "budget", "method", "dot"},
    "schreier-sweep": {"genus", "primes", "compare_cayley", "budget", "method"},
    "pointpush": {"genus", "primes", "budget"},
    "pra": {"group", "arity", "steps", "budget"},
    "origami-census": {"degree", "mu", "image_order", "cap", "dot"},
}
_REQUIRED = {
    "cayley-sweep": {"genus", "primes"},
    "schreier-sweep": {"genus", "primes"},
    "pointpush": {"genus", "primes"},
    "pra": {"group", "arity", "steps"},
    "origami-census": {"degree"},
}
_COMMON_KEYS = {"kind", "seed", "output_dir"}


def parse_mu(text: str) -> tuple[int, ...]:
    """Partition string like "3" or "2,2" (optionally parenthesized)."""
    cleaned = text.strip().strip("()")
    try:
        parts = tuple(int(x) for x in cleaned.split(","))
    except ValueError:
        raise ConfigError(f"bad partition string {text!r}") from None
    if not parts or any(p < 1 for p in parts):
        raise ConfigError(f"bad partition string {text!r}")
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
        raise ConfigError(f"unrecognized group spec {spec!r} (use S3, Z5, Z2xZ2, ...)")
    try:
        sizes = [int(x) for x in re.findall(r"\d+", s)]
    except ValueError:  # more digits than int() accepts
        raise ConfigError(f"group spec {spec!r}: size too large") from None
    if 0 in sizes:
        raise ConfigError(f"group spec {spec!r}: sizes must be positive")
    return family, sizes


def _group_order_exceeds(spec: str, budget: int) -> bool:
    """True iff the closed-form order of the spec's group (n, d!, or the
    product) exceeds budget.  The product stops at the first factor that
    crosses budget, so d! is never computed for a huge d."""
    family, sizes = _group_spec_sizes(spec)
    order = 1
    for factor in range(1, sizes[0] + 1) if family == "S" else sizes:
        order *= factor
        if order > budget:
            return True
    return False


def parse_group_spec(spec: str) -> GeneratorSet:
    """Generators for a group spec: S<d>, Z<n>, or direct products Z<a>xZ<b>x..."""
    family, sizes = _group_spec_sizes(spec)
    if family == "S":
        return symmetric_generators(sizes[0])
    if len(sizes) == 1:
        return cyclic_generators(sizes[0])
    return direct_product_of_cyclic(sizes)


def validate_config(raw: dict) -> ExperimentConfig:
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    kind = raw.get("kind")
    if kind not in EXPERIMENT_KINDS:
        raise ConfigError(f"key 'kind': must be one of {EXPERIMENT_KINDS}, got {kind!r}")

    allowed = _PARAM_KEYS[kind] | _COMMON_KEYS
    unknown = set(raw) - allowed
    if unknown:
        raise ConfigError(f"unknown keys for {kind}: {sorted(unknown)}")
    missing = _REQUIRED[kind] - set(raw)
    if missing:
        raise ConfigError(f"missing required keys for {kind}: {sorted(missing)}")

    seed = _want_int("seed", raw.get("seed", 0))
    if not -MAX_SEED - 1 <= seed <= MAX_SEED:
        raise ConfigError("key 'seed': must fit in 64 bits")
    output_dir = raw.get("output_dir")
    if output_dir is not None:
        output_dir = _want_str("output_dir", output_dir)

    p: dict[str, Any] = {}
    if kind in ("cayley-sweep", "schreier-sweep", "pointpush"):
        p["genus"] = _want_int("genus", raw["genus"], minimum=1)
        p["primes"] = _want_primes("primes", raw["primes"])
        if "budget" in raw:
            p["budget"] = _want_int("budget", raw["budget"], minimum=1)
    if kind == "cayley-sweep":
        p["gens"] = _want_str("gens", raw.get("gens", "standard"), ("standard", "sl2", "chain"))
        if p["gens"] == "sl2" and p["genus"] != 1:
            raise ConfigError("key 'gens': 'sl2' requires genus 1")
        p["method"] = _want_str("method", raw.get("method", "auto"), ("auto", "dense", "iterative"))
        p["dot"] = _want_bool("dot", raw.get("dot", False))
    if kind == "schreier-sweep":
        p["compare_cayley"] = _want_bool("compare_cayley", raw.get("compare_cayley", False))
        p["method"] = _want_str("method", raw.get("method", "auto"), ("auto", "dense", "iterative"))
    if kind == "pra":
        p["group"] = _want_str("group", raw["group"])
        _group_spec_sizes(p["group"])  # fail early on bad specs
        p["arity"] = _want_int("arity", raw["arity"], minimum=1)
        p["steps"] = _want_int("steps", raw["steps"], minimum=0)
        if "budget" in raw:
            p["budget"] = _want_int("budget", raw["budget"], minimum=1)
    if kind == "origami-census":
        p["degree"] = _want_int("degree", raw["degree"], minimum=1)
        if "mu" in raw:
            p["mu"] = parse_mu(_want_str("mu", raw["mu"]))
            if sum(p["mu"]) != p["degree"]:
                raise ConfigError(f"key 'mu': {raw['mu']!r} is not a partition of {p['degree']}")
        if "image_order" in raw:
            p["image_order"] = _want_int("image_order", raw["image_order"], minimum=1)
        if "cap" in raw:
            p["cap"] = _want_int("cap", raw["cap"], minimum=1)
        p["dot"] = _want_bool("dot", raw.get("dot", False))

    return ExperimentConfig(kind=kind, params=p, seed=seed, output_dir=output_dir, raw=raw)


def load_config(path) -> ExperimentConfig:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: line {exc.lineno}: {exc.msg}") from exc
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
        return json.dumps(
            {
                "config_hash": self.config_hash,
                "version": self.version,
                "started": self.started,
                "finished": self.finished,
                "tasks": self.tasks,
                "outputs": self.outputs,
            },
            indent=2,
            sort_keys=True,
        ) + "\n"


def _float(x: float) -> str:
    return repr(float(x))


def emit_plotdata(
    primed_reports: Sequence[tuple[int, SpectralReport]], out_dir: Path, prefix: str = ""
) -> list[Path]:
    """Plot-ready (log N, lambda1) and (p, lambda1) files plus the
    esperantist fit JSON, restricted to connected graphs."""
    out_dir = Path(out_dir)
    connected = [(p, r) for p, r in primed_reports if r.lambda1 > 0]
    if not connected:
        logger.warning("no connected graphs to plot; writing header-only data files")
    written = []

    path = out_dir / f"{prefix}plot_logN_lambda1.dat"
    with open(path, "w") as fh:
        fh.write("# log_N lambda1\n")
        for _, r in connected:
            fh.write(f"{_float(np.log(r.n_vertices))} {_float(r.lambda1)}\n")
    written.append(path)

    path = out_dir / f"{prefix}plot_p_lambda1.dat"
    with open(path, "w") as fh:
        fh.write("# p lambda1\n")
        for p, r in connected:
            fh.write(f"{p} {_float(r.lambda1)}\n")
    written.append(path)

    if len(connected) >= 3:
        fit = esperantist_fit([r for _, r in connected])
        path = out_dir / f"{prefix}esperantist.json"
        path.write_text(fit_to_json(fit))
        written.append(path)
    else:
        logger.warning("fewer than 3 connected graphs; skipping esperantist fit")
    return written


def _sweep_generators(genus: int, gens_choice: str, p: int) -> GeneratorSet:
    if gens_choice == "sl2" or (gens_choice == "standard" and genus == 1):
        return sl2_generators(p)
    return standard_symplectic_generators(genus, p)


def _task(name: str, fn: Callable[[], Any]) -> tuple[dict, Any]:
    """Run one unit of work; returns its manifest entry and fn's result,
    None if it failed.  A failure is recorded, never raised, so the run
    goes on and ends with a manifest."""
    try:
        result = fn()
    except Exception as exc:  # noqa: BLE001 - isolate the unit of work
        return {"name": name, "status": "failed", "error": f"{type(exc).__name__}: {exc}"}, None
    return {"name": name, "status": "ok"}, result


def _sweep(builder: Callable[[int], MultiGraph], params: dict, jobs: int | None, outdir: Path):
    """family_sweep over the config's primes: one task per prime, plus
    spectra.csv and the plot files for the primes that were solved."""
    primes = params["primes"]
    sweep = family_sweep(builder, primes, method=params["method"], jobs=jobs)
    tasks = []
    by_prime: dict[int, SpectralReport] = {}
    it = iter(sweep.reports)
    for p in primes:
        if p in sweep.errors:
            tasks.append({"name": f"p={p}", "status": "failed", "error": sweep.errors[p]})
        else:
            by_prime[p] = next(it)
            tasks.append({"name": f"p={p}", "status": "ok"})

    solved = [(p, by_prime[p]) for p in primes if p in by_prime]
    csv_path = outdir / "spectra.csv"
    write_reports_csv([r for _, r in solved], csv_path, include_seconds=False)
    return tasks, by_prime, [csv_path, *emit_plotdata(solved, outdir)]


def _run_cayley_sweep(params: dict, seed: int, jobs: int | None, outdir: Path):
    genus, primes = params["genus"], params["primes"]
    built: dict[int, MultiGraph] = {}

    def builder(p: int) -> MultiGraph:
        gens = _sweep_generators(genus, params["gens"], p)
        group = bfs_closure(gens, budget=params.get("budget"))
        built[p] = cayley_graph(group, gens, label=f"cayley_g{genus}_p{p}")
        return built[p]

    tasks, _, outputs = _sweep(builder, params, jobs, outdir)
    if params.get("dot"):
        for p in primes:
            graph = built.get(p)
            if graph is None:
                continue
            if graph.n_vertices <= 500:
                path = outdir / f"cayley_p{p}.dot"
                path.write_text(to_dot(graph))
                outputs.append(path)
            else:
                logger.warning("skipping DOT for p=%d: %d vertices > 500", p, graph.n_vertices)
    return tasks, outputs


def _run_schreier_sweep(params: dict, seed: int, jobs: int | None, outdir: Path):
    genus, primes = params["genus"], params["primes"]
    built: dict[int, MultiGraph] = {}

    def builder(p: int) -> MultiGraph:
        gens = _sweep_generators(genus, "standard", p)
        action = torsion_action(gens, label=f"torsion_g{genus}_p{p}")
        built[p] = schreier_graph(action)
        return built[p]

    tasks, by_prime, outputs = _sweep(builder, params, jobs, outdir)
    if not params["compare_cayley"]:
        return tasks, outputs

    def compare(p: int) -> list:
        gens = _sweep_generators(genus, "standard", p)
        group = bfs_closure(gens, budget=params.get("budget"))
        cay = cayley_graph(group, gens, label=f"cayley_g{genus}_p{p}")
        cay_report = lambda1(cay, method=params["method"])
        sch = by_prime[p]
        proj = torsion_projection(group)
        ok = quotient_check(cay, built[p], proj)
        return [
            p,
            sch.n_vertices,
            _float(sch.lambda1),
            _float(cay_report.lambda1),
            ok,
            sch.lambda1 >= cay_report.lambda1 - 1e-9,
        ]

    rows = []
    for i, p in enumerate(primes):
        if p in by_prime:
            # the comparison belongs to prime p's task: a failure marks it failed
            tasks[i], row = _task(f"p={p}", lambda: compare(p))
            if row is not None:
                rows.append(row)
    path = outdir / "comparison.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["p", "N_schreier", "lambda1_schreier", "lambda1_cayley", "quotient_ok", "gap_ok"]
        )
        writer.writerows(rows)
    outputs.append(path)
    return tasks, outputs


def _run_pointpush(params: dict, seed: int, jobs: int | None, outdir: Path):
    genus, primes = params["genus"], params["primes"]
    chain = build_chain(genus)
    words = point_pushing_generators(genus)
    mats = [braid_to_matrix(w, chain) for w in words]

    tasks = []
    prime_data = {}
    for p in primes:
        entry, report = _task(
            f"p={p}", lambda: congruence_report(mats, [p], budget=params.get("budget"))
        )
        tasks.append(entry)
        if report is not None:
            order, full_order = report.prime_orders[p]
            prime_data[str(p)] = {
                "order": order,
                "full_order": full_order,
                "surjective": report.surjective[p],
            }

    payload = {
        "genus": genus,
        "mod2_trivial": _trivial_mod(mats, 2),
        "mod4_trivial": _trivial_mod(mats, 4),
        "primes": prime_data,
    }
    outputs = []
    path = outdir / "congruence.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    outputs.append(path)
    path = outdir / "generators.json"
    path.write_text(
        json.dumps(catalog_json(mats, label=f"pointpush_g{genus}"), indent=2, sort_keys=True)
        + "\n"
    )
    outputs.append(path)
    return tasks, outputs


def _run_pra(params: dict, seed: int, jobs: int | None, outdir: Path):
    n, steps = params["arity"], params["steps"]

    def body() -> list[Path]:
        budget = resolve_budget(params.get("budget"))
        if _group_order_exceeds(params["group"], budget):
            raise BudgetExceeded(0, budget, f"group {params['group']}")
        gens = parse_group_spec(params["group"])
        group = bfs_closure(gens, budget=params.get("budget"))
        graph = pra_mod.pra_graph(group, n, budget=params.get("budget"))
        orbits = pra_mod._orbit_sizes(graph)
        lam = ""
        if graph.n_vertices >= 2 and graph.degree >= 1:
            lam = _float(lambda1(graph).lambda1)
        walk = pra_mod._walk(graph, steps, seed)
        path = outdir / "pra.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                ["group", "arity", "epi_count", "k", "orbit_sizes", "lambda1", "tv_checkpoints"]
            )
            writer.writerow(
                [
                    params["group"],
                    n,
                    graph.n_vertices,
                    graph.degree,
                    ";".join(str(s) for s in orbits),
                    lam,
                    ";".join(f"{t}:{_float(tv)}" for t, tv in walk.tv_checkpoints),
                ]
            )
        walk_path = outdir / "walk.json"
        walk_path.write_text(
            json.dumps(
                {
                    "group": params["group"],
                    "arity": n,
                    "steps": walk.steps,
                    "seed": walk.seed,
                    "start_index": walk.start_index,
                    "component_size": int(len(walk.component)),
                    "tv_distance": walk.tv_distance,
                    "tv_checkpoints": [[t, tv] for t, tv in walk.tv_checkpoints],
                },
                indent=2,
                sort_keys=True,
            )
            + "\n"
        )
        return [path, walk_path]

    entry, outputs = _task(f"pra({params['group']},n={n})", body)
    return [entry], outputs or []


def _run_origami_census(params: dict, seed: int, jobs: int | None, outdir: Path):
    d = params["degree"]
    cap = params.get("cap", origami_mod.DEFAULT_DEGREE_CAP)
    mu_filter = params.get("mu")
    image_order = params.get("image_order")

    def body() -> list[Path]:
        classes = origami_mod.census(d, mu=mu_filter, cap=cap)
        if image_order is not None:
            classes = [c for c in classes if c.image_order == image_order]
        mus = sorted({c.mu for c in classes}, reverse=True)
        comp_ids: dict[str, int] = {}
        graphs_by_mu = {}
        for mu in mus:
            graph = origami_mod.origami_graph(d, mu, image_order=image_order, cap=cap)
            graphs_by_mu[mu] = graph
            comps = components(graph)
            for cid, verts in enumerate(comps):
                for v in verts:
                    comp_ids[graph.vertex_labels[v]] = cid
        path = outdir / "census.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                ["d", "mu", "image_order", "orbit_size", "genus", "component_id", "representative"]
            )
            for c in classes:
                writer.writerow(
                    [
                        d,
                        ",".join(str(x) for x in c.mu),
                        c.image_order,
                        c.orbit_size,
                        c.genus,
                        comp_ids[c.rep.encode()],
                        c.rep.encode(),
                    ]
                )
        written = [path]
        if params.get("dot"):
            for mu, graph in graphs_by_mu.items():
                if 0 < graph.n_vertices <= 500:
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
    manifest.json in the output directory)."""
    outdir = Path(out_dir or config.output_dir or f"thinlab-{config.kind}")
    outdir.mkdir(parents=True, exist_ok=True)
    effective_seed = config.seed if seed is None else seed
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

    p_census = sub.add_parser("census", help="square-tiled surface census")
    p_census.add_argument("--degree", type=int, required=True)
    p_census.add_argument("--mu", type=str, default=None, help="partition, e.g. 2,2")
    p_census.add_argument("--image-order", type=int, default=None)
    p_census.add_argument("--out", type=str, default=None)
    p_census.add_argument("--dot", action="store_true")

    p_pra = sub.add_parser("pra", help="product replacement experiment")
    p_pra.add_argument("--group", type=str, required=True, help="S3, Z5, Z2xZ2, ...")
    p_pra.add_argument("--arity", type=int, required=True)
    p_pra.add_argument("--steps", type=int, required=True)
    p_pra.add_argument("--seed", type=int, default=0)
    p_pra.add_argument("--out", type=str, default=None)

    p_spec = sub.add_parser("spectra", help="lambda1 of a dumped graph")
    p_spec.add_argument("--graph", type=str, required=True, help="binary adjacency dump")
    p_spec.add_argument("--method", type=str, default="auto", choices=("auto", "dense", "iterative"))

    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )

    if args.command == "run":
        try:
            config = load_config(args.config)
        except ConfigError as exc:
            logger.error("config error: %s", exc)
            return 2
        manifest = run(config, out_dir=args.out, jobs=args.jobs, seed=args.seed)
        for t in manifest.tasks:
            status = t["status"]
            line = f"{t['name']}: {status}"
            if status != "ok":
                line += f" ({t.get('error', '')})"
            logger.info("%s", line)
        return 1 if manifest.failed else 0

    if args.command == "census":
        raw = {"kind": "origami-census", "degree": args.degree, "dot": bool(args.dot)}
        if args.mu:
            raw["mu"] = args.mu
        if args.image_order:
            raw["image_order"] = args.image_order
        try:
            config = validate_config(raw)
        except ConfigError as exc:
            logger.error("config error: %s", exc)
            return 2
        out = args.out or f"thinlab-census-d{args.degree}"
        manifest = run(config, out_dir=out)
        logger.info("census written to %s", out)
        return 1 if manifest.failed else 0

    if args.command == "pra":
        raw = {
            "kind": "pra",
            "group": args.group,
            "arity": args.arity,
            "steps": args.steps,
            "seed": args.seed,
        }
        try:
            config = validate_config(raw)
        except ConfigError as exc:
            logger.error("config error: %s", exc)
            return 2
        out = args.out or f"thinlab-pra-{args.group}-n{args.arity}"
        manifest = run(config, out_dir=out)
        logger.info("pra outputs written to %s", out)
        return 1 if manifest.failed else 0

    if args.command == "spectra":
        try:
            graph = load_graph(args.graph, label=Path(args.graph).stem)
            report = lambda1(graph, method=args.method)
        except Exception as exc:  # noqa: BLE001
            logger.error("spectra failed: %s: %s", type(exc).__name__, exc)
            return 1
        writer = csv.writer(sys.stdout)
        writer.writerow(CSV_FIELDS)
        writer.writerow(report.csv_row())
        return 0

    return 2


if __name__ == "__main__":
    raise SystemExit(main())
