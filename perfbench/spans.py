"""Spans recorded from outside thinlab, and the per-layer metrics they give.

``install`` replaces thinlab's public functions with timing wrappers in the
namespaces the batch harness calls them through: the names ``thinlab.cli``
imports, the names ``spectra.family_sweep`` and ``spectra.lambda1`` use, and
the defining module (for the calls the benchmark makes itself).  Calls a
library module makes through its own private imports are not wrapped.

Spans are kept in memory and written once, when the repetition ends.  The
stack of open spans is shared by all threads: the benchmark runs with
``jobs=1``, so ``family_sweep``'s single worker thread and the main thread
never record spans at the same time.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from collections import defaultdict

# (defining module, public function, counter).  A counter turns the call's
# arguments and result into the span's deterministic counts.
WRAPPED = (
    ("groups", "bfs_closure", lambda a, kw, out: {"elements": out.order}),
    ("monodromy", "braid_to_matrix", None),
    ("graphs", "cayley_graph", lambda a, kw, out: {"edges": out.n_edges}),
    ("graphs", "components", None),
    ("graphs", "torsion_action", None),
    ("graphs", "schreier_graph", None),
    ("graphs", "torsion_projection", None),
    ("graphs", "quotient_check", None),
    ("graphs", "save_graph", lambda a, kw, out: {"bytes": os.path.getsize(a[1])}),
    ("graphs", "load_graph", None),
    (
        "spectra",
        "lambda1",
        lambda a, kw, out: {
            "vertices": out.n_vertices,
            "solver": out.solver,
            "residual": out.residual,
        },
    ),
    ("spectra", "family_sweep", None),
    ("spectra", "write_reports_csv", None),
    ("spectra", "esperantist_fit", None),
    (
        "pra",
        "pra_graph",
        lambda a, kw, out: {"epi": out.n_vertices, "tuples": a[0].order ** a[1]},
    ),
    ("pra", "transitivity_report", None),
    ("pra", "pra_walk", lambda a, kw, out: {"steps": out.steps}),
    ("origami", "census", lambda a, kw, out: {"classes": len(out)}),
    ("origami", "origami_graph", lambda a, kw, out: {"vertices": out.n_vertices}),
    ("cli", "run", None),
)


class Tracer:
    """In-memory span recorder for one repetition."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, counter=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {
                "id": len(self.spans),
                "name": name,
                "parent": self._stack[-1] if self._stack else None,
                "run": self.run_id,
                "start": time.perf_counter(),
                "end": None,
            }
            self.spans.append(span)
            self._stack.append(span["id"])
            try:
                out = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                span.update(counter(args, kwargs, out))
            return out

        return traced

    def install(self) -> None:
        """Wrap every function in WRAPPED wherever the harness looks it up."""
        cli = importlib.import_module("thinlab.cli")
        spectra = importlib.import_module("thinlab.spectra")
        for module_name, attr, counter in WRAPPED:
            home = importlib.import_module(f"thinlab.{module_name}")
            original = getattr(home, attr)
            wrapped = self.wrap(f"{module_name}.{attr}", original, counter)
            for namespace in {id(m): m for m in (home, cli, spectra)}.values():
                if getattr(namespace, attr, None) is original:
                    setattr(namespace, attr, wrapped)

    def add_counts(self, name: str, **counts) -> None:
        """Attach counts to the most recent finished span called ``name``."""
        for span in reversed(self.spans):
            if span["name"] == name:
                span.update(counts)
                return
        raise KeyError(name)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, sort_keys=True) + "\n")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _dur(span: dict) -> float:
    return span["end"] - span["start"]


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer totals of one repetition, keyed by per-layer metric name.

    A layer that the workload never calls reports 0.
    """
    by_name: dict[str, list[dict]] = defaultdict(list)
    covered: dict[int, float] = defaultdict(float)
    for s in spans:
        by_name[s["name"]].append(s)
        if s["parent"] is not None:
            covered[s["parent"]] += _dur(s)

    def total(name: str) -> float:
        return sum((_dur(s) for s in by_name[name]), 0.0)

    def self_time(name: str) -> float:
        return sum((_dur(s) - covered[s["id"]] for s in by_name[name]), 0.0)

    def count(name: str, key: str) -> int:
        return sum(s.get(key, 0) for s in by_name[name])

    lam = by_name["spectra.lambda1"]
    epi, tuples = count("pra.pra_graph", "epi"), count("pra.pra_graph", "tuples")
    return {
        "groups.bfs_closure.s": total("groups.bfs_closure"),
        "groups.bfs_closure.calls": len(by_name["groups.bfs_closure"]),
        "groups.bfs_closure.elements": count("groups.bfs_closure", "elements"),
        "groups.bfs_closure.elements_per_s": _ratio(
            count("groups.bfs_closure", "elements"), total("groups.bfs_closure")
        ),
        "monodromy.braid_to_matrix.s": total("monodromy.braid_to_matrix"),
        "graphs.cayley_graph.s": total("graphs.cayley_graph"),
        "graphs.cayley_graph.edges": count("graphs.cayley_graph", "edges"),
        "graphs.components.s": total("graphs.components"),
        "graphs.torsion_action.s": total("graphs.torsion_action"),
        "graphs.schreier_graph.s": total("graphs.schreier_graph"),
        "graphs.torsion_projection.s": total("graphs.torsion_projection"),
        "graphs.quotient_check.s": total("graphs.quotient_check"),
        "graphs.save_graph.s": total("graphs.save_graph"),
        "graphs.save_graph.bytes": count("graphs.save_graph", "bytes"),
        "graphs.load_graph.s": total("graphs.load_graph"),
        "spectra.lambda1.s": total("spectra.lambda1"),
        "spectra.lambda1.calls": len(lam),
        "spectra.lambda1.vertices": count("spectra.lambda1", "vertices"),
        "spectra.lambda1.dense_s": sum((_dur(s) for s in lam if s.get("solver") == "dense"), 0.0),
        "spectra.lambda1.iterative_s": sum(
            (_dur(s) for s in lam if s.get("solver") == "iterative"), 0.0
        ),
        "spectra.lambda1.max_s": max((_dur(s) for s in lam), default=0.0),
        "spectra.lambda1.max_residual": max((s.get("residual", 0.0) for s in lam), default=0.0),
        "spectra.family_sweep.self_s": self_time("spectra.family_sweep"),
        "spectra.write_reports_csv.s": total("spectra.write_reports_csv"),
        "spectra.esperantist_fit.s": total("spectra.esperantist_fit"),
        "pra.pra_graph.s": total("pra.pra_graph"),
        "pra.transitivity_report.s": total("pra.transitivity_report"),
        "pra.pra_walk.s": total("pra.pra_walk"),
        "pra.epi_count": epi,
        "pra.epi_yield": _ratio(epi, tuples),
        "pra.walk_steps_per_s": _ratio(count("pra.pra_walk", "steps"), total("pra.pra_walk")),
        "origami.census.s": total("origami.census"),
        "origami.census.classes": count("origami.census", "classes"),
        "origami.origami_graph.s": total("origami.origami_graph"),
        "origami.origami_graph.vertices": count("origami.origami_graph", "vertices"),
        "cli.run.s": total("cli.run"),
        "cli.run.self_s": self_time("cli.run"),
        "cli.outputs.bytes": count("cli.run", "output_bytes"),
    }
