import csv
import json
import logging
import re
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thinlab import cli as cli_mod
from thinlab import pra as pra_mod
from thinlab.cli import (
    ConfigError,
    emit_plotdata,
    load_config,
    main,
    parse_group_spec,
    parse_mu,
    run,
    validate_config,
)
from thinlab.graphs import MultiGraph, _all_nonzero_vectors, _vector_codes, cayley_graph, from_edges, save_graph, to_dot
from thinlab.groups import BUDGET_ENV_VAR, BudgetExceeded, bfs_closure, sl2_generators
from thinlab import spectra as spectra_mod
from thinlab.spectra import DENSE_CUTOFF, family_sweep, lambda1

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
README = Path(__file__).resolve().parent.parent / "README.md"


VALID_CONFIGS = {
    "cayley-sweep": {"kind": "cayley-sweep", "genus": 1, "primes": [3]},
    "schreier-sweep": {"kind": "schreier-sweep", "genus": 1, "primes": [3]},
    "pointpush": {"kind": "pointpush", "genus": 1, "primes": [3]},
    "pra": {"kind": "pra", "group": "S3", "arity": 2, "steps": 10},
    "origami-census": {"kind": "origami-census", "degree": 4},
}

JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=20),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=8,
)


def sl2_graph(p):
    gens = sl2_generators(p)
    return cayley_graph(bfs_closure(gens), gens, label=f"cayley_g1_p{p}")


def read_csv(path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


class TestConfigValidation:
    def test_shipped_configs_parse(self):
        for path in CONFIG_DIR.glob("*.json"):
            config = load_config(path)
            assert config.kind in (
                "cayley-sweep",
                "schreier-sweep",
                "pointpush",
                "pra",
                "origami-census",
            )

    def test_readme_config_table_is_the_schema(self):
        # rows "| `kind` | `key` | default |", the kind cell empty after its first row
        documented: dict[str, dict[str, str]] = {}
        for kind, key, default in re.findall(
            r"^\| (?:`([a-z-]+)`)? ?\| `(\w+)` \| (.+) \|$", README.read_text(), re.M
        ):
            documented.setdefault(kind or list(documented)[-1], {})[key] = default
        def rendered(default) -> str:
            if default is cli_mod._REQUIRED_KEY:
                return "required"
            if default is None:
                return "none"
            if isinstance(default, bool):
                return f"`{str(default).lower()}`"
            return f'`"{default}"`' if isinstance(default, str) else str(default)

        assert list(documented) == list(cli_mod._SCHEMA)
        for kind, schema in cli_mod._SCHEMA.items():
            assert list(documented[kind]) == list(schema), kind
            for key, (_, default) in schema.items():
                # a string default's cell goes on to list the other choices
                assert documented[kind][key].startswith(rendered(default)), (kind, key)

    def test_missing_primes(self, tmp_path):
        path = write_config(tmp_path, {"kind": "cayley-sweep", "genus": 1})
        with pytest.raises(ConfigError, match="primes"):
            load_config(path)

    def test_unknown_key_rejected(self, tmp_path):
        path = write_config(
            tmp_path, {"kind": "pra", "group": "S3", "arity": 2, "steps": 10, "bogus": 1}
        )
        with pytest.raises(ConfigError, match="bogus"):
            load_config(path)

    def test_non_prime_rejected(self):
        with pytest.raises(ConfigError, match="not prime"):
            validate_config({"kind": "pointpush", "genus": 1, "primes": [4]})

    def test_prime_above_modulus_limit_rejected_at_once(self):
        # trial division of 2^61 - 1 would run for minutes
        start = time.perf_counter()
        with pytest.raises(ConfigError, match="modulus limit"):
            validate_config({"kind": "cayley-sweep", "genus": 1, "primes": [2**61 - 1]})
        assert time.perf_counter() - start < 1.0

    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_random_values_raise_only_config_error(self, data):
        kind = data.draw(st.sampled_from(sorted(VALID_CONFIGS)))
        raw = dict(VALID_CONFIGS[kind])
        keys = cli_mod._SCHEMA[kind].keys() | cli_mod._COMMON_KEYS
        key = data.draw(st.sampled_from(sorted(keys)))
        raw[key] = data.draw(JSON_VALUES)
        try:
            validate_config(raw)
        except ConfigError:
            pass

    def test_repeated_primes_rejected(self):
        with pytest.raises(ConfigError, match="repeat"):
            validate_config({"kind": "cayley-sweep", "genus": 1, "primes": [3, 3]})

    @pytest.mark.parametrize("spec", ["Z0", "S0", "Z2xZ0"])
    def test_zero_size_group_rejected(self, spec):
        with pytest.raises(ConfigError, match="positive"):
            validate_config({"kind": "pra", "group": spec, "arity": 2, "steps": 1})

    def test_group_size_beyond_int_parsing_rejected(self):
        with pytest.raises(ConfigError, match="too large") as exc_info:
            validate_config({"kind": "pra", "group": "Z" + "9" * 5000, "arity": 2, "steps": 1})
        assert len(str(exc_info.value)) < 200

    @pytest.mark.parametrize(
        "raw",
        [
            {"kind": "k" * 5000},
            {"kind": "pra", "group": "Q" * 5000, "arity": 2, "steps": 1},
            {"kind": "pra", "group": "S3", "arity": "9" * 5000, "steps": 1},
            {"kind": "cayley-sweep", "genus": 1, "primes": ["x" * 5000]},
            {"kind": "cayley-sweep", "genus": 1, "primes": [3] * 5000},
            {"kind": "cayley-sweep", "genus": 1, "primes": [3], "gens": "m" * 5000},
            {"kind": "origami-census", "degree": 3, "mu": "1," * 5000 + "1"},
            {"kind": "pra", "group": "S3", "arity": 2, "steps": 1, "k" * 5000: 1},
        ],
    )
    def test_echoed_values_are_shortened(self, raw):
        with pytest.raises(ConfigError) as exc_info:
            validate_config(raw)
        assert len(str(exc_info.value)) < 200

    def test_validation_builds_no_generators(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("generators built during validation")

        for name in ("parse_group_spec", "cyclic_generators", "symmetric_generators",
                     "direct_product_of_cyclic"):
            monkeypatch.setattr(cli_mod, name, refuse)
        for spec in ("Z" + "9" * 30, "S" + "9" * 30, "Z2xZ" + "9" * 30):
            validate_config({"kind": "pra", "group": spec, "arity": 2, "steps": 1})

    def test_bad_json_reports_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"kind": "pra",\n  oops\n}')
        with pytest.raises(ConfigError, match="line 2"):
            load_config(path)

    def test_oversized_integer_literal_rejected(self, tmp_path):
        path = tmp_path / "big.json"
        path.write_text('{"kind": "pra", "group": "S3", "arity": ' + "9" * 5000 + ', "steps": 1}')
        with pytest.raises(ConfigError, match="digits"):
            load_config(path)

    def test_sl2_gens_rejected(self, tmp_path):
        # genus 1 "standard" is the sl2 pair; the choices are named
        for genus in (1, 2):
            raw = {"kind": "cayley-sweep", "genus": genus, "primes": [3], "gens": "sl2"}
            with pytest.raises(ConfigError, match=r"\('standard', 'chain'\), got 'sl2'"):
                validate_config(raw)
            path = write_config(tmp_path, raw)
            assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
        assert not (tmp_path / "out").exists()

    def test_seed_must_fit_64_bits(self):
        with pytest.raises(ConfigError, match="seed"):
            validate_config(
                {"kind": "pra", "group": "S3", "arity": 2, "steps": 1, "seed": 2**70}
            )

    def test_negative_seed_rejected(self):
        # numpy's default_rng, which seeds the PRA walk, refuses negative seeds
        with pytest.raises(ConfigError, match="seed"):
            validate_config({"kind": "pra", "group": "S3", "arity": 2, "steps": 1, "seed": -1})

    def test_mu_must_partition_degree(self):
        with pytest.raises(ConfigError, match="mu"):
            validate_config({"kind": "origami-census", "degree": 4, "mu": "3"})

    def test_parse_mu(self):
        assert parse_mu("2,2") == (2, 2)
        assert parse_mu("(3,1)") == (3, 1)
        assert parse_mu("1,3") == (3, 1)
        with pytest.raises(ConfigError):
            parse_mu("x")

    def test_parse_group_spec(self):
        assert bfs_closure(parse_group_spec("S3")).order == 6
        assert bfs_closure(parse_group_spec("Z5")).order == 5
        assert bfs_closure(parse_group_spec("Z2xZ2")).order == 4
        assert bfs_closure(parse_group_spec("Z2xZ3")).order == 6
        with pytest.raises(ConfigError):
            parse_group_spec("E8")


class TestRun:
    def test_cayley_sweep_small(self, tmp_path):
        config = validate_config(
            {"kind": "cayley-sweep", "genus": 1, "primes": [3, 5, 7], "seed": 0}
        )
        manifest = run(config, out_dir=tmp_path / "out")
        assert not manifest.failed
        rows = read_csv(tmp_path / "out" / "spectra.csv")
        assert len(rows) == 3
        assert all(r["zero_mult"] == "1" for r in rows)
        assert all(float(r["lambda1"]) > 0 for r in rows)
        for name in manifest.outputs:
            assert (tmp_path / "out" / name).exists()
        assert (tmp_path / "out" / "manifest.json").exists()

    def test_determinism_byte_identical(self, tmp_path):
        config = load_config(CONFIG_DIR / "pra_v4.json")
        run(config, out_dir=tmp_path / "a")
        run(config, out_dir=tmp_path / "b")
        names_a = sorted(p.name for p in (tmp_path / "a").iterdir())
        names_b = sorted(p.name for p in (tmp_path / "b").iterdir())
        assert names_a == names_b
        for name in names_a:
            if name == "manifest.json":
                continue  # carries wall-clock timestamps by design
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes(), name

    def test_cayley_sweep_determinism(self, tmp_path):
        config = validate_config(
            {"kind": "cayley-sweep", "genus": 1, "primes": [3, 5, 7, 11], "seed": 0}
        )
        run(config, out_dir=tmp_path / "a", jobs=2)
        run(config, out_dir=tmp_path / "b", jobs=1)
        for name in ("spectra.csv", "plot_logN_lambda1.dat", "plot_p_lambda1.dat", "esperantist.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes(), name

    def test_cayley_sweep_dot_files(self, tmp_path, caplog):
        config = validate_config(
            {"kind": "cayley-sweep", "genus": 1, "primes": [3, 5, 7, 11], "dot": True}
        )
        with caplog.at_level(logging.WARNING, logger="thinlab"):
            manifest = run(config, out_dir=tmp_path / "out", jobs=1)
        assert not manifest.failed
        for p in (3, 5, 7):  # N = 24, 120, 336
            assert (tmp_path / "out" / f"cayley_p{p}.dot").read_text() == to_dot(sl2_graph(p))
        assert [n for n in manifest.outputs if n.endswith(".dot")] == [
            "cayley_p3.dot",
            "cayley_p5.dot",
            "cayley_p7.dot",
        ]
        assert not (tmp_path / "out" / "cayley_p11.dot").exists()
        assert "skipping DOT for p=11: 1320 vertices > 500" in caplog.text

    def test_pointpush_run(self, tmp_path):
        config = load_config(CONFIG_DIR / "pointpush_g1.json")
        manifest = run(config, out_dir=tmp_path / "out")
        assert not manifest.failed
        payload = json.loads((tmp_path / "out" / "congruence.json").read_text())
        assert payload["mod2_trivial"] is True
        assert payload["mod4_trivial"] is False
        assert payload["primes"]["3"]["surjective"] is True
        assert payload["primes"]["3"]["order"] == 24
        catalog = json.loads((tmp_path / "out" / "generators.json").read_text())
        assert catalog["dimension"] == 2 and len(catalog["matrices"]) == 2

    def test_pointpush_budget_fails_its_task(self, tmp_path, monkeypatch):
        # SL2(F3) fits 100 orbit and Schreier products; SL2(F67) does not
        monkeypatch.setenv(BUDGET_ENV_VAR, "100")
        payload = {"kind": "pointpush", "genus": 1, "primes": [3, 67]}
        out = tmp_path / "out"
        assert main(["run", str(write_config(tmp_path, payload)), "--out", str(out)]) == 1
        ok, failed = json.loads((out / "manifest.json").read_text())["tasks"]
        assert (ok["name"], ok["status"]) == ("p=3", "ok")
        assert (failed["name"], failed["status"]) == ("p=67", "failed")
        assert failed["error"].startswith("BudgetExceeded: matrix_group_order: ")
        assert failed["error"].endswith(" over the limit of 100")
        primes = json.loads((out / "congruence.json").read_text())["primes"]
        assert list(primes) == ["3"] and primes["3"]["order"] == 24

    def test_origami_census_run(self, tmp_path):
        config = validate_config({"kind": "origami-census", "degree": 3})
        manifest = run(config, out_dir=tmp_path / "out")
        assert not manifest.failed
        rows = read_csv(tmp_path / "out" / "census.csv")
        assert len(rows) == 7  # census(3) classes
        assert {r["mu"] for r in rows} == {"1,1,1", "3"}
        assert all(r["component_id"] != "" for r in rows)

    def test_schreier_sweep_with_comparison(self, tmp_path):
        config = validate_config(
            {
                "kind": "schreier-sweep",
                "genus": 1,
                "primes": [3, 5, 7],
                "compare_cayley": True,
            }
        )
        manifest = run(config, out_dir=tmp_path / "out")
        assert not manifest.failed
        rows = read_csv(tmp_path / "out" / "comparison.csv")
        assert len(rows) == 3
        assert all(r["quotient_ok"] == "True" for r in rows)
        assert all(r["gap_ok"] == "True" for r in rows)
        spectra_rows = read_csv(tmp_path / "out" / "spectra.csv")
        assert [int(r["N"]) for r in spectra_rows] == [8, 24, 48]

    def test_pra_run_enumerates_epi_once(self, tmp_path, monkeypatch):
        # the move graph scans Epi through the array routine, not enumerate_epi
        calls = []
        original = pra_mod._epi_codes

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(pra_mod, "_epi_codes", counting)
        config = validate_config({"kind": "pra", "group": "S3", "arity": 2, "steps": 100})
        manifest = run(config, out_dir=tmp_path / "out")
        assert not manifest.failed
        assert len(calls) == 1

    def test_pra_run_searches_components_once(self, tmp_path, monkeypatch):
        # lambda1 runs its own search; the orbit sizes and the walk share one
        calls = []
        original = cli_mod.components

        def counting(graph):
            calls.append(graph.n_vertices)
            return original(graph)

        monkeypatch.setattr(cli_mod, "components", counting)
        config = validate_config({"kind": "pra", "group": "S3", "arity": 2, "steps": 100})
        manifest = run(config, out_dir=tmp_path / "out")
        assert not manifest.failed
        assert len(calls) == 1

    def test_pra_run_builds_one_adjacency(self, tmp_path, monkeypatch):
        # the solve's sparse A is the only one: the orbit sizes and the
        # walk's component come from its search on the neighbor table
        calls = []
        original = MultiGraph.adjacency

        def counting(graph):
            calls.append(graph.n_vertices)
            return original(graph)

        monkeypatch.setattr(MultiGraph, "adjacency", counting)
        config = validate_config({"kind": "pra", "group": "S3", "arity": 2, "steps": 100})
        manifest = run(config, out_dir=tmp_path / "out")
        assert not manifest.failed
        assert len(calls) == 1

    def test_schreier_sweep_certifies_on_the_blocks(self, tmp_path, monkeypatch):
        # the torsion graphs and the Cayley graphs they are compared with
        # carry a symmetry that lambda1 verifies, so no dense solve falls to
        # the one N x N block (h = 1)
        hs = []
        certificate = spectra_mod._blocks_cholesky

        def on_blocks(graph, orbits, shift):
            hs.append(orbits[3])
            return certificate(graph, orbits, shift)

        monkeypatch.setattr(spectra_mod, "_blocks_cholesky", on_blocks)
        config = validate_config(
            {"kind": "schreier-sweep", "genus": 1, "primes": [5, 7, 31], "compare_cayley": True}
        )
        manifest = run(config, out_dir=tmp_path / "out", jobs=1)
        assert not manifest.failed, manifest.tasks
        # three torsion graphs and SL2(F5), SL2(F7); SL2(F31) is iterative
        assert len(hs) == 5 and min(hs) > 1

    def test_genus_2_sweep_certifies_on_the_blocks(self, tmp_path, monkeypatch):
        # Sp4(F_p) on the 80 and 624 nonzero vectors of F_p^4: a primitive
        # root's scalar multiplication has orbits of p - 1 vectors
        hs = []
        certificate = spectra_mod._blocks_cholesky

        def on_blocks(graph, orbits, shift):
            hs.append(orbits[3])
            return certificate(graph, orbits, shift)

        monkeypatch.setattr(spectra_mod, "_blocks_cholesky", on_blocks)
        config = validate_config({"kind": "schreier-sweep", "genus": 2, "primes": [3, 5]})
        manifest = run(config, out_dir=tmp_path / "out", jobs=1)
        assert not manifest.failed, manifest.tasks
        assert hs == [2, 4]

    def test_only_the_dense_certificate_builds_the_torsion_symmetry(self, tmp_path, monkeypatch):
        # the sweep names sigma by one vertex, r e_1 for the least primitive
        # root r = 2 mod 11; an iterative solve never builds sigma, a dense
        # one builds it as scalar multiplication by r (N = 120)
        built = []
        symmetry = spectra_mod._symmetry

        def recorded(graph):
            built.append((graph.symmetry, symmetry(graph)))
            return built[-1][1]

        monkeypatch.setattr(spectra_mod, "_symmetry", recorded)
        config = validate_config({"kind": "schreier-sweep", "genus": 1, "primes": [11]})
        for cutoff in (100, DENSE_CUTOFF):
            monkeypatch.setattr(spectra_mod, "DENSE_CUTOFF", cutoff)
            assert not run(config, out_dir=tmp_path / str(cutoff), jobs=1).failed
        [(start, sigma)] = built
        assert start == 2 - 1  # the base-11 code of 2 e_1, less one
        assert np.array_equal(sigma, _vector_codes(2 * _all_nonzero_vectors(2, 11) % 11, 11) - 1)

    def test_chain_generators_at_genus_1(self, tmp_path):
        # the three chain transvections generate SL2(F_p): k = 6
        config = validate_config(
            {"kind": "cayley-sweep", "genus": 1, "primes": [3, 5], "gens": "chain"}
        )
        manifest = run(config, out_dir=tmp_path / "out", jobs=1)
        assert not manifest.failed
        rows = read_csv(tmp_path / "out" / "spectra.csv")
        assert [(int(r["k"]), int(r["N"])) for r in rows] == [(6, 24), (6, 120)]

    def test_sweep_solver_follows_dense_cutoff(self, tmp_path, monkeypatch):
        # N = 120 and 336: a cutoff of 100 keeps both off the dense path
        reports = {}
        raw = {"kind": "cayley-sweep", "genus": 1, "primes": [5, 7]}
        for cutoff in (DENSE_CUTOFF, 100):
            monkeypatch.setattr(spectra_mod, "DENSE_CUTOFF", cutoff)
            manifest = run(validate_config(raw), out_dir=tmp_path / str(cutoff), jobs=1)
            assert not manifest.failed
            reports[cutoff] = read_csv(tmp_path / str(cutoff) / "spectra.csv")
        assert {r["solver"] for r in reports[DENSE_CUTOFF]} == {"dense"}
        assert {r["solver"] for r in reports[100]} == {"iterative"}
        for dense, iterative in zip(reports[DENSE_CUTOFF], reports[100]):
            assert abs(float(dense["lambda1"]) - float(iterative["lambda1"])) < 1e-8

    @pytest.mark.parametrize("kind", ["cayley-sweep", "schreier-sweep"])
    def test_method_key_rejected(self, tmp_path, kind):
        # the graph's size alone picks the solver, so a config cannot force
        # the dense path (43 GB for SL2(F47)) onto a large graph
        raw = {"kind": kind, "genus": 1, "primes": [47], "method": "dense"}
        with pytest.raises(ConfigError, match="method"):
            validate_config(raw)
        out = tmp_path / "out"
        assert main(["run", str(write_config(tmp_path, raw)), "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize(
        "kind,key",
        [
            ("cayley-sweep", "budget"),
            ("schreier-sweep", "budget"),
            ("pointpush", "budget"),
            ("pra", "budget"),
            ("origami-census", "cap"),
        ],
    )
    def test_limit_key_rejected(self, tmp_path, kind, key):
        # THINLAB_BUDGET is the one budget setting and the census degree cap
        # a constant, so a config can raise neither (a cap of 9 would start
        # a d = 9 census that no budget sizes)
        raw = {**VALID_CONFIGS[kind], key: 9}
        with pytest.raises(ConfigError, match=f"'{key}'"):
            validate_config(raw)
        out = tmp_path / "out"
        assert main(["run", str(write_config(tmp_path, raw)), "--out", str(out)]) == 2
        assert not out.exists()

    def test_schema_sets_no_limit(self):
        assert sum(len(keys) for keys in cli_mod._SCHEMA.values()) == 16
        assert not {"budget", "cap"} & set().union(*cli_mod._SCHEMA.values())

    @pytest.mark.parametrize("genus", [40, 10**6])
    def test_pointpush_refuses_unkeyable_primes_before_building(
        self, tmp_path, monkeypatch, genus
    ):
        # 3^(2g) vector keys overflow int64: refused in closed form, before
        # the chain and its matrices are built
        def refuse(*args):
            raise AssertionError("chain built for a genus no prime can decide")

        monkeypatch.setattr(cli_mod, "build_chain", refuse)
        payload = {"kind": "pointpush", "genus": genus, "primes": [3, 5]}
        out = tmp_path / "out"
        began = time.perf_counter()
        assert main(["run", str(write_config(tmp_path, payload)), "--out", str(out)]) == 1
        assert time.perf_counter() - began < 2.0
        assert sorted(p.name for p in out.iterdir()) == ["manifest.json"]
        tasks = json.loads((out / "manifest.json").read_text())["tasks"]
        assert tasks == [
            {
                "name": f"p={p}",
                "status": "failed",
                "error": f"BudgetExceeded: matrix_group_order: {p}^{2 * genus} vector keys "
                "over the limit of 9223372036854775807",
            }
            for p in (3, 5)
        ]

    def test_pointpush_keeps_prime_order_around_a_refused_prime(self, tmp_path):
        # 1048573^4 vector keys overflow int64 at genus 2; p = 3 still runs
        payload = {"kind": "pointpush", "genus": 2, "primes": [1048573, 3]}
        manifest = run(validate_config(payload), out_dir=tmp_path / "out")
        refused, ok = manifest.tasks
        assert refused["name"] == "p=1048573" and "1048573^4 vector keys" in refused["error"]
        assert ok == {"name": "p=3", "status": "ok"}
        primes = json.loads((tmp_path / "out" / "congruence.json").read_text())["primes"]
        assert list(primes) == ["3"] and primes["3"]["surjective"] is True

    def test_task_failure_recorded(self, tmp_path, monkeypatch):
        monkeypatch.setenv(BUDGET_ENV_VAR, "30")
        config = validate_config({"kind": "cayley-sweep", "genus": 1, "primes": [3, 11]})
        manifest = run(config, out_dir=tmp_path / "out")
        assert manifest.failed
        statuses = {t["name"]: t["status"] for t in manifest.tasks}
        assert statuses == {"p=3": "ok", "p=11": "failed"}


class TestSweepGroupOrder:
    # (genus, p, gens): SL2(F_p) at genus 1, Sp_2g(F_p) at odd p, S_(2g+2) at p = 2
    CASES = [
        (1, 2, "standard"),
        (1, 3, "chain"),
        (1, 5, "standard"),
        (2, 2, "standard"),
        (2, 3, "standard"),
        (3, 2, "chain"),
    ]

    @pytest.mark.parametrize("genus,p,gens", CASES)
    def test_refuses_exactly_where_bfs_closure_would(self, monkeypatch, genus, p, gens):
        order = bfs_closure(cli_mod._sweep_generators(genus, gens, p)).order
        monkeypatch.setenv(BUDGET_ENV_VAR, str(order))
        _, group = cli_mod._sweep_group(genus, gens, p)
        assert group.order == order
        with pytest.raises(BudgetExceeded):
            bfs_closure(cli_mod._sweep_generators(genus, gens, p), budget=order - 1)

        def refuse(*args):
            raise AssertionError("generators built for a group above the budget")

        monkeypatch.setattr(cli_mod, "_sweep_generators", refuse)
        monkeypatch.setenv(BUDGET_ENV_VAR, str(order - 1))
        with pytest.raises(BudgetExceeded, match=f"over the limit of {order - 1}$"):
            cli_mod._sweep_group(genus, gens, p)

    @pytest.mark.parametrize(
        "genus,p,name",
        [(10, 3, "Sp20(F3)"), (10, 2, "S22"), (10**6, 5, "Sp2000000(F5)")],
    )
    def test_huge_genus_fails_before_building(self, tmp_path, monkeypatch, genus, p, name):
        def refuse(*args):
            raise AssertionError("generators built for a group above the budget")

        monkeypatch.setattr(cli_mod, "_sweep_generators", refuse)
        payload = {"kind": "cayley-sweep", "genus": genus, "primes": [p]}
        out = tmp_path / "out"
        began = time.perf_counter()
        assert main(["run", str(write_config(tmp_path, payload)), "--out", str(out)]) == 1
        assert time.perf_counter() - began < 4.0
        (task,) = json.loads((out / "manifest.json").read_text())["tasks"]
        assert task["error"] == f"BudgetExceeded: {name}: elements over the limit of 2000000"

    def test_comparison_refused_in_closed_form(self, tmp_path, monkeypatch):
        # the torsion graphs fit 30 states; SL2(F5), with 120 elements, does not
        monkeypatch.setenv(BUDGET_ENV_VAR, "30")
        raw = {"kind": "schreier-sweep", "genus": 1, "primes": [3, 5], "compare_cayley": True}
        manifest = run(validate_config(raw), out_dir=tmp_path / "out", jobs=1)
        ok, failed = manifest.tasks
        assert ok == {"name": "p=3", "status": "ok"}
        assert failed["error"] == "BudgetExceeded: SL2(F5): elements over the limit of 30"


class TestEmitPlotdata:
    def test_rows_written(self, tmp_path):
        gens = sl2_generators(5)
        graph = cayley_graph(bfs_closure(gens), gens)
        reports = [(p, lambda1(graph)) for p in (3, 5, 7)]
        paths = emit_plotdata(reports, tmp_path)
        logn = (tmp_path / "plot_logN_lambda1.dat").read_text().strip().split("\n")
        assert logn[0].startswith("#") and len(logn) == 4
        assert any(p.name == "esperantist.json" for p in paths)

    def test_disconnected_report_left_out(self, tmp_path):
        # two disjoint 40-cycles: eigh rounds their second zero eigenvalue to +2.6e-17
        edges = [(i, (i + 1) % 40) for i in range(40)]
        disconnected = from_edges(80, edges + [(40 + u, 40 + v) for u, v in edges])
        reports = [(p, lambda1(sl2_graph(p))) for p in (3, 5, 7)]
        reports.append((11, lambda1(disconnected)))
        emit_plotdata(reports, tmp_path)
        rows = (tmp_path / "plot_p_lambda1.dat").read_text().splitlines()[1:]
        assert [row.split()[0] for row in rows] == ["3", "5", "7"]
        assert len((tmp_path / "plot_logN_lambda1.dat").read_text().splitlines()) == 4
        fit = json.loads((tmp_path / "esperantist.json").read_text())
        assert [n for n, _ in fit["points"]] == [24, 120, 336]

    def test_empty_writes_headers(self, tmp_path, caplog):
        import logging

        with caplog.at_level(logging.WARNING, logger="thinlab"):
            emit_plotdata([], tmp_path)
        text = (tmp_path / "plot_p_lambda1.dat").read_text()
        assert text == "# p lambda1\n"
        assert "no connected graphs" in caplog.text


class TestMainExitCodes:
    def test_bad_config_exits_2(self, tmp_path):
        path = write_config(tmp_path, {"kind": "cayley-sweep", "genus": 1})
        assert main(["run", str(path)]) == 2
        # no partial outputs
        assert not (tmp_path / "thinlab-cayley-sweep").exists()

    def test_missing_file_exits_2(self):
        assert main(["run", "/nonexistent/config.json"]) == 2

    def test_ok_run_exits_0(self, tmp_path):
        path = write_config(
            tmp_path, {"kind": "pra", "group": "Z2xZ2", "arity": 2, "steps": 100}
        )
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 0

    def test_task_failure_exits_1(self, tmp_path, monkeypatch):
        monkeypatch.setenv(BUDGET_ENV_VAR, "30")
        path = write_config(tmp_path, {"kind": "cayley-sweep", "genus": 1, "primes": [11]})
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 1

    def test_failed_cayley_comparison_recorded_in_manifest(self, tmp_path, monkeypatch):
        monkeypatch.setenv(BUDGET_ENV_VAR, "30")
        path = write_config(
            tmp_path,
            {"kind": "schreier-sweep", "genus": 1, "primes": [3, 5], "compare_cayley": True},
        )
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out)]) == 1
        manifest = json.loads((out / "manifest.json").read_text())
        assert [t["name"] for t in manifest["tasks"]] == ["p=3", "p=5"]
        assert manifest["tasks"][0]["status"] == "ok"
        assert manifest["tasks"][1]["status"] == "failed"
        assert "BudgetExceeded" in manifest["tasks"][1]["error"]
        rows = read_csv(out / "comparison.csv")
        assert [r["p"] for r in rows] == ["3"]
        assert "comparison.csv" in manifest["outputs"]

    def test_bad_env_budget_fails_the_task(self, tmp_path, monkeypatch):
        monkeypatch.setenv("THINLAB_BUDGET", "-5")
        path = write_config(
            tmp_path, {"kind": "pra", "group": "Z2xZ2", "arity": 2, "steps": 10}
        )
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out)]) == 1
        (task,) = json.loads((out / "manifest.json").read_text())["tasks"]
        assert task["status"] == "failed" and "THINLAB_BUDGET" in task["error"]

    def test_prime_above_modulus_limit_exits_2(self, tmp_path):
        path = write_config(tmp_path, {"kind": "cayley-sweep", "genus": 1, "primes": [2**61 - 1]})
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
        assert not (tmp_path / "out").exists()

    def test_repeated_primes_exit_2(self, tmp_path):
        path = write_config(tmp_path, {"kind": "cayley-sweep", "genus": 1, "primes": [3, 3]})
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "spec,budget",
        [
            ("Z" + "9" * 30, None),
            ("S" + "9" * 30, None),
            ("Z2xZ" + "9" * 30, None),
            ("S11", None),  # 11! > 2,000,000
            ("Z6", 5),
            ("Z2xZ3", 5),
            ("S3", 5),
            # within the element budget, but not the multiplication-table limit
            ("Z4000", None),  # 4,000^2 table entries
            ("S7", None),  # 5,040^2 table entries
            pytest.param("x".join(["Z1"] * 2000), None, id="Z1x2000-None"),  # 4,000 x 2,000 entries
        ],
    )
    def test_group_above_budget_fails_before_building(self, tmp_path, monkeypatch, spec, budget):
        def refuse(*args):
            raise AssertionError("generators built for a group above the budget")

        monkeypatch.setattr(cli_mod, "parse_group_spec", refuse)
        if budget is not None:
            monkeypatch.setenv(BUDGET_ENV_VAR, str(budget))
        payload = {"kind": "pra", "group": spec, "arity": 2, "steps": 1}
        out = tmp_path / "out"
        assert main(["run", str(write_config(tmp_path, payload)), "--out", str(out)]) == 1
        (task,) = json.loads((out / "manifest.json").read_text())["tasks"]
        assert task["status"] == "failed" and "BudgetExceeded" in task["error"]

    @pytest.mark.parametrize(
        "spec,message",
        [
            ("S11", "group 'S11': elements over the limit of 2000000"),
            ("Z4000", "group 'Z4000': multiplication table entries over the limit of 4000000"),
            ("S7", "group 'S7': multiplication table entries over the limit of 4000000"),
            pytest.param(
                "x".join(["Z1"] * 2000), "generator entries over the limit of 4000000", id="Z1x2000"
            ),
        ],
    )
    def test_group_refusal_names_what_it_counted(self, tmp_path, spec, message):
        payload = {"kind": "pra", "group": spec, "arity": 2, "steps": 1}
        out = tmp_path / "out"
        assert main(["run", str(write_config(tmp_path, payload)), "--out", str(out)]) == 1
        (task,) = json.loads((out / "manifest.json").read_text())["tasks"]
        assert task["error"].startswith("BudgetExceeded: ") and task["error"].endswith(message)
        assert "elements seen" not in task["error"]

    @pytest.mark.filterwarnings("ignore:arity 1")
    def test_group_at_budget_runs(self, tmp_path, monkeypatch):
        # arity 1: the budget also caps the Epi scan, here at 6^1 candidates
        monkeypatch.setenv(BUDGET_ENV_VAR, "6")
        path = write_config(tmp_path, {"kind": "pra", "group": "Z2xZ3", "arity": 1, "steps": 1})
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 0

    def test_pra_budget_also_caps_epi_candidates(self, tmp_path, monkeypatch):
        # 6 elements fit the budget, the 6^2 = 36 Epi candidates do not
        monkeypatch.setenv(BUDGET_ENV_VAR, "6")
        path = write_config(tmp_path, {"kind": "pra", "group": "Z2xZ3", "arity": 2, "steps": 1})
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out)]) == 1
        (task,) = json.loads((out / "manifest.json").read_text())["tasks"]
        assert task["status"] == "failed" and "enumerate_epi" in task["error"]

    @pytest.mark.parametrize(
        "spec,arity,where",
        [
            ("S4", 10_000_000, "enumerate_epi"),
            ("Z1", 2_000, "move graph"),
            ("Z1", 1_000_000, "move graph"),
        ],
        ids=["candidates", "move_graph_entries", "move_graph_entries_huge_arity"],
    )
    def test_hostile_pra_sizes_fail_fast(self, tmp_path, monkeypatch, spec, arity, where):
        # 24^(10^7) candidates; one tuple of Z1 with 4n(n-1) loops.  Each is
        # refused before the Epi scan decodes a single n-wide row.
        def no_decode(codes, size, n):
            raise AssertionError("Epi scan decoded after a budget check failed")

        monkeypatch.setattr(pra_mod, "_digits", no_decode)
        path = write_config(
            tmp_path, {"kind": "pra", "group": spec, "arity": arity, "steps": 1}
        )
        out = tmp_path / "out"
        began = time.perf_counter()
        assert main(["run", str(path), "--out", str(out)]) == 1
        assert time.perf_counter() - began < 4.0
        (task,) = json.loads((out / "manifest.json").read_text())["tasks"]
        assert task["status"] == "failed" and "BudgetExceeded" in task["error"]
        assert where in task["error"]

    def test_pra_steps_capped_before_anything_is_built(self, tmp_path, monkeypatch):
        # the walk draws every step's coins and picks up front
        def refuse(*args):
            raise AssertionError("generators built for a walk above the budget")

        monkeypatch.setattr(cli_mod, "parse_group_spec", refuse)
        out = tmp_path / "out"
        for steps, budget in ((10**12, None), (101, 100)):
            if budget is not None:
                monkeypatch.setenv(BUDGET_ENV_VAR, str(budget))
            payload = {"kind": "pra", "group": "S3", "arity": 2, "steps": steps}
            assert main(["run", str(write_config(tmp_path, payload)), "--out", str(out)]) == 1
            (task,) = json.loads((out / "manifest.json").read_text())["tasks"]
            limit = budget or pra_mod.DEFAULT_CANDIDATE_BUDGET
            assert task["error"] == f"BudgetExceeded: pra walk: steps over the limit of {limit}"

    def test_torsion_states_capped_by_budget(self, tmp_path, monkeypatch):
        # 31^2 - 1 = 960 torsion states are refused before they are allocated
        monkeypatch.setenv(BUDGET_ENV_VAR, "10")
        path = write_config(tmp_path, {"kind": "schreier-sweep", "genus": 1, "primes": [31]})
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out)]) == 1
        (task,) = json.loads((out / "manifest.json").read_text())["tasks"]
        assert task["name"] == "p=31" and task["status"] == "failed"
        assert "BudgetExceeded" in task["error"] and "torsion_action" in task["error"]

    def test_torsion_states_refused_before_generators(self, tmp_path, monkeypatch):
        # genus 50 at p = 3: 3^100 - 1 states, known before the chain is built
        def refuse(*args):
            raise AssertionError("generators built for states above the budget")

        monkeypatch.setattr(cli_mod, "_sweep_generators", refuse)
        path = write_config(tmp_path, {"kind": "schreier-sweep", "genus": 50, "primes": [3]})
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out)]) == 1
        (task,) = json.loads((out / "manifest.json").read_text())["tasks"]
        assert task["name"] == "p=3"
        assert task["error"] == (
            "BudgetExceeded: torsion_action: 3^100 - 1 states over the limit of 2000000"
        )

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_jobs_below_one_exit_2(self, tmp_path, jobs):
        out = tmp_path / "out"
        config = str(CONFIG_DIR / "cayley_sweep_small.json")
        assert main(["run", config, "--jobs", jobs, "--out", str(out)]) == 2
        assert not out.exists()

    def test_family_sweep_rejects_jobs_below_one_before_building(self):
        def builder(p):
            raise AssertionError("built a graph")

        with pytest.raises(ValueError, match="jobs"):
            family_sweep(builder, [3], jobs=0)

    def test_run_seed_override_checked(self, tmp_path):
        out = tmp_path / "out"
        path = write_config(tmp_path, {"kind": "pra", "group": "S3", "arity": 2, "steps": 10})
        assert main(["run", str(path), "--seed", "-1", "--out", str(out)]) == 2
        assert not out.exists()
        with pytest.raises(ConfigError, match="seed"):
            run(load_config(path), out_dir=str(out), seed=2**63)

    def test_pra_subcommand_negative_seed_exit_2(self, tmp_path):
        out = tmp_path / "out"
        argv = ["pra", "--group", "S3", "--arity", "2", "--steps", "10", "--seed", "-5"]
        assert main([*argv, "--out", str(out)]) == 2
        assert not out.exists()

    def test_output_dir_not_creatable_exit_2(self, tmp_path, caplog):
        caplog.set_level(logging.INFO, logger="thinlab")
        blocker = tmp_path / "file"
        blocker.write_text("")
        path = write_config(tmp_path, {"kind": "pra", "group": "S3", "arity": 2, "steps": 10})
        for out in (blocker, blocker / "sub"):
            caplog.clear()
            assert main(["run", str(path), "--out", str(out)]) == 2
            (record,) = caplog.records
            assert "cannot create output directory" in record.getMessage()
        assert blocker.read_text() == ""

    def test_census_subcommand(self, tmp_path):
        out = tmp_path / "census-out"
        assert main(["census", "--degree", "3", "--mu", "3", "--out", str(out)]) == 0
        rows = read_csv(out / "census.csv")
        assert len(rows) == 3

    @pytest.mark.parametrize("flag,value", [("--image-order", "0"), ("--mu", "")])
    def test_census_subcommand_rejects_bad_filter(self, tmp_path, flag, value):
        out = tmp_path / "census-out"
        assert main(["census", "--degree", "4", flag, value, "--out", str(out)]) == 2
        assert not out.exists()

    def test_census_subcommand_logs_failed_task(self, tmp_path, caplog):
        caplog.set_level(logging.INFO, logger="thinlab")
        out = tmp_path / "census-out"
        assert main(["census", "--degree", "9", "--out", str(out)]) == 1
        assert "census(d=9): failed (BudgetExceeded" in caplog.text
        (task,) = json.loads((out / "manifest.json").read_text())["tasks"]
        assert task["status"] == "failed"

    def test_pra_group_spec_stripped(self, tmp_path, caplog, monkeypatch):
        # the spec's surrounding whitespace reached the default output
        # directory, the task name and pra.csv
        caplog.set_level(logging.INFO, logger="thinlab")
        monkeypatch.chdir(tmp_path)
        assert main(["pra", "--group", " S3 ", "--arity", "2", "--steps", "10"]) == 0
        assert "pra(S3,n=2): ok" in caplog.text
        assert [p.name for p in tmp_path.iterdir()] == ["thinlab-pra-S3-n2"]
        assert read_csv(tmp_path / "thinlab-pra-S3-n2" / "pra.csv")[0]["group"] == "S3"
        raw = {"kind": "pra", "group": "S3\n", "arity": 2, "steps": 10}
        out = tmp_path / "config-out"
        assert main(["run", str(write_config(tmp_path, raw)), "--out", str(out)]) == 0
        assert (out / "pra.csv").read_text().splitlines()[1].startswith("S3,2,")
        assert json.loads((out / "walk.json").read_text())["group"] == "S3"

    def test_pra_subcommand(self, tmp_path, caplog):
        caplog.set_level(logging.INFO, logger="thinlab")
        out = tmp_path / "pra-out"
        code = main(
            ["pra", "--group", "S3", "--arity", "2", "--steps", "1000", "--out", str(out)]
        )
        assert code == 0
        assert "pra(S3,n=2): ok" in caplog.text
        rows = read_csv(out / "pra.csv")
        assert rows[0]["epi_count"] == "18"

    def test_spectra_subcommand(self, tmp_path, capsys):
        gens = sl2_generators(3)
        graph = cayley_graph(bfs_closure(gens), gens)
        dump = tmp_path / "sl2f3.bin"
        save_graph(graph, dump)
        assert main(["spectra", "--graph", str(dump)]) == 0
        out = capsys.readouterr().out
        lines = out.strip().split("\n")
        assert lines[0].startswith("graph_id,N,k,lambda1")
        assert lines[1].split(",")[1] == "24"

    def test_spectra_method_flag_exits_2(self, tmp_path, capsys):
        gens = sl2_generators(3)
        dump = tmp_path / "g.tlg"
        save_graph(cayley_graph(bfs_closure(gens), gens), dump)
        with pytest.raises(SystemExit) as exc_info:
            main(["spectra", "--graph", str(dump), "--method", "dense"])
        assert exc_info.value.code == 2
        assert "--method" in capsys.readouterr().err

    def test_spectra_missing_file_exits_1(self):
        assert main(["spectra", "--graph", "/nonexistent.bin"]) == 1
