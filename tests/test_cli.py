import csv
import json
from pathlib import Path

import pytest

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
from thinlab.graphs import save_graph, cayley_graph
from thinlab.groups import bfs_closure, sl2_generators
from thinlab.spectra import lambda1

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


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

    def test_repeated_primes_rejected(self):
        with pytest.raises(ConfigError, match="repeat"):
            validate_config({"kind": "cayley-sweep", "genus": 1, "primes": [3, 3]})

    @pytest.mark.parametrize("spec", ["Z0", "S0", "Z2xZ0"])
    def test_zero_size_group_rejected(self, spec):
        with pytest.raises(ConfigError, match="positive"):
            validate_config({"kind": "pra", "group": spec, "arity": 2, "steps": 1})

    def test_group_size_beyond_int_parsing_rejected(self):
        with pytest.raises(ConfigError, match="too large"):
            validate_config({"kind": "pra", "group": "Z" + "9" * 5000, "arity": 2, "steps": 1})

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

    def test_sl2_gens_need_genus_one(self):
        with pytest.raises(ConfigError, match="sl2"):
            validate_config(
                {"kind": "cayley-sweep", "genus": 2, "primes": [3], "gens": "sl2"}
            )

    def test_seed_must_fit_64_bits(self):
        with pytest.raises(ConfigError, match="seed"):
            validate_config(
                {"kind": "pra", "group": "S3", "arity": 2, "steps": 1, "seed": 2**70}
            )

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
        rows = list(csv.DictReader(open(tmp_path / "out" / "spectra.csv")))
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

    def test_origami_census_run(self, tmp_path):
        config = validate_config({"kind": "origami-census", "degree": 3})
        manifest = run(config, out_dir=tmp_path / "out")
        assert not manifest.failed
        rows = list(csv.DictReader(open(tmp_path / "out" / "census.csv")))
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
        rows = list(csv.DictReader(open(tmp_path / "out" / "comparison.csv")))
        assert len(rows) == 3
        assert all(r["quotient_ok"] == "True" for r in rows)
        assert all(r["gap_ok"] == "True" for r in rows)
        spectra_rows = list(csv.DictReader(open(tmp_path / "out" / "spectra.csv")))
        assert [int(r["N"]) for r in spectra_rows] == [8, 24, 48]

    def test_pra_run_enumerates_epi_once(self, tmp_path, monkeypatch):
        calls = []
        original = pra_mod.enumerate_epi

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(pra_mod, "enumerate_epi", counting)
        config = validate_config({"kind": "pra", "group": "S3", "arity": 2, "steps": 100})
        manifest = run(config, out_dir=tmp_path / "out")
        assert not manifest.failed
        assert len(calls) == 1

    def test_task_failure_recorded(self, tmp_path):
        config = validate_config(
            {"kind": "cayley-sweep", "genus": 1, "primes": [3, 11], "budget": 30}
        )
        manifest = run(config, out_dir=tmp_path / "out")
        assert manifest.failed
        statuses = {t["name"]: t["status"] for t in manifest.tasks}
        assert statuses == {"p=3": "ok", "p=11": "failed"}


class TestEmitPlotdata:
    def test_rows_written(self, tmp_path):
        gens = sl2_generators(5)
        graph = cayley_graph(bfs_closure(gens), gens)
        reports = [(p, lambda1(graph)) for p in (3, 5, 7)]
        paths = emit_plotdata(reports, tmp_path)
        logn = (tmp_path / "plot_logN_lambda1.dat").read_text().strip().split("\n")
        assert logn[0].startswith("#") and len(logn) == 4
        assert any(p.name == "esperantist.json" for p in paths)

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

    def test_task_failure_exits_1(self, tmp_path):
        path = write_config(
            tmp_path,
            {"kind": "cayley-sweep", "genus": 1, "primes": [11], "budget": 30},
        )
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 1

    def test_failed_cayley_comparison_recorded_in_manifest(self, tmp_path):
        path = write_config(
            tmp_path,
            {
                "kind": "schreier-sweep",
                "genus": 1,
                "primes": [3, 5],
                "compare_cayley": True,
                "budget": 30,
            },
        )
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out)]) == 1
        manifest = json.loads((out / "manifest.json").read_text())
        assert [t["name"] for t in manifest["tasks"]] == ["p=3", "p=5"]
        assert manifest["tasks"][0]["status"] == "ok"
        assert manifest["tasks"][1]["status"] == "failed"
        assert "BudgetExceeded" in manifest["tasks"][1]["error"]
        rows = list(csv.DictReader(open(out / "comparison.csv")))
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
        ],
    )
    def test_group_above_budget_fails_before_building(self, tmp_path, monkeypatch, spec, budget):
        def refuse(*args):
            raise AssertionError("generators built for a group above the budget")

        monkeypatch.setattr(cli_mod, "parse_group_spec", refuse)
        payload = {"kind": "pra", "group": spec, "arity": 2, "steps": 1}
        if budget is not None:
            payload["budget"] = budget
        out = tmp_path / "out"
        assert main(["run", str(write_config(tmp_path, payload)), "--out", str(out)]) == 1
        (task,) = json.loads((out / "manifest.json").read_text())["tasks"]
        assert task["status"] == "failed" and "BudgetExceeded" in task["error"]

    @pytest.mark.filterwarnings("ignore:arity 1")
    def test_group_at_budget_runs(self, tmp_path):
        # arity 1: the budget also caps the Epi scan, here at 6^1 candidates
        path = write_config(
            tmp_path, {"kind": "pra", "group": "Z2xZ3", "arity": 1, "steps": 1, "budget": 6}
        )
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 0

    def test_census_subcommand(self, tmp_path):
        out = tmp_path / "census-out"
        assert main(["census", "--degree", "3", "--mu", "3", "--out", str(out)]) == 0
        rows = list(csv.DictReader(open(out / "census.csv")))
        assert len(rows) == 3

    def test_pra_subcommand(self, tmp_path):
        out = tmp_path / "pra-out"
        code = main(
            ["pra", "--group", "S3", "--arity", "2", "--steps", "1000", "--out", str(out)]
        )
        assert code == 0
        rows = list(csv.DictReader(open(out / "pra.csv")))
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

    def test_spectra_missing_file_exits_1(self):
        assert main(["spectra", "--graph", "/nonexistent.bin"]) == 1
