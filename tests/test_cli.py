import json

import pytest

from gnnbench import cli
from gnnbench.bench import parse_report_json
from gnnbench.errors import ConfigError


def strip_timing(doc: dict) -> dict:
    """Drop the wall-clock fields; everything else must be reproducible."""
    out = json.loads(json.dumps(doc))
    out.pop("end_to_end_ns")
    out.pop("time_share")
    for kernel in out["kernels"]:
        kernel.pop("mean_ns")
    return out


class TestParseConfig:
    def test_builtin_defaults(self):
        cfg = cli.parse_config(["run"])
        assert (cfg.model, cfg.comp, cfg.layers, cfg.repeats, cfg.seed) == \
            ("gcn", "mp", 2, 3, 0)

    def test_config_file_overrides_default(self, tmp_path):
        conf = tmp_path / "bench.conf"
        conf.write_text("comp = spmm\nlayers = 3  # deeper\n")
        cfg = cli.parse_config(["run", "--config", str(conf)])
        assert cfg.comp == "spmm"
        assert cfg.layers == 3

    def test_flag_overrides_config_file(self, tmp_path):
        conf = tmp_path / "bench.conf"
        conf.write_text("comp = mp\nrepeats = 9\n")
        cfg = cli.parse_config(["run", "--comp", "spmm", "--config", str(conf)])
        assert cfg.comp == "spmm"
        assert cfg.repeats == 9

    def test_every_field_has_flag_precedence(self, tmp_path):
        conf = tmp_path / "bench.conf"
        conf.write_text(
            "model = gin\ncomp = spmm\ndataset = er:8:0.5:1\nlayers = 4\n"
            "hidden = 32\nepsilon = 0.5\nactivation = sigmoid\nrepeats = 7\n"
            "seed = 11\nprecision = f32\noutput = conf.json\nformat = csv\n"
            "warmup = 2\n"
        )
        argv = ["run", "--config", str(conf), "--model", "gcn", "--comp", "mp",
                "--dataset", "er:4:0.5:2", "--layers", "1", "--hidden", "3",
                "--epsilon", "0.25", "--activation", "relu", "--repeats", "2",
                "--seed", "5", "--precision", "f64", "--output", "flag.json",
                "--format", "json", "--warmup", "0"]
        cfg = cli.parse_config(argv)
        assert cfg == cli.CliConfig(
            model="gcn", comp="mp", dataset="er:4:0.5:2", layers=1, hidden=3,
            epsilon=0.25, activation="relu", repeats=2, seed=5,
            precision="f64", output="flag.json", format="json", warmup=0)

    def test_env_var_names_config(self, tmp_path, monkeypatch):
        conf = tmp_path / "bench.conf"
        conf.write_text("repeats = 5\n")
        monkeypatch.setenv(cli.CONFIG_ENV_VAR, str(conf))
        out = tmp_path / "r.json"
        assert cli.main(["run", "--dataset", "er:8:0.3:1",
                         "--output", str(out)]) == 0
        assert json.loads(out.read_text())["repeats"] == 5

    def test_explicit_config_beats_env(self, tmp_path, monkeypatch):
        env_conf = tmp_path / "env.conf"
        env_conf.write_text("repeats = 5\n")
        flag_conf = tmp_path / "flag.conf"
        flag_conf.write_text("repeats = 7\n")
        monkeypatch.setenv(cli.CONFIG_ENV_VAR, str(env_conf))
        cfg = cli.parse_config(["run", "--config", str(flag_conf)],
                               config_file=str(env_conf))
        assert cfg.repeats == 7

    def test_empty_config_file_gives_defaults(self, tmp_path):
        conf = tmp_path / "bench.conf"
        conf.write_text("# nothing configured\n\n")
        cfg = cli.parse_config(["run", "--config", str(conf)])
        assert (cfg.model, cfg.comp, cfg.layers, cfg.repeats, cfg.seed) == \
            ("gcn", "mp", 2, 3, 0)

    def test_missing_config_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            cli.parse_config(["run", "--config", str(tmp_path / "nope.conf")])

    def test_unknown_config_key_rejected(self, tmp_path):
        conf = tmp_path / "bench.conf"
        conf.write_text("modle = gcn\n")
        with pytest.raises(ConfigError, match="unknown key"):
            cli.parse_config(["run", "--config", str(conf)])

    def test_bad_value_rejected(self, tmp_path):
        conf = tmp_path / "bench.conf"
        conf.write_text("layers = many\n")
        with pytest.raises(ConfigError, match="integer"):
            cli.parse_config(["run", "--config", str(conf)])

    def test_sage_spmm_rejected_with_constraint(self):
        with pytest.raises(ConfigError, match="no.*spmm formulation"):
            cli.parse_config(["run", "--model", "sage", "--comp", "spmm"])

    def test_seed_beyond_64_bits_rejected(self, capsys):
        # streams keep only the low 64 bits, so 5 + 2**64 would silently
        # reuse seed 5's data under another recorded seed
        assert cli.parse_config(["run", "--seed", str(2**64 - 1)]).seed == 2**64 - 1
        with pytest.raises(ConfigError, match="seed"):
            cli.parse_config(["run", "--seed", str(5 + 2**64)])
        with pytest.raises(ConfigError, match="seed"):
            cli.parse_config(["run", "--dataset", f"er:8:0.3:{5 + 2**64}"])
        assert cli.main(["run", "--seed", str(2**64)]) == 2

    def test_unknown_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            cli.parse_config(["run", "--bogus", "1"])
        assert exc.value.code == 2

    def test_malformed_dataset_rejected(self):
        with pytest.raises(ConfigError):
            cli.parse_config(["run", "--dataset", "er:abc:0.1:2"])
        with pytest.raises(ConfigError):
            cli.parse_config(["run", "--dataset", "nosuchset"])


class TestRunCommand:
    def test_happy_path_stdout_json(self, capsys):
        assert cli.main(["run", "--dataset", "er:16:0.2:1",
                         "--repeats", "2"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["version"] == "1"
        assert sum(doc["time_share"].values()) == pytest.approx(100, abs=0.1)

    def test_csv_format(self, capsys):
        assert cli.main(["run", "--dataset", "er:8:0.3:1", "--repeats", "1",
                         "--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0].startswith("kernel,calls,mean_ns")

    def test_csv_to_file(self, tmp_path):
        out = tmp_path / "report.csv"
        assert cli.main(["run", "--dataset", "er:8:0.3:1", "--repeats", "1",
                         "--format", "csv", "--output", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == ("kernel,calls,mean_ns,time_share_pct,fp_ops,"
                            "int_ops,loads,stores")
        assert len(lines) >= 4  # three MP kernels plus other

    def test_output_file(self, tmp_path):
        out = tmp_path / "report.json"
        assert cli.main(["run", "--dataset", "er:8:0.3:1", "--repeats", "1",
                         "--output", str(out)]) == 0
        parse_report_json(out.read_text())

    def test_missing_features_file_no_partial_output(self, tmp_path, capsys):
        edges = tmp_path / "edges.txt"
        edges.write_text("0 1\n1 0\n")
        out = tmp_path / "report.json"
        code = cli.main(["run",
                         "--dataset", f"{edges},{tmp_path / 'missing.csv'}",
                         "--output", str(out)])
        assert code == 3
        assert not out.exists()
        assert "error:" in capsys.readouterr().err

    def test_preset_without_files_is_data_error(self, capsys):
        assert cli.main(["run", "--dataset", "cora"]) == 3
        assert "metadata only" in capsys.readouterr().err

    def test_file_pair_dataset(self, tmp_path, capsys):
        edges = tmp_path / "edges.txt"
        edges.write_text("0 1\n1 2\n2 0\n")
        feats = tmp_path / "x.csv"
        feats.write_text("1.0,0.5\n-0.5,0.25\n0.0,1.0\n")
        assert cli.main(["run", "--dataset", f"{edges},{feats}",
                         "--repeats", "1"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["dataset"]["num_nodes"] == 3
        assert doc["dataset"]["feature_length"] == 2
        assert doc["dataset"]["source"] == "file"

    def test_determinism_across_invocations(self, tmp_path):
        argv = ["run", "--dataset", "er:32:0.2:5", "--model", "gin",
                "--epsilon", "0.5", "--repeats", "2"]
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        assert cli.main(argv + ["--output", str(out_a)]) == 0
        assert cli.main(argv + ["--output", str(out_b)]) == 0
        doc_a = json.loads(out_a.read_text())
        doc_b = json.loads(out_b.read_text())
        assert strip_timing(doc_a) == strip_timing(doc_b)

    def test_f32_precision(self, capsys):
        assert cli.main(["run", "--dataset", "er:8:0.3:1", "--repeats", "1",
                         "--precision", "f32"]) == 0
        assert json.loads(capsys.readouterr().out)["spec"]["precision"] == "f32"

    def test_synthetic_feature_width_override(self, capsys):
        assert cli.main(["run", "--dataset", "er:8:0.3:1:5",
                         "--repeats", "1"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["dataset"]["feature_length"] == 5
        assert doc["spec"]["dims"][0] == 5


class TestCheckCommand:
    @pytest.mark.parametrize("model", ["gcn", "gin", "sage"])
    def test_passes_for_all_models(self, model, capsys):
        assert cli.main(["check", "--dataset", "er:24:0.2:3",
                         "--model", model, "--epsilon", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "PASS determinism" in out
        assert "FAIL" not in out

    def test_reports_cross_model_for_gcn(self, capsys):
        assert cli.main(["check", "--dataset", "er:16:0.2:3"]) == 0
        assert "cross-model" in capsys.readouterr().out

    def test_f32_tolerance_used(self, capsys):
        assert cli.main(["check", "--dataset", "er:16:0.2:3",
                         "--precision", "f32"]) == 0
        assert "1e-04" in capsys.readouterr().out

    def test_file_pair_dataset(self, tmp_path, capsys):
        edges = tmp_path / "edges.txt"
        edges.write_text("0 1\n1 0\n1 2\n2 1\n")
        feats = tmp_path / "x.csv"
        feats.write_text("0.5\n-0.5\n1.0\n")
        assert cli.main(["check", "--dataset", f"{edges},{feats}"]) == 0
        assert "FAIL" not in capsys.readouterr().out


class TestDatasetsCommand:
    def test_registry_rows(self, capsys):
        assert cli.main(["datasets"]) == 0
        out = capsys.readouterr().out
        for token in ("Cora", "CR", "2708", "1433", "5429",
                      "CiteSeer", "CS", "PubMed", "PB", "Reddit", "RD",
                      "LiveJournal", "LJ"):
            assert token in out

    def test_kernel_short_forms(self, capsys):
        cli.main(["datasets"])
        out = capsys.readouterr().out
        for token in ("index_select (is)", "scatter (sc)", "sgemm (sg)",
                      "spmm (sp)"):
            assert token in out


class TestExitCodes:
    def test_usage_error_is_2(self, capsys):
        assert cli.main(["run", "--model", "sage", "--comp", "spmm"]) == 2

    def test_data_error_is_3(self, tmp_path, capsys):
        bad = tmp_path / "edges.txt"
        bad.write_text("zero one\n")
        assert cli.main(["run", "--dataset",
                         f"{bad},{tmp_path / 'x.csv'}"]) == 3
