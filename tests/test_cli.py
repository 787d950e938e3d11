import dataclasses
import json
import re

import numpy as np
import pytest

from gnnbench import bench, cli, data, reference
from gnnbench.bench import parse_report_json
from gnnbench.data import gen_er_graph, gen_features
from gnnbench.errors import ConfigError, FormatError
from gnnbench.graph import CooGraph
from gnnbench.models import CompModel, Model, ModelSpec


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

    @pytest.mark.parametrize("flag", [["--epsilon", "nan"], ["--epsilon", "inf"],
                                      ["--epsilon=-inf"]])
    def test_non_finite_epsilon_is_usage_error(self, flag, tmp_path, capsys):
        # a NaN epsilon used to run, and its report said "epsilon": NaN,
        # which is not JSON
        out = tmp_path / "report.json"
        argv = ["run", "--model", "gin", "--dataset", "er:16:0.2:1",
                "--output", str(out)] + flag
        assert cli.main(argv) == 2
        assert "epsilon must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_epsilon_rejected_before_any_work(self, value,
                                                         monkeypatch):
        def fail(*args):
            raise AssertionError("the graph was generated")

        monkeypatch.setattr(cli.data, "gen_er_graph", fail)
        argv = ["run", "--model", "gin", "--dataset", "er:3000:0.001:1",
                f"--epsilon={value}"]
        assert cli.main(argv) == 2

    def test_unknown_report_format_rejected(self):
        with pytest.raises(ConfigError, match="format"):
            cli.parse_config(["run", "--format", "xml"])

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


def overflow_warnings_ignored(test):
    """Ignore, by message, the warnings an overflowing forward and dense
    reference raise; one from the comparison itself (such as "invalid value
    encountered in subtract") still fails the test."""
    for message in ("overflow encountered in add", "overflow encountered in matmul",
                    "invalid value encountered in matmul"):
        test = pytest.mark.filterwarnings(f"ignore:{message}:RuntimeWarning")(test)
    return test


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

    def large_dataset(self, tmp_path):
        edges = tmp_path / "e.txt"
        edges.write_text("0 1\n1 2\n")
        feats = tmp_path / "f.csv"
        feats.write_text("1.0,2.0\n1e39,0.5\n-3.0,4.0\n")
        return ["check", "--dataset", f"{edges},{feats}", "--precision", "f64"]

    def test_tolerance_scales_with_the_reference(self, tmp_path, capsys):
        # reordering error near 1e39 is about 1e22 in absolute terms, about
        # 4e-16 of the outputs' scale
        assert cli.main(self.large_dataset(tmp_path)) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        match = re.search(r"PASS dense-reference: max abs diff \S+ "
                          r"\(tolerance (\S+) = 1e-09 x (\S+)\)", out)
        used, scale = map(float, match.groups())
        assert scale > 1e38 and used == pytest.approx(1e-9 * scale, rel=1e-3)

    def test_scaled_tolerance_still_fails_a_moved_element(self, tmp_path, capsys,
                                                          monkeypatch):
        dense_forward = reference.dense_forward

        def moved(*args):
            ref = dense_forward(*args)
            ref[1, 0] += 1e-6 * np.abs(ref).max()
            return ref

        monkeypatch.setattr(reference, "dense_forward", moved)
        assert cli.main(self.large_dataset(tmp_path)) == 4
        out = capsys.readouterr().out
        assert "PASS cross-model" in out and "FAIL dense-reference" in out

    def overflowing_dataset(self, tmp_path):
        # GIN's first sum overflows: every route gives [[-inf, nan], ...]
        edges = tmp_path / "e.txt"
        edges.write_text("%nodes 3\n0 1\n1 2\n2 0\n")
        feats = tmp_path / "f.csv"
        feats.write_text("1e308,1e308\n" * 3)
        return ["check", "--dataset", f"{edges},{feats}", "--model", "gin",
                "--activation", "identity", "--layers", "1", "--hidden", "2"]

    @overflow_warnings_ignored
    def test_equal_non_finite_outputs_pass(self, tmp_path, capsys):
        assert cli.main(self.overflowing_dataset(tmp_path)) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert out.count("max abs diff 0.000e+00") == 2
        assert out.count("6 of 6 output elements non-finite") == 2

    @overflow_warnings_ignored
    def test_non_finite_mismatch_fails(self, tmp_path, capsys, monkeypatch):
        dense_forward = reference.dense_forward

        def finite_corner(*args):
            ref = dense_forward(*args)
            assert ref[0, 0] == -np.inf
            ref[0, 0] = 0.0
            return ref

        monkeypatch.setattr(reference, "dense_forward", finite_corner)
        assert cli.main(self.overflowing_dataset(tmp_path)) == 4
        out = capsys.readouterr().out
        assert "PASS cross-model" in out
        assert "FAIL dense-reference: max abs diff inf" in out

    def test_dense_reference_skipped_past_the_limit(self, capsys):
        assert cli.main(["check", "--dataset", "er:4097:0:1", "--model", "gin"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert ("SKIP dense-reference: dense materialization of 4097 nodes "
                "exceeds limit 4096\n") in out


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

    def test_non_utf8_config_file_is_usage_error(self, tmp_path, capsys):
        conf = tmp_path / "bench.conf"
        conf.write_bytes(b"seed = 3\nmodel = gc\xe9n\n")
        assert cli.main(["run", "--config", str(conf)]) == 2
        assert f"config file {conf} is not UTF-8" in capsys.readouterr().err

    @pytest.mark.parametrize("edges,features,bad", [
        (b"0 1\n1 \xff\n", b"0.5\n1.5\n", "edges.txt"),
        (b"0 1\n1 0\n", b"0.5\n\xff\n", "x.csv"),
    ], ids=["edge-list", "features"])
    def test_non_utf8_input_file_is_data_error(self, edges, features, bad,
                                               tmp_path, capsys):
        (tmp_path / "edges.txt").write_bytes(edges)
        (tmp_path / "x.csv").write_bytes(features)
        dataset = f"{tmp_path / 'edges.txt'},{tmp_path / 'x.csv'}"
        assert cli.main(["run", "--dataset", dataset]) == 3
        assert f"{tmp_path / bad}: not UTF-8" in capsys.readouterr().err

    def test_node_index_beyond_int64_is_data_error(self, tmp_path, capsys):
        # line 1 holds the largest int64, line 2 one more
        edges = tmp_path / "edges.txt"
        edges.write_text(f"0 {2**63 - 1}\n{2**63} 0\n")
        features = tmp_path / "x.csv"
        features.write_text("0.5\n1.5\n")
        assert cli.main(["run", "--dataset", f"{edges},{features}"]) == 3
        assert f"{edges}:2: node index outside [0, 2^63)" in capsys.readouterr().err


# One spelling per setting, and the value it must resolve to, whether it
# comes from a flag or from a config file.
SPELLINGS = {
    "model": [("gin", "gin"), ("GCN", "gcn")],
    "comp": [("spmm", "spmm")],
    "dataset": [("er:8:0.5:1", "er:8:0.5:1")],
    "layers": [("4", 4), ("0x2", 2), ("010", 10)],
    "hidden": [("32", 32)],
    "epsilon": [("0.5", 0.5)],
    "activation": [("Sigmoid", "sigmoid")],
    "repeats": [("7", 7)],
    "seed": [("11", 11), ("0x10", 16)],
    "precision": [("F32", "f32")],
    "output": [("conf.json", "conf.json")],
    "format": [("csv", "csv")],
    "warmup": [("2", 2)],
}


class TestFlagFileParity:
    def test_every_setting_has_spellings(self):
        assert set(SPELLINGS) == {f.name for f in dataclasses.fields(cli.CliConfig)}

    @pytest.mark.parametrize("key,text,expected", [
        (key, text, expected) for key, cases in SPELLINGS.items()
        for text, expected in cases])
    def test_flag_and_file_resolve_alike(self, key, text, expected, tmp_path):
        conf = tmp_path / "bench.conf"
        conf.write_text(f"{key} = {text}\n")
        from_flag = cli.parse_config(["run", f"--{key}", text])
        from_file = cli.parse_config(["run", "--config", str(conf)])
        assert from_flag == from_file
        assert getattr(from_flag, key) == expected

    def test_bad_flag_value_is_config_error(self, capsys):
        with pytest.raises(ConfigError, match="layers"):
            cli.parse_config(["run", "--layers", "many"])
        assert cli.main(["run", "--layers", "many"]) == 2
        assert "layers" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "check"])
    def test_flags_are_the_settings_plus_config(self, command, capsys):
        with pytest.raises(SystemExit):
            cli.main([command, "--help"])
        usage = capsys.readouterr().out.split("options:")[0]
        flags = set(re.findall(r"--([a-z_]+)", usage)) - {"help"}
        assert flags == {f.name for f in dataclasses.fields(cli.CliConfig)} | {"config"}

    @pytest.mark.parametrize("argv", [["--eps", "0.5"], ["--eps", "-1e-3"],
                                      ["--eps=0.5"]])
    @pytest.mark.parametrize("command", ["run", "check"])
    def test_abbreviated_flag_rejected_like_file_key(self, command, argv,
                                                     tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main([command] + argv)
        assert exc.value.code == 2
        conf = tmp_path / "bench.conf"
        conf.write_text("eps = 0.5\n")
        assert cli.main([command, "--config", str(conf)]) == 2


class TestPipelineRule:
    def test_cli_and_spec_give_one_message(self):
        with pytest.raises(ConfigError) as from_cli:
            cli.parse_config(["run", "--model", "sage", "--comp", "spmm"])
        with pytest.raises(ConfigError) as from_spec:
            ModelSpec(Model.SAGE, CompModel.SPMM, 1, (4, 4))
        assert str(from_cli.value) == str(from_spec.value)

    def test_rejected_before_loading_data(self, tmp_path, capsys):
        missing = f"{tmp_path / 'edges.txt'},{tmp_path / 'x.csv'}"
        assert cli.main(["run", "--model", "sage", "--comp", "spmm",
                         "--dataset", missing]) == 2
        assert "formulation" in capsys.readouterr().err


class TestPrecisions:
    def test_check_tolerance_per_precision(self):
        assert set(cli.CHECK_TOLERANCE) == set(bench.PRECISIONS)

    @pytest.mark.parametrize("precision", sorted(bench.PRECISIONS))
    def test_cast_inputs(self, precision):
        spec = ModelSpec(Model.SAGE, CompModel.MP, 1, (3, 2))
        g = gen_er_graph(6, 0.5, 1)
        x = np.asfortranarray(gen_features(6, 3, 1))
        g_t, x_t, params = bench.cast_inputs(spec, g, x, precision)
        dtype = bench.PRECISIONS[precision]
        assert g_t.weights.dtype == dtype
        assert x_t.dtype == dtype and x_t.flags.c_contiguous
        assert all(m.dtype == dtype for p in params for m in (p.w1, p.w2))

    def test_f32_overflow_is_a_data_error(self, tmp_path, capsys):
        # a feature beyond the float32 range would become inf, and the run
        # would report on it as if it were data
        edges = tmp_path / "e.txt"
        edges.write_text("0 1\n1 2\n")
        feats = tmp_path / "f.csv"
        feats.write_text("1.0,2.0\n1e39,0.5\n-3.0,4.0\n")
        dataset = ["--dataset", f"{edges},{feats}"]
        for command in ("run", "check"):
            assert cli.main([command, *dataset, "--precision", "f32"]) == 3
            assert "a feature value is outside the f32 range" in \
                capsys.readouterr().err
        assert cli.main(["run", *dataset, "--precision", "f64"]) == 0

    def test_f32_edge_weight_overflow_rejected(self):
        spec = ModelSpec(Model.GCN, CompModel.MP, 1, (2, 2))
        g = CooGraph(2, np.array([0]), np.array([1]), np.array([-1e39]))
        with pytest.raises(FormatError, match="an edge weight is outside the f32"):
            bench.cast_inputs(spec, g, np.ones((2, 2)), "f32")


class TestKernelLegend:
    def test_each_report_kernel_once_with_a_distinct_short_form(self, capsys):
        assert cli.main(["datasets"]) == 0
        legend = capsys.readouterr().out.splitlines()[-1]
        pairs = re.findall(r"(\w+) \((\w+)\)", legend)
        assert tuple(name for name, _ in pairs) == bench.KERNEL_ORDER
        shorts = [short for _, short in pairs]
        assert shorts == ["is", "sc", "sg", "sp"]
        for short in shorts:
            assert legend.count(f"({short})") == 1


class TestErPairCap:
    @pytest.mark.parametrize("n", [2000, 19717, 32768])
    def test_at_or_below_cap_accepted(self, n):
        assert n * (n - 1) <= data.MAX_ER_PAIRS
        cli.parse_config(["run", "--dataset", f"er:{n}:0.000114:1"])

    @pytest.mark.parametrize("n", [32769, 100000])
    def test_above_cap_rejected(self, n):
        assert n * (n - 1) > data.MAX_ER_PAIRS
        with pytest.raises(ConfigError, match="cap"):
            cli.parse_config(["run", "--dataset", f"er:{n}:0.1:1"])

    @pytest.mark.parametrize("n,f", [(2, data.MAX_ER_PAIRS // 2),
                                     (32768, data.MAX_ER_PAIRS // 32768)])
    def test_feature_table_at_cap_accepted(self, n, f):
        assert n * f == data.MAX_ER_PAIRS
        cli.parse_config(["run", "--dataset", f"er:{n}:0.1:1:{f}"])

    @pytest.mark.parametrize("spec", ["er:10:0.5:1:1000000000000",
                                      f"er:2:0.5:1:{data.MAX_ER_PAIRS // 2 + 1}"])
    def test_feature_table_above_cap_fails_before_drawing(self, spec, capsys,
                                                          monkeypatch):
        def no_draw(*args):
            raise AssertionError("drew a dataset the cap rejects")
        monkeypatch.setattr(data, "gen_er_graph", no_draw)
        monkeypatch.setattr(data, "gen_features", no_draw)
        assert cli.main(["run", "--dataset", spec]) == cli.EXIT_USAGE == 2
        assert "feature values to draw, above the generator's cap" in \
            capsys.readouterr().err


class TestDashLeadingValues:
    @pytest.mark.parametrize("key,text,expected", [
        ("epsilon", "-1e-3", -0.001), ("epsilon", "-0.5", -0.5),
        ("output", "-report.json", "-report.json"), ("output", "-", "-")])
    def test_spaced_joined_and_file_agree(self, key, text, expected, tmp_path):
        conf = tmp_path / "bench.conf"
        conf.write_text(f"{key} = {text}\n")
        spaced = cli.parse_config(["run", f"--{key}", text])
        joined = cli.parse_config(["run", f"--{key}={text}"])
        from_file = cli.parse_config(["run", "--config", str(conf)])
        assert spaced == joined == from_file
        assert getattr(spaced, key) == expected

    def test_run_with_negative_epsilon(self, capsys):
        assert cli.main(["run", "--model", "gin", "--epsilon", "-1e-3",
                         "--dataset", "er:8:0.5:1", "--repeats", "1"]) == 0
        assert json.loads(capsys.readouterr().out)["spec"]["epsilon"] == -0.001

    def test_bad_dash_value_is_config_error(self):
        with pytest.raises(ConfigError, match="seed"):
            cli.parse_config(["run", "--seed", "-1"])

    def test_missing_value_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            cli.parse_config(["run", "--epsilon"])
        assert exc.value.code == 2


class TestParserReuse:
    def test_parser_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_consecutive_mains_share_no_state(self, monkeypatch, capsys):
        # the parser is shared, so a flag of one call must not leak into
        # the next
        seen = []
        monkeypatch.setattr(cli, "run", lambda cfg: seen.append(cfg) or 0)
        assert cli.main(["run", "--epsilon", "0.5", "--model", "gin"]) == 0
        assert cli.main(["run"]) == 0
        assert [(c.epsilon, c.model) for c in seen] == [(0.5, "gin"), (0.0, "gcn")]
        with pytest.raises(SystemExit) as exc:
            cli.main(["run", "--bogus", "1"])
        assert exc.value.code == 2
        assert cli.main(["run", "--model", "sage", "--comp", "spmm"]) == 2
        assert cli.main(["run", "--warmup", "2"]) == 0
        assert seen[-1] == cli.CliConfig(warmup=2)


class TestConfigComments:
    def parse(self, tmp_path, text):
        conf = tmp_path / "bench.conf"
        conf.write_text(text)
        return cli.parse_config(["run", "--config", str(conf)])

    def test_hash_inside_value_is_kept(self, tmp_path):
        assert self.parse(tmp_path, "output = out#1.json\n").output == "out#1.json"

    @pytest.mark.parametrize("line", ["seed = 3  # note", "seed = 3\t# note",
                                      "seed = 3 #note"])
    def test_comment_after_whitespace(self, line, tmp_path):
        assert self.parse(tmp_path, line + "\n").seed == 3

    def test_comment_lines(self, tmp_path):
        cfg = self.parse(tmp_path, "# top\n   # indented\nseed = 4\n#seed = 5\n")
        assert cfg.seed == 4
