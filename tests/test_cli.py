import csv
import dataclasses
import hashlib
import io
import json
import re

import numpy as np
import pytest

from gnnbench import bench, cli, data, kernels, models, reference
from gnnbench.bench import parse_report_json
from gnnbench.data import gen_er_graph, gen_features
from gnnbench.errors import ConfigError, FormatError
from gnnbench.graph import CooGraph
from gnnbench.kernels import OpCounters
from gnnbench.models import CompModel, Model, ModelSpec


def strip_timing(doc: dict) -> dict:
    """Drop the wall-clock fields; everything else must be reproducible."""
    out = json.loads(json.dumps(doc))
    out.pop("end_to_end_ns")
    out.pop("time_share")
    for kernel in out["kernels"]:
        kernel.pop("mean_ns")
    return out


# The settings only `run` reads: it times the forward and writes a report,
# and `check` does neither.
RUN_ONLY = {"repeats", "warmup", "output", "format"}

# Each setting's subcommands, as its CliConfig metadata declares them.
READERS = {f.name: f.metadata["commands"] for f in dataclasses.fields(cli.CliConfig)}


def exit_code(argv) -> int:
    """What ``gnnbench`` exits with: main's return, or argparse's exit."""
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code


def no_draw(monkeypatch, why: str):
    """Make drawing a synthetic dataset fail the test."""
    def fail(*args):
        raise AssertionError(f"drew a dataset {why}")
    monkeypatch.setattr(data, "gen_er_graph", fail)
    monkeypatch.setattr(data, "gen_features", fail)


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
        cfg = cli.parse_config(["run", "--config", str(flag_conf)])
        assert cfg.repeats == 7

    @pytest.mark.parametrize("command", ["run", "check"])
    def test_parse_config_resolves_what_main_runs(self, command, tmp_path,
                                                   monkeypatch):
        # the traced benchmark run calls parse_config where the untraced
        # one calls main, so both must read the file GSUITE_CONFIG names
        conf = tmp_path / "env.conf"
        conf.write_text("repeats = 5\nprecision = f32\n")
        monkeypatch.setenv(cli.CONFIG_ENV_VAR, str(conf))
        ran = []
        monkeypatch.setattr(cli, command, lambda cfg: ran.append(cfg) or 0)
        argv = [command, "--dataset", "er:16:0.2:1"]
        assert cli.main(argv) == 0
        assert ran == [cli.parse_config(argv)]
        assert (ran[0].repeats, ran[0].precision) == (5, "f32")

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


DATA_LOADERS = ("gen_er_graph", "gen_features", "load_edge_list", "load_features")


def _patch_loaders(monkeypatch, wrap):
    for name in DATA_LOADERS:
        monkeypatch.setattr(data, name, wrap(name, getattr(data, name)))


class TestDatasetKinds:
    @pytest.mark.parametrize("dataset,needs", [
        ("er:8:0.3:1:3", ["gen_er_graph", "gen_features"]),
        ("{edges},{features}", ["load_edge_list", "load_features"]),
        ("cora", []),
    ], ids=["er", "files", "preset"])
    def test_classifying_computes_nothing(self, dataset, needs, tmp_path,
                                          monkeypatch):
        def refuse(name, real):
            def call(*args):
                raise AssertionError(f"parse_config called data.{name}")
            return call

        _patch_loaders(monkeypatch, refuse)
        edges, features = tmp_path / "edges.txt", tmp_path / "x.csv"
        # the files do not exist yet: parsing reads neither
        cfg = cli.parse_config(["run", "--dataset",
                                dataset.format(edges=edges, features=features)])
        edges.write_text("0 1\n1 2\n")
        features.write_text("0.5\n1.5\n2.5\n")
        calls = []

        def count(name, real):
            def call(*args):
                calls.append(name)
                return real(*args)
            return call

        monkeypatch.undo()
        _patch_loaders(monkeypatch, count)
        if needs:
            g, x, record = cli.resolve_dataset(cfg)
            assert (record.num_nodes, record.feature_length) == x.shape
        else:
            with pytest.raises(FormatError, match="metadata only"):
                cli.resolve_dataset(cfg)
        assert calls == needs


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

    @pytest.mark.parametrize("precision", sorted(bench.PRECISIONS))
    @pytest.mark.parametrize("comp,other", [("mp", "spmm"), ("spmm", "mp")])
    def test_sage_cross_model_passes(self, comp, other, precision, capsys):
        assert cli.main(["check", "--dataset", "er:24:0.2:3", "--model", "sage",
                         "--comp", comp, "--precision", precision]) == 0
        out = capsys.readouterr().out
        assert f"PASS cross-model {comp} vs {other}: " in out
        assert "FAIL" not in out and "SKIP" not in out

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


# SHA-256 of each pipeline's `gnnbench run` report, JSON then CSV, at f64
# on er:300:0.05:9:8, with the wall-clock fields dropped; every other byte
# is reproducible, so any change to it shows here.
PINNED_REPORTS = {
    "gcn-mp": "dfa177d0b095fb51b639d7b2170781c32ef4abd103d8cfb5bc6c3b700f3cfbf6",
    "gcn-spmm": "07ffd8e4a6144f30ca450db11b0a1ef9413c0bbb955f301c50f7141082d92be5",
    "gin-mp": "e09a22eb80aed625dcd82c2e2a830e894679b9af531f2e96aabd31b499083da1",
    "gin-spmm": "65b3a5b2fb7920d133c8c7b61e3a0ab0f90f8d9f7fbb94483013b861474eee53",
    "sage-mp": "5cf1213676b90e505d05c9c65095910dc53a3b58fa4c4a6cec7f0579f73352f9",
    "sage-spmm": "91abac8a8652fb92de0bc0ae97e6369f16e8511552eb45efdd3bafa0d00fe2b1",
}


def _untimed_csv(text: str) -> str:
    rows = list(csv.reader(io.StringIO(text)))
    timed = {rows[0].index("mean_ns"), rows[0].index("time_share_pct")}
    return "".join(",".join(c for i, c in enumerate(row) if i not in timed) + "\n"
                   for row in rows)


class TestPinnedReports:
    @pytest.mark.parametrize("name", sorted(PINNED_REPORTS))
    def test_reports_keep_their_bytes(self, name, capsys):
        model, comp = name.split("-")
        digest = hashlib.sha256()
        for fmt in ("json", "csv"):
            assert cli.main(["run", "--dataset", "er:300:0.05:9:8", "--model", model,
                             "--comp", comp, "--precision", "f64",
                             "--repeats", "1", "--format", fmt]) == 0
            text = capsys.readouterr().out
            if fmt == "json":
                # the layout report_to_json writes, without the timing fields
                text = json.dumps(strip_timing(json.loads(text)), indent=2) + "\n"
            else:
                text = _untimed_csv(text)
            digest.update(text.encode())
        assert digest.hexdigest() == PINNED_REPORTS[name]



# SHA-256 of `gnnbench check`'s stdout followed by "exit <code>\n", for
# each pipeline and precision at --epsilon -1.5 on er:300:0.05:9:8. Each
# line prints its max abs diff, so a changed output or dense reference
# shows here.
PINNED_CHECKS = {
    "gcn-mp-f64": "7e0c5a04b3ce418ce7dfd9f6691d4a9cdb21e57e3e70955d43530b4780d0cb95",
    "gcn-mp-f32": "91f198442726b405e9b193a1b78de52679f64745e9e12598993a91ea9d69e0bf",
    "gcn-spmm-f64": "4a94d850e24467a4c306fda2c64f210d8a421eaf01566f1f4630391e1552c998",
    "gcn-spmm-f32": "8055ae41a9ba09e0e87f9923dab4229069b63035837006c818e6445dd97c3a4a",
    "gin-mp-f64": "a577c929d93bef67d56b211ed66f7b2bfd094d5087917bbdd4da550bc1ad5f24",
    "gin-mp-f32": "9ce546a3d5906d0e778453cbb530472d5c08f7a0a7871b596a0de41fdb9e32c1",
    "gin-spmm-f64": "dbba031ea095add99a7d81174e6113af4fc796b04d620f55a8d2b5e771074b35",
    "gin-spmm-f32": "091b8026d4a2d73bc3f12c8c990821961336baa16e00c0cde4009027c519c9fe",
    "sage-mp-f64": "826975d3ec7a537f4db7ef8b3eca835bcccd3febdc697034b2ec06f91079b08e",
    "sage-mp-f32": "ad472c211b094b95473509d86674a8f782354a03b564adcc21966293836c28fc",
    "sage-spmm-f64": "cec5211040ca134c064fc333fb4805195791920420edcae5d89bd8e9c470a366",
    "sage-spmm-f32": "3452b03914c9f6b31c72de8f2f4f9ac8fe4e476c86a2343862e3a8c74b33bbc4",
}


class TestPinnedChecks:
    @pytest.mark.parametrize("precision", ["f64", "f32"])
    @pytest.mark.parametrize("name", sorted(PINNED_REPORTS))
    def test_checks_keep_their_bytes(self, name, precision, capsys):
        model, comp = name.split("-")
        code = cli.main(["check", "--dataset", "er:300:0.05:9:8", "--model", model,
                         "--comp", comp, "--precision", precision,
                         "--epsilon", "-1.5"])
        text = capsys.readouterr().out + f"exit {code}\n"
        digest = hashlib.sha256(text.encode()).hexdigest()
        assert digest == PINNED_CHECKS[f"{name}-{precision}"]


def test_every_pipeline_is_pinned():
    # a pipeline cannot land without its report digest and a check digest
    # at each precision
    names = sorted(f"{m.value}-{c.value}" for m, c in models.PIPELINES)
    assert sorted(PINNED_REPORTS) == names
    assert sorted(PINNED_CHECKS) == sorted(f"{name}-{precision}" for name in names
                                           for precision in bench.PRECISIONS)


# SHA-256 of `gnnbench datasets`' stdout: the registry table, then the
# kernel legend.
PINNED_DATASETS = "6a495c77f56608815ee4192d939f65fa98027d3b09ed6261ba4b1b92aac41228"


class TestDatasetsCommand:
    def test_output_keeps_its_bytes(self, capsys):
        assert cli.main(["datasets"]) == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digest == PINNED_DATASETS

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
        assert cli.main(["run", "--layers", "0"]) == 2

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

    @pytest.mark.parametrize("command", ["run", "check"])
    @pytest.mark.parametrize("form", ["flag", "flag-pair", "file"])
    def test_empty_output_fails_before_drawing(self, command, form, tmp_path,
                                               monkeypatch, capsys):
        no_draw(monkeypatch, "for a run with no report path")
        conf = tmp_path / "bench.conf"
        conf.write_text("output =\n")
        output = {"flag": ["--output="], "flag-pair": ["--output", ""],
                  "file": ["--config", str(conf)]}[form]
        assert exit_code([command, "--dataset", "er:8:0.3:1", *output]) == \
            cli.EXIT_USAGE == 2
        err = capsys.readouterr().err
        if command == "check" and form != "file":  # check takes no --output
            assert err.endswith(
                f"error: unrecognized arguments: {' '.join(output)}\n")
        else:  # a config file is validated whole, whoever reads it
            assert err == "error: output: expected a path, or - for stdout, got ''\n"

    @pytest.mark.parametrize("command", ["run", "check"])
    @pytest.mark.parametrize("form", ["flag", "file"])
    @pytest.mark.parametrize("target", ["missing-directory", "directory"])
    def test_unwritable_output_fails_before_drawing(self, command, form, target,
                                                    tmp_path, monkeypatch, capsys):
        no_draw(monkeypatch, "for a report it cannot write")
        path, message = {
            "missing-directory": (str(tmp_path / "missing" / "r.json"),
                                  "the directory of {!r} does not exist"),
            "directory": (str(tmp_path), "{!r} is a directory, not a report path"),
        }[target]
        conf = tmp_path / "bench.conf"
        conf.write_text(f"output = {path}\n")
        output = {"flag": ["--output", path], "file": ["--config", str(conf)]}[form]
        assert exit_code([command, "--dataset", "er:8:0.3:1", *output]) == \
            cli.EXIT_USAGE == 2
        err = capsys.readouterr().err
        if command == "check" and form == "flag":  # check takes no --output
            assert err.endswith(
                f"error: unrecognized arguments: {' '.join(output)}\n")
        else:  # a config file is validated whole, whoever reads it
            assert err == f"error: output: {message.format(path)}\n"

    def test_bare_file_name_is_in_the_working_directory(self, tmp_path,
                                                        monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert cli.main(["run", "--dataset", "er:8:0.3:1", "--repeats", "1",
                         "--output", "r.json"]) == 0
        assert json.loads((tmp_path / "r.json").read_text())["repeats"] == 1

    def test_failed_run_writes_no_report(self, tmp_path, capsys):
        bad = tmp_path / "edges.txt"
        bad.write_text("zero one\n")
        out = tmp_path / "r.json"
        assert cli.main(["run", "--dataset", f"{bad},{tmp_path / 'x.csv'}",
                         "--output", str(out)]) == 3
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "check"])
    def test_refused_allocation_is_data_error(self, command, monkeypatch, capsys):
        # what numpy raises for a 40000 x 40000 layer under a 3 GB address
        # space limit; nothing that large is allocated here
        message = ("Unable to allocate 11.9 GiB for an array with shape "
                   "(1600000000,) and data type float64")

        def refuse(spec):
            raise MemoryError(message)
        monkeypatch.setattr(models, "init_weights", refuse)
        assert cli.main([command, "--dataset", "er:8:0.3:1", "--hidden", "40000"]) \
            == cli.EXIT_DATA == 3
        assert capsys.readouterr().err == f"error: {message}\n"

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
        assert READERS == {name: ("run",) if name in RUN_ONLY else ("run", "check")
                           for name in SPELLINGS}

    @pytest.mark.parametrize("key,text,expected", [
        (key, text, expected) for key, cases in SPELLINGS.items()
        for text, expected in cases])
    def test_flag_and_file_resolve_alike(self, key, text, expected, tmp_path):
        # under each subcommand that takes the flag
        conf = tmp_path / "bench.conf"
        conf.write_text(f"{key} = {text}\n")
        for command in READERS[key]:
            from_flag = cli.parse_config([command, f"--{key}", text])
            from_file = cli.parse_config([command, "--config", str(conf)])
            assert from_flag == from_file
            assert getattr(from_flag, key) == expected

    @pytest.mark.parametrize("joined", [False, True], ids=["pair", "joined"])
    @pytest.mark.parametrize("key", sorted(RUN_ONLY))
    def test_check_rejects_run_only_flags(self, key, joined, monkeypatch, capsys):
        no_draw(monkeypatch, "for a flag check does not take")
        text = SPELLINGS[key][0][0]
        flag = [f"--{key}={text}"] if joined else [f"--{key}", text]
        assert exit_code(["check", "--dataset", "er:8:0.3:1", *flag]) == 2
        assert capsys.readouterr().err.endswith(
            f"error: unrecognized arguments: {' '.join(flag)}\n")

    def test_one_file_serves_both_subcommands(self, tmp_path, capsys):
        # a subcommand applies the keys it reads, so a file may hold all 13
        report = tmp_path / "r.csv"
        conf = tmp_path / "bench.conf"
        conf.write_text(
            "model = gin\ncomp = spmm\ndataset = er:12:0.3:1\nlayers = 1\n"
            "hidden = 4\nepsilon = 0.5\nactivation = sigmoid\nrepeats = 2\n"
            f"seed = 11\nprecision = f32\noutput = {report}\nformat = csv\n"
            "warmup = 1\n")
        assert set(cli.read_config_file(str(conf))) == set(SPELLINGS)
        assert cli.main(["check", "--config", str(conf)]) == 0
        assert capsys.readouterr().out.startswith("PASS determinism")
        assert not report.exists()
        assert cli.main(["run", "--config", str(conf)]) == 0
        assert report.read_text().startswith("kernel,calls,mean_ns")

    @pytest.mark.parametrize("command", ["run", "check"])
    def test_malformed_run_only_entry_fails_both(self, command, tmp_path,
                                                 monkeypatch, capsys):
        no_draw(monkeypatch, "for a malformed config file")
        conf = tmp_path / "bench.conf"
        conf.write_text("dataset = er:8:0.3:1\nrepeats = many\n")
        assert cli.main([command, "--config", str(conf)]) == 2
        assert capsys.readouterr().err == \
            "error: repeats: expected an integer, got 'many'\n"

    @pytest.mark.parametrize("command", ["run", "check"])
    def test_key_set_twice_fails_before_drawing(self, command, tmp_path,
                                                monkeypatch, capsys):
        no_draw(monkeypatch, "for a key set twice")
        conf = tmp_path / "bench.conf"
        conf.write_text("dataset = er:8:0.3:1\nrepeats = many\nrepeats = 1\n")
        assert cli.main([command, "--config", str(conf)]) == 2
        assert capsys.readouterr().err == f"error: {conf}:3: 'repeats' is set twice\n"

    @pytest.mark.parametrize("command", ["run", "check"])
    @pytest.mark.parametrize("form", ["flag", "file"])
    def test_malformed_dataset_fails_before_drawing(self, command, form, tmp_path,
                                                    monkeypatch, capsys):
        no_draw(monkeypatch, "for a malformed dataset spec")
        conf = tmp_path / "bench.conf"
        conf.write_text("dataset = er:8:0.3\n")
        dataset = {"flag": ["--dataset", "er:8:0.3"],
                   "file": ["--config", str(conf)]}[form]
        assert cli.main([command, *dataset]) == 2
        assert capsys.readouterr().err == \
            "error: dataset: expected er:<n>:<p>:<seed>[:<f>], got 'er:8:0.3'\n"

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
        settings = {f.name for f in dataclasses.fields(cli.CliConfig)}
        if command == "check":
            settings -= RUN_ONLY
        assert len(settings) == {"run": 13, "check": 9}[command]
        assert flags == settings | {"config"}

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


# A flag each subcommand does not take, and a value typed after it.
NOT_TAKEN = [("run", "--bogus", "1"), ("run", "--bogus", "-x.conf"),
             ("check", "--repeats", "-1"), ("check", "--output", "-"),
             ("datasets", "--seed", "3"), ("datasets", "--config", "x.conf")] + [
    ("check", f"--{key}", SPELLINGS[key][0][0]) for key in sorted(RUN_ONLY)]


class TestSubcommandParser:
    """The chosen subcommand's parser judges the tokens after its name."""

    @pytest.mark.parametrize("joined", [False, True], ids=["spaced", "joined"])
    @pytest.mark.parametrize("command,flag,value", NOT_TAKEN)
    def test_rejected_as_typed_under_own_usage(self, command, flag, value, joined,
                                               monkeypatch, capsys):
        no_draw(monkeypatch, "for a flag the subcommand does not take")
        typed = [f"{flag}={value}"] if joined else [flag, value]
        assert exit_code([command, *typed]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert lines[0].startswith(f"usage: gnnbench {command} ")
        assert lines[-1] == (f"gnnbench {command}: error: unrecognized arguments: "
                             + " ".join(typed))

    @pytest.mark.parametrize("command", ["run", "check"])
    def test_config_path_may_start_with_dash(self, command, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "-x.conf").write_text("seed = 7\nlayers = 3\n")
        spaced = cli.parse_config([command, "--config", "-x.conf"])
        joined = cli.parse_config([command, "--config=-x.conf"])
        monkeypatch.setenv(cli.CONFIG_ENV_VAR, "-x.conf")
        assert spaced == joined == cli.parse_config([command])
        assert (spaced.seed, spaced.layers) == (7, 3)


class TestSettingReaders:
    """A setting's ``commands`` metadata is what gives it a subcommand's
    flag, so it must name exactly the subcommands whose bodies read it."""

    @pytest.mark.parametrize("command", ["run", "check"])
    def test_each_subcommand_reads_exactly_its_settings(self, command, capsys):
        read = set()

        class Recording(cli.CliConfig):
            def __getattribute__(self, name):
                if name in READERS:
                    read.add(name)
                return super().__getattribute__(name)

        cfg = Recording(dataset="er:12:0.3:1", repeats=1)
        read.clear()
        assert getattr(cli, command)(cfg) == 0
        assert read == {name for name, commands in READERS.items()
                        if command in commands}
        assert len(read) == {"run": 13, "check": 9}[command]


class TestPipelineRule:
    """Every model runs under every computational model."""

    @pytest.mark.parametrize("model", [m.value for m in Model])
    @pytest.mark.parametrize("comp", [c.value for c in CompModel])
    def test_every_pair_is_a_spec(self, model, comp):
        cfg = cli.parse_config(["run", "--model", model, "--comp", comp])
        spec = cli.build_model_spec(cfg, 4)
        assert (spec.model, spec.comp_model) in models.PIPELINES

    def test_sage_spmm_runs(self, capsys):
        assert cli.main(["run", "--model", "sage", "--comp", "spmm",
                         "--dataset", "er:12:0.3:1", "--repeats", "1"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert (doc["spec"]["model"], doc["spec"]["comp"]) == ("sage", "spmm")
        assert [k["name"] for k in doc["kernels"]] == ["sgemm", "spmm", "other"]


class TestPrecisions:
    @pytest.mark.parametrize("precision", sorted(bench.PRECISIONS))
    def test_cast_inputs(self, precision):
        spec = ModelSpec(Model.SAGE, CompModel.MP, 1, (3, 2))
        g = gen_er_graph(6, 0.5, 1)
        x = np.asfortranarray(gen_features(6, 3, 1))
        g_t, x_t, params = bench.cast_inputs(spec, g, x, precision)
        dtype, _ = bench.PRECISIONS[precision]
        assert g_t.weights.dtype == dtype
        assert x_t.dtype == dtype and x_t.flags.c_contiguous
        assert all(m.dtype == dtype for p in params for m in (p.w1, p.w2))

    @pytest.mark.parametrize("precision", sorted(bench.PRECISIONS))
    def test_cast_weights_are_read_only(self, precision):
        # the weights of a run serve every repeat, at either precision
        spec = ModelSpec(Model.GCN, CompModel.MP, 2, (3, 4, 2))
        _, _, params = bench.cast_inputs(spec, gen_er_graph(6, 0.5, 1),
                                         gen_features(6, 3, 1), precision)
        assert not any(p.theta.flags.writeable for p in params)

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


    @pytest.mark.parametrize("command", ["run", "check"])
    @pytest.mark.parametrize("comp", ["mp", "spmm"])
    def test_f32_epsilon_overflow_is_a_data_error(self, command, comp, tmp_path,
                                                  monkeypatch, capsys):
        # 1 + eps became an inf self weight: GIN-MP reported all-inf output,
        # and GIN-SpMM blamed an edge the input does not have
        def no_forward(*args, **kwargs):
            raise AssertionError("ran a forward on an out-of-range epsilon")
        monkeypatch.setattr(models, "forward", no_forward)
        out = tmp_path / "r.json"
        argv = [command, "--model", "gin", "--comp", comp, "--dataset",
                "er:12:0.3:1", "--precision", "f32", "--epsilon", "1e300"]
        if command == "run":
            argv += ["--output", str(out)]
        assert cli.main(argv) == cli.EXIT_DATA == 3
        assert capsys.readouterr().err == \
            "error: 1 + epsilon is outside the f32 range\n"
        assert not out.exists()

    @pytest.mark.parametrize("precision,epsilon", [("f64", 1e300), ("f32", 3e38)])
    def test_epsilon_in_range_passes_the_cast(self, precision, epsilon):
        spec = ModelSpec(Model.GIN, CompModel.SPMM, 1, (2, 2), epsilon=epsilon)
        g = CooGraph(2, np.array([0]), np.array([1]))
        bench.cast_inputs(spec, g, np.ones((2, 2)), precision)


class TestKernelLegend:
    def test_each_report_kernel_once_with_a_distinct_short_form(self, capsys):
        assert cli.main(["datasets"]) == 0
        legend = capsys.readouterr().out.splitlines()[-1]
        pairs = re.findall(r"(\w+) \((\w+)\)", legend)
        assert tuple(name for name, _ in pairs) == tuple(kernels.KERNELS)
        shorts = [short for _, short in pairs]
        assert shorts == ["is", "sc", "sg", "sp"]
        for short in shorts:
            assert legend.count(f"({short})") == 1


class TestKernelTable:
    """``kernels.KERNELS`` alone decides which kernels are instrumented and
    which the legend lists."""

    def test_instrumentation_and_legend_follow_the_table(self, monkeypatch,
                                                         capsys):
        def double(x):
            return 2 * x
        monkeypatch.setattr(kernels, "KERNELS", {
            "sgemm": kernels.KERNELS["sgemm"],
            "double": (double, "db", lambda x: OpCounters(fp_ops=x.size)),
        })
        instr = bench.Instrumentation()
        assert sorted(n for n in vars(instr) if not n.startswith("_")) == \
            ["double", "sgemm"]
        assert instr.double(np.ones(3)).tolist() == [2.0, 2.0, 2.0]
        calls, _, counters = instr.snapshot()["double"]
        assert (calls, counters) == (1, OpCounters(fp_ops=3))

        assert cli.main(["datasets"]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == \
            "core kernels: sgemm (sg), double (db)"


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
        assert cli.main(["run", "--layers", "0"]) == 2
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
