import json

import numpy as np
import pytest

from gnnbench import bench, models
from gnnbench.bench import (
    Instrumentation,
    instrumented_run,
    parse_report_json,
    report_to_csv,
    report_to_json,
)
from gnnbench.data import DatasetRecord, gen_er_graph, gen_features
from gnnbench.errors import ConsistencyError, FormatError
from gnnbench.kernels import OpCounters
from gnnbench.models import Activation, CompModel, Model, ModelSpec


def make_spec(model="gcn", comp="mp", dims=(4, 8, 8), eps=0.0, seed=0):
    return ModelSpec(Model(model), CompModel(comp), len(dims) - 1, dims,
                     Activation.RELU, eps, seed)


def unique_pairs(src, dst):
    return len({(int(s), int(d)) for s, d in zip(src, dst)})


def predict_counters(spec, g, x):
    """Closed-form per-kernel counters for one forward pass, computed from
    the pipeline shapes alone (no kernel code involved)."""
    n = g.num_nodes
    loops_present = {int(s) for s, d in zip(g.src, g.dst) if int(s) == int(d)}
    e_looped = g.num_edges + (n - len(loops_present))
    totals = {}

    def add(name, c):
        totals[name] = totals.get(name, OpCounters()) + c

    for layer in range(spec.num_layers):
        f_in, f_out = spec.dims[layer], spec.dims[layer + 1]
        if spec.comp_model is CompModel.SPMM:
            if spec.model is Model.GCN:
                src = np.concatenate([g.src, np.setdiff1d(np.arange(n), sorted(loops_present))])
                dst = np.concatenate([g.dst, np.setdiff1d(np.arange(n), sorted(loops_present))])
                nnz = unique_pairs(src, dst)
            else:
                all_nodes = np.arange(n)
                nnz = unique_pairs(np.concatenate([g.src, all_nodes]),
                                   np.concatenate([g.dst, all_nodes]))
            add("spmm", OpCounters(2 * nnz * f_in, nnz * (f_in + 1),
                                   nnz * (f_in + 1) + nnz * f_in, n * f_in))
            add("sgemm", OpCounters(2 * n * f_in * f_out, n * f_out,
                                    2 * n * f_in * f_out, n * f_out))
        elif spec.model is Model.GCN:
            e = e_looped
            add("sgemm", OpCounters(2 * n * f_in * f_out, n * f_out,
                                    2 * n * f_in * f_out, n * f_out))
            add("index_select", OpCounters(0, e * (f_out + 1), e * (f_out + 1),
                                           e * f_out))
            add("scatter", OpCounters(e * f_out, e * (f_out + 1),
                                      e * (f_out + 1), e * f_out))
        elif spec.model is Model.GIN:
            e = g.num_edges
            add("index_select", OpCounters(0, e * (f_in + 1), e * (f_in + 1),
                                           e * f_in))
            add("scatter", OpCounters(e * f_in, e * (f_in + 1), e * (f_in + 1),
                                      e * f_in))
            add("sgemm", OpCounters(2 * n * f_in * f_out, n * f_out,
                                    2 * n * f_in * f_out, n * f_out))
        else:  # sage
            e = e_looped
            add("index_select", OpCounters(0, e * (f_in + 1), e * (f_in + 1),
                                           e * f_in))
            add("scatter", OpCounters(e * f_in + n * f_in, e * (f_in + 1),
                                      e * (f_in + 1), e * f_in))
            add("sgemm", OpCounters(2 * (2 * n * f_in * f_out), 2 * n * f_out,
                                    2 * (2 * n * f_in * f_out), 2 * n * f_out))
    return totals


@pytest.fixture(scope="module")
def small_run():
    g = gen_er_graph(32, 0.2, 3)
    x = gen_features(32, 4, 1)
    spec = make_spec()
    return spec, g, x, instrumented_run(spec, g, x, repeats=3)


class TestInstrumentedRun:
    def test_time_share_sums_to_100(self, small_run):
        _, _, _, report = small_run
        assert sum(report.time_share.values()) == pytest.approx(100.0, abs=0.1)

    @pytest.mark.parametrize("repeats", [1, 10])
    def test_rows_sum_to_end_to_end(self, repeats):
        # one-off setup (casts, weight init, prepare) is not in any row, so
        # the kernel rows plus other cover exactly the measured forwards
        g = gen_er_graph(64, 0.1, 1)
        x = gen_features(64, 8, 1)
        report = instrumented_run(make_spec(comp="spmm", dims=(8, 8)), g, x,
                                  repeats=repeats)
        total = sum(s.wall_time_ns for s in report.per_kernel)
        assert total == pytest.approx(report.end_to_end_ns, rel=1e-9)

    def test_mp_kernel_set(self, small_run):
        _, _, _, report = small_run
        names = [s.kernel for s in report.per_kernel]
        assert names == ["index_select", "scatter", "sgemm", "other"]

    def test_spmm_kernel_set(self):
        g = gen_er_graph(16, 0.2, 3)
        x = gen_features(16, 4, 1)
        report = instrumented_run(make_spec(comp="spmm"), g, x, repeats=1)
        assert [s.kernel for s in report.per_kernel] == ["sgemm", "spmm", "other"]

    def test_mp_vs_spmm_kernel_sets(self):
        g = gen_er_graph(16, 0.2, 4)
        x = gen_features(16, 4, 1)
        mp = instrumented_run(make_spec("gcn", "mp"), g, x, repeats=1)
        sp = instrumented_run(make_spec("gcn", "spmm"), g, x, repeats=1)
        assert set(mp.time_share) - set(sp.time_share) == {"index_select", "scatter"}
        assert set(sp.time_share) - set(mp.time_share) == {"spmm"}

    def test_repeats_recorded(self, small_run):
        _, _, _, report = small_run
        assert report.repeats == 3

    def test_single_repeat_mean_is_observation(self):
        g = gen_er_graph(8, 0.3, 5)
        x = gen_features(8, 2, 2)
        report = instrumented_run(make_spec(dims=(2, 4)), g, x, repeats=1)
        assert report.repeats == 1
        assert report.end_to_end_ns > 0

    @pytest.mark.parametrize("model,comp", [
        ("gcn", "mp"), ("gcn", "spmm"), ("gin", "mp"), ("gin", "spmm"),
        ("sage", "mp"),
    ])
    def test_counters_match_closed_form(self, model, comp):
        g = gen_er_graph(24, 0.3, 7)
        x = gen_features(24, 5, 4)
        spec = make_spec(model, comp, dims=(5, 8, 8), eps=0.5)
        report = instrumented_run(spec, g, x, repeats=2)
        want = predict_counters(spec, g, x)
        got = {s.kernel: s.counters for s in report.per_kernel
               if s.kernel != "other"}
        assert got == want

    def test_op_share_rows_sum_to_100(self, small_run):
        _, _, _, report = small_run
        assert report.op_share  # nonempty
        for kernel, shares in report.op_share.items():
            assert sum(shares.values()) == pytest.approx(100.0, abs=0.1)

    def test_other_excluded_from_op_share(self, small_run):
        _, _, _, report = small_run
        assert "other" not in report.op_share

    def test_sgemm_fp_dominates(self, small_run):
        _, _, _, report = small_run
        assert report.op_share["sgemm"]["fp"] > report.op_share["sgemm"]["int"]

    def test_scatter_and_gather_int_dominate(self, small_run):
        _, _, _, report = small_run
        for kernel in ("scatter", "index_select"):
            shares = report.op_share[kernel]
            assert shares["int"] >= shares["fp"]

    def test_warmup_does_not_change_counters(self):
        g = gen_er_graph(12, 0.3, 1)
        x = gen_features(12, 3, 1)
        spec = make_spec(dims=(3, 4))
        plain = instrumented_run(spec, g, x, repeats=2)
        warmed = instrumented_run(spec, g, x, repeats=2, warmup=2)
        assert [(s.kernel, s.calls, s.counters) for s in plain.per_kernel] == \
            [(s.kernel, s.calls, s.counters) for s in warmed.per_kernel]

    def test_f32_precision_runs(self):
        g = gen_er_graph(16, 0.2, 2)
        x = gen_features(16, 4, 3)
        report = instrumented_run(make_spec(), g, x, repeats=2, precision="f32")
        assert report.spec["precision"] == "f32"

    def test_edgeless_graph_run(self):
        # gather/scatter see zero rows; their op_share entries drop out but
        # time_share still covers them and normalizes
        g = gen_er_graph(6, 0.0, 1)
        x = gen_features(6, 3, 1)
        report = instrumented_run(make_spec("gin", "mp", dims=(3, 4)), g, x,
                                  repeats=2)
        names = [s.kernel for s in report.per_kernel]
        assert names == ["index_select", "scatter", "sgemm", "other"]
        assert "scatter" not in report.op_share
        assert sum(report.time_share.values()) == pytest.approx(100.0, abs=0.1)

    def test_nondeterminism_detected(self, monkeypatch):
        g = gen_er_graph(8, 0.3, 1)
        x = gen_features(8, 2, 1)
        spec = make_spec(dims=(2, 2))
        calls = {"n": 0}
        real_forward = models.forward

        def flaky(*args, **kwargs):
            calls["n"] += 1
            out = real_forward(*args, **kwargs)
            return out + (1e-9 if calls["n"] > 1 else 0.0)

        monkeypatch.setattr(bench.models, "forward", flaky)
        with pytest.raises(ConsistencyError):
            instrumented_run(spec, g, x, repeats=2)

    def test_invalid_repeats(self):
        with pytest.raises(ValueError):
            instrumented_run(make_spec(dims=(2, 2)), gen_er_graph(4, 0.5, 1),
                             gen_features(4, 2, 1), repeats=0)


class TestInstrumentationClass:
    def test_snapshot_accumulates(self):
        instr = Instrumentation()
        instr.sgemm(np.ones((2, 3)), np.ones((3, 4)))
        instr.sgemm(np.ones((2, 3)), np.ones((3, 4)))
        calls, ns, counters = instr.snapshot()["sgemm"]
        assert calls == 2
        assert counters.fp_ops == 2 * (2 * 2 * 3 * 4)
        assert ns >= 0

    def test_matches_bare_kernels(self):
        from gnnbench import kernels
        instr = Instrumentation()
        a, b = np.ones((3, 2)), np.ones((2, 5))
        assert instr.sgemm(a, b).tobytes() == kernels.sgemm(a, b).tobytes()


class TestReportSerialization:
    def test_json_round_trip(self, small_run):
        _, _, _, report = small_run
        assert parse_report_json(report_to_json(report)) == report

    def test_json_top_level_keys(self, small_run):
        _, _, _, report = small_run
        doc = json.loads(report_to_json(report))
        assert set(doc) == {"version", "spec", "dataset", "repeats",
                            "end_to_end_ns", "kernels", "time_share",
                            "op_share"}
        assert all(set(k) == {"name", "calls", "mean_ns", "fp_ops", "int_ops",
                              "loads", "stores"} for k in doc["kernels"])

    @pytest.mark.parametrize("edit, message", [
        (lambda doc: {}, "report key 'version' is missing"),
        (lambda doc: [], r"report is not a JSON object \(list\)"),
        (lambda doc: {**doc, "kernels": [
            {k: v for k, v in doc["kernels"][0].items() if k != "loads"}]},
         r"report kernels\[0\] key 'loads' is missing"),
        (lambda doc: {**doc, "repeats": "3"},
         "report key 'repeats' holds a str"),
        (lambda doc: {**doc, "kernels": [7]},
         r"report kernels\[0\] is not a JSON object \(int\)"),
    ], ids=["empty-object", "list", "kernel-without-loads", "string-repeats",
            "kernel-not-object"])
    def test_malformed_json_names_the_key(self, small_run, edit, message):
        doc = json.loads(report_to_json(small_run[3]))
        with pytest.raises(FormatError, match=message):
            parse_report_json(json.dumps(edit(doc)))

    def test_not_json_rejected(self):
        with pytest.raises(FormatError, match="report is not JSON"):
            parse_report_json("kernel,calls\n")

    def test_csv_row_count(self, small_run):
        _, _, _, report = small_run
        lines = report_to_csv(report).strip().split("\n")
        assert lines[0] == ("kernel,calls,mean_ns,time_share_pct,fp_ops,"
                            "int_ops,loads,stores")
        assert len(lines) == len(report.per_kernel) + 1


def rows_time_share(doc):
    return {k["name"]: 100 * k["mean_ns"] / doc["end_to_end_ns"]
            for k in doc["kernels"]}


def rows_op_share(doc):
    shares = {}
    for k in doc["kernels"]:
        total = k["fp_ops"] + k["int_ops"] + k["loads"] + k["stores"]
        if total:
            shares[k["name"]] = {"fp": 100 * k["fp_ops"] / total,
                                 "int": 100 * k["int_ops"] / total,
                                 "load": 100 * k["loads"] / total,
                                 "store": 100 * k["stores"] / total}
    return shares


class TestReportConsistency:
    """A report's shares are its own rows' arithmetic, exactly."""

    @pytest.fixture(scope="class", params=[1, 10], ids=["repeats-1", "repeats-10"])
    def report(self, request):
        g = gen_er_graph(48, 0.15, 4)
        x = gen_features(48, 6, 4)
        return instrumented_run(make_spec(dims=(6, 8, 8)), g, x,
                                repeats=request.param)

    def test_json_shares_are_the_rows(self, report):
        doc = json.loads(report_to_json(report))
        assert doc["time_share"] == rows_time_share(doc)
        assert doc["op_share"] == rows_op_share(doc)
        assert "other" in doc["time_share"] and "other" not in doc["op_share"]

    def test_parsed_shares_are_the_rows(self, report):
        doc = json.loads(report_to_json(report))
        parsed = parse_report_json(json.dumps(doc))
        assert parsed.time_share == rows_time_share(doc)
        assert parsed.op_share == rows_op_share(doc)

    def test_csv_time_share_is_the_json_time_share(self, report):
        doc = json.loads(report_to_json(report))
        rows = report_to_csv(report).strip().split("\n")[1:]
        assert {r.split(",")[0]: float(r.split(",")[3]) for r in rows} == \
            doc["time_share"]

    def test_edited_shares_read_back_from_the_rows(self, report):
        doc = json.loads(report_to_json(report))
        edited = {**doc, "time_share": {k: 0.0 for k in doc["time_share"]},
                  "op_share": {}}
        parsed = parse_report_json(json.dumps(edited))
        assert parsed.time_share == doc["time_share"]
        assert parsed.op_share == doc["op_share"]
        assert json.loads(report_to_json(parsed)) == doc


class TestDatasetSummary:
    def test_custom_record_synthesized(self, small_run):
        _, _, _, report = small_run
        assert report.dataset["name"] == "custom"
        assert report.dataset["num_nodes"] == 32

    def test_explicit_record_used(self):
        g = gen_er_graph(8, 0.2, 1)
        x = gen_features(8, 2, 1)
        record = DatasetRecord("er:8:0.2:1", "ER", 8, 2, g.num_edges,
                               "synthetic")
        report = instrumented_run(make_spec(dims=(2, 4)), g, x, repeats=1,
                                  dataset=record)
        assert report.dataset == record.summary()
