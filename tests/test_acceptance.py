"""Acceptance suite: each test enforces one release criterion at its stated
tolerance and prints a PASS/FAIL line (run with ``pytest -s`` to see them).
"""

import contextlib
import json
import time

import numpy as np
import pytest

from conftest import one_layer
from oracles import csr_to_coo, csr_to_dense, dense_from_csr, dense_layer, \
    naive_matmul, to_lists
from test_bench import predict_counters
from test_cli import strip_timing

from gnnbench import cli
from gnnbench.data import gen_er_graph, gen_features
from gnnbench.graph import CooGraph, coo_to_csr, coo_to_dense
from gnnbench.kernels import sgemm, spmm
from gnnbench.models import (
    PIPELINES,
    Activation,
    CompModel,
    Model,
    ModelSpec,
    forward,
    init_weights,
)

NS = [8, 64, 256]
PS = [0.05, 0.2]
FS = [1, 16]
HIDDEN = 8
GRAPH_SEED = 42
EPS = 0.5

PIPELINE_NAMES = sorted(f"{m.value}-{c.value}" for m, c in PIPELINES)


@contextlib.contextmanager
def criterion(num, description):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num} FAIL: {description}")
        raise
    print(f"ACCEPTANCE {num} PASS: {description}")


@pytest.fixture(scope="module")
def instances():
    out = {}
    for n in NS:
        for p in PS:
            g = gen_er_graph(n, p, GRAPH_SEED)
            for f in FS:
                out[(n, p, f)] = (g, gen_features(n, f, GRAPH_SEED))
    return out


def spec_pair(model, f_in, seed=GRAPH_SEED):
    dims = (f_in, HIDDEN, HIDDEN)
    mp = ModelSpec(Model(model), CompModel.MP, 2, dims, Activation.RELU,
                   EPS, seed)
    sp = ModelSpec(Model(model), CompModel.SPMM, 2, dims, Activation.RELU,
                   EPS, seed)
    return mp, sp


def test_criterion_1_cross_model_equivalence(instances):
    with criterion(1, "2-layer MP vs SpMM equivalence for every model"):
        started = time.perf_counter()
        for model in (m.value for m in Model):
            for (n, p, f), (g, x) in instances.items():
                mp_spec, sp_spec = spec_pair(model, f)
                params = init_weights(mp_spec)
                for precision, tol in (("f64", 1e-9), ("f32", 1e-4)):
                    dtype = np.float64 if precision == "f64" else np.float32
                    gt = g.astype(dtype)
                    xt = x.astype(dtype)
                    pt = [q.astype(dtype) for q in params]
                    a = forward(mp_spec, pt, gt, xt)
                    b = forward(sp_spec, pt, gt, xt)
                    diff = float(np.abs(a.astype(np.float64)
                                        - b.astype(np.float64)).max())
                    assert diff <= tol, (model, n, p, f, precision, diff)
        elapsed = time.perf_counter() - started
        assert elapsed < 10.0, f"criterion 1 took {elapsed:.1f}s"


def test_criterion_2_dense_oracle_equivalence(instances):
    with criterion(2, "every one-layer pipeline matches its dense equation"):
        for (n, p, f), (g, x) in instances.items():
            for name in PIPELINE_NAMES:
                model = name.split("-")[0]
                spec = ModelSpec(Model(model), CompModel.MP, 1, (f, HIDDEN),
                                 Activation.RELU, EPS, GRAPH_SEED)
                (params,) = init_weights(spec)
                got = one_layer(name, g, x, params, Activation.RELU, EPS)
                want = np.array(dense_layer(model, g, x, params, "relu", EPS))
                diff = float(np.abs(got - want).max())
                assert diff <= 1e-9, (name, n, p, f, diff)


def test_criterion_3_permutation_equivariance():
    with criterion(3, "20 random permutations leave every one-layer pipeline "
                      "equivariant"):
        g = gen_er_graph(64, 0.1, GRAPH_SEED)
        x = gen_features(64, 16, GRAPH_SEED)
        rng = np.random.default_rng(7)
        for trial in range(20):
            perm = rng.permutation(64)
            inv = np.argsort(perm)
            pg = CooGraph(64, perm[g.src], perm[g.dst], g.weights)
            px = x[inv]
            for name in PIPELINE_NAMES:
                model = name.split("-")[0]
                spec = ModelSpec(Model(model), CompModel.MP, 1, (16, HIDDEN),
                                 Activation.RELU, EPS, trial)
                (params,) = init_weights(spec)
                out = one_layer(name, g, x, params, Activation.RELU, EPS)
                out_p = one_layer(name, pg, px, params, Activation.RELU, EPS)
                diff = float(np.abs(out_p - out[inv]).max())
                assert diff <= 1e-9, (name, trial, diff)


def test_criterion_4_format_round_trips():
    with criterion(4, "100 random COO->CSR->COO round trips are bitwise exact"):
        rng = np.random.default_rng(11)
        for _ in range(100):
            n = int(rng.integers(1, 24))
            e = int(rng.integers(0, 64))
            g = CooGraph(n,
                         src=rng.integers(0, n, e),
                         dst=rng.integers(0, n, e),
                         weights=np.round(rng.uniform(-4, 4, e), 3))
            a = coo_to_csr(g)
            assert coo_to_csr(csr_to_coo(a)) == a
            assert coo_to_dense(g).tobytes() == csr_to_dense(a).tobytes()


def test_criterion_5_kernel_oracles():
    with criterion(5, "sgemm bitwise vs triple loop; spmm vs dense"):
        rng = np.random.default_rng(13)
        for _ in range(50):
            m, k, n = (int(v) for v in rng.integers(1, 11, 3))
            a = rng.standard_normal((m, k))
            b = rng.standard_normal((k, n))
            want = np.array(naive_matmul(to_lists(a), to_lists(b))).reshape(m, n)
            assert sgemm(a, b).tobytes() == want.tobytes()
        for seed in (3, 5, 9):
            a = coo_to_csr(gen_er_graph(24, 0.25, seed))
            x = gen_features(24, 6, seed)
            spmm_want = np.array(naive_matmul(dense_from_csr(a), to_lists(x)))
            assert np.abs(spmm(a, x) - spmm_want).max() <= 1e-12


def test_criterion_6_report_arithmetic():
    with criterion(6, "report shares normalize and counters match closed form"):
        from gnnbench.bench import instrumented_run
        g = gen_er_graph(64, 0.3, 2)
        x = gen_features(64, 16, 2)
        for model, comp in PIPELINES:
            spec = ModelSpec(model, comp, 2, (16, HIDDEN, HIDDEN),
                             Activation.RELU, EPS, 0)
            report = instrumented_run(spec, g, x, repeats=3)
            assert abs(sum(report.time_share.values()) - 100.0) <= 0.1
            want = predict_counters(spec, g, x)
            got = {s.kernel: s.counters for s in report.per_kernel
                   if s.kernel != "other"}
            assert got == want, (model, comp)
            # compute-instruction mix: fp share of (fp + int), the
            # satisfiable form of the domination properties (loads equal
            # fp_ops for sgemm by formula, capping its 4-class share at 50)
            sg = got["sgemm"]
            assert sg.fp_ops / (sg.fp_ops + sg.int_ops) > 0.5
            assert report.op_share["sgemm"]["fp"] > report.op_share["sgemm"]["int"]
            if comp is CompModel.MP:
                for kernel in ("scatter", "index_select"):
                    c = got[kernel]
                    assert c.int_ops / (c.fp_ops + c.int_ops) >= 0.5, \
                        (model, kernel)
                    shares = report.op_share[kernel]
                    assert shares["int"] >= shares["fp"], (model, kernel)


def test_criterion_7_registry_fidelity(capsys):
    with criterion(7, "datasets subcommand prints the registry verbatim"):
        assert cli.main(["datasets"]) == 0
        out = capsys.readouterr().out
        expected_rows = [
            ("Cora", "CR", "2708", "1433", "5429"),
            ("CiteSeer", "CS", "3327", "3703", "4732"),
            ("PubMed", "PB", "19717", "500", "44438"),
            ("Reddit", "RD", "232965", "602", "11606919"),
            ("LiveJournal", "LJ", "4847571", "1", "68993773"),
        ]
        lines = out.splitlines()
        for name, short, nodes, feats, edges in expected_rows:
            row = next(l for l in lines if l.startswith(name))
            assert row.split() == [name, short, nodes, feats, edges]
        for short_form in ("(is)", "(sc)", "(sg)", "(sp)"):
            assert short_form in out


def test_criterion_8_methodology_default(capsys):
    with criterion(8, "default repeats is 3 and the report carries means"):
        assert cli.parse_config(["run"]).repeats == 3
        assert cli.main(["run", "--dataset", "er:16:0.2:1"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["repeats"] == 3
        assert all("mean_ns" in k for k in doc["kernels"])
        assert doc["end_to_end_ns"] > 0


def test_criterion_9_run_determinism(tmp_path):
    with criterion(9, "identical runs differ only in wall-time fields"):
        argv = ["run", "--dataset", "er:64:0.2:9", "--model", "gin",
                "--epsilon", "0.5", "--repeats", "3"]
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        assert cli.main(argv + ["--output", str(out_a)]) == 0
        assert cli.main(argv + ["--output", str(out_b)]) == 0
        doc_a = json.loads(out_a.read_text())
        doc_b = json.loads(out_b.read_text())
        assert strip_timing(doc_a) == strip_timing(doc_b)
        # numerical outputs are bitwise reproducible across fresh executions
        g = gen_er_graph(64, 0.2, 9)
        x = gen_features(64, 16, 9)
        spec = ModelSpec(Model.GIN, CompModel.MP, 2, (16, HIDDEN, HIDDEN),
                         Activation.RELU, 0.5, 0)
        params = init_weights(spec)
        assert forward(spec, params, g, x).tobytes() == \
            forward(spec, params, g, x).tobytes()
