import importlib.util
import json
import os
import subprocess
import sys
from dataclasses import replace

import pytest

import repmoduli
import repmoduli.cli as cli
import repmoduli.oscomplex as osc
from repmoduli.chars import (
    pack_terms, table_dihedral_odd, table_psl2_even,
)
from repmoduli.cli import (
    UsageError, VerificationConfig, classify_q, main, parse_config, run,
)
from repmoduli.groups import ClassData, ClassLabel, IDENTITY, psl2_model


def test_classify_q():
    assert classify_q("psl2", 4) == "psl2_even"
    assert classify_q("psl2", 32) == "psl2_even"
    assert classify_q("psl2", 11) == "psl2_odd"
    assert classify_q("psl2", 27) == "psl2_odd"
    assert classify_q("psl2", 243) == "psl2_odd"
    assert classify_q("sz", 8) == "sz"
    assert classify_q("sz", 2048) == "sz"
    assert classify_q("dihedral", 9) == "dihedral"
    for fam, q in [("psl2", 6), ("psl2", 7), ("psl2", 2), ("psl2", 1),
                   ("psl2", 9), ("psl2", 121), ("psl2", -5), ("sz", 16),
                   ("sz", 4), ("sz", 64), ("dihedral", 8), ("cyclic", 0)]:
        with pytest.raises(UsageError):
            classify_q(fam, q)


def test_usage_error_exit_code(monkeypatch):
    for extra in (["--q", "6"], ["--q", "abc"],
                  ["--q", "4", "--checks", "bogus"],
                  ["--q", "4", "--tol", "unitary=-1"],
                  ["--q", "4", "--tol", "unitary=nan"],
                  ["--q", "4", "--tol", "unitary=inf"],
                  ["--q", "4", "--tol", "character=abc"],
                  ["--q", "4", "--tol", "character"],
                  ["--q", "4", "--tol", "__init__=1"],
                  ["--q", "4", "--jobs", "2"], ["--q", "4", "--jobs", "0"]):
        with pytest.raises(SystemExit) as e:
            parse_config(["--family", "psl2"] + extra)
        assert e.value.code == 2, extra
    for var, value in (("REPMODULI_K", "x"), ("REPMODULI_JOBS", "2")):
        with monkeypatch.context() as env:
            env.setenv(var, value)
            with pytest.raises(SystemExit) as e:
                parse_config(["--family", "psl2", "--q", "4"])
        assert e.value.code == 2, var


def test_benchmark_command_lines_parse():
    # every batch that bench/run.py runs, with the flags it appends
    path = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "bench", "run.py")
    spec = importlib.util.spec_from_file_location("bench_run", path)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    assert bench.WORKLOADS
    for argv in bench.WORKLOADS.values():
        cfg = parse_config(argv + ["--seed", "0", "--jobs", "1"])
        assert cfg.seed == 0 and cfg.qs


def test_run_psl2_4_all_checks_passes():
    cfg = parse_config(["--family", "psl2", "--q", "4"])
    report = run(cfg)
    assert report.ok
    names = [r.name for r in report.records]
    assert any(n.startswith("tables/") for n in names)
    assert any(n.startswith("numerics/") for n in names)
    assert names == sorted(names)


def test_sz_numerics_skip_recorded():
    cfg = parse_config(["--family", "sz", "--q", "8",
                        "--checks", "tables,fusion,moduli-dim,numerics"])
    report = run(cfg)
    assert report.ok
    skip = [r for r in report.records if r.name == "numerics/sz-q8"]
    assert skip and "class-data model" in skip[0].computed


def test_report_schema_and_determinism(tmp_path):
    argv = ["--family", "psl2", "--q", "4", "--checks", "tables,moduli-dim",
            "--seed", "7"]
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    assert main(argv + ["--out", str(out1)]) == 0
    assert main(argv + ["--out", str(out2)]) == 0
    r1 = json.loads(out1.read_text())
    r2 = json.loads(out2.read_text())
    for r in (r1, r2):
        assert set(r["header"]) >= {"version", "seed", "timestamp"}
        assert r["header"]["seed"] == 7
        for rec in r["records"]:
            assert set(rec) == {"name", "anchor", "inputs", "expected",
                                "computed", "pass", "millis"}
    r1["header"].pop("timestamp")
    r2["header"].pop("timestamp")
    # millis can differ between runs; record everything else
    for r in (r1, r2):
        for rec in r["records"]:
            rec.pop("millis")
    assert r1 == r2


def test_failing_tolerance_gives_exit_1(capsys):
    for tol in ("character=1e-30", "unitary=1e-30"):
        rc = main(["--family", "psl2", "--q", "4", "--checks", "numerics",
                   "--tol", tol, "--format", "text"])
        assert rc == 1
        line, = [ln for ln in capsys.readouterr().out.splitlines()
                 if " numerics/psl2_even-q4/realization " in ln]
        assert line.startswith("FAIL ") and "ToleranceExceeded" in line, tol


def test_text_format_one_line_per_record(capsys):
    rc = main(["--family", "cyclic", "--q", "5,6", "--checks",
               "tables,centralizers", "--format", "text"])
    assert rc == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[-1] == "OVERALL PASS"
    assert all(line.startswith(("PASS", "FAIL", "repmoduli")) for line in out[:-1])


def test_env_overrides(monkeypatch):
    monkeypatch.setenv("REPMODULI_FAMILY", "dihedral")
    monkeypatch.setenv("REPMODULI_Q", "5")
    monkeypatch.setenv("REPMODULI_CHECKS", "tables")
    monkeypatch.setenv("REPMODULI_SEED", "42")
    cfg = parse_config([])
    assert cfg.family == "dihedral" and cfg.qs == [5]
    assert cfg.checks == ("tables",) and cfg.seed == 42


@pytest.mark.parametrize("runs", [1, 2])
def test_each_q_enumerated_once(runs):
    # the q values run one after another, so psl2_model's one-entry cache
    # gives fusion, brown and numerics of a q one shared model; it keeps
    # only the last q, so each further run builds every q once more
    psl2_model.cache_clear()
    cfg = parse_config(["--family", "psl2", "--q", "4,8,11",
                        "--checks", "fusion,brown,numerics"])
    for _ in range(runs):
        rep = run(cfg)
        assert all(r.passed for r in rep.records)
    assert psl2_model.cache_info().misses == 3 * runs


def test_cli_sets_one_blas_thread_unless_set():
    code = """
import os
import repmoduli.cli
print(*(os.environ[v] for v in
        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")))
"""
    src = os.path.dirname(os.path.dirname(repmoduli.__file__))
    for preset, expected in ((None, "1"), ("3", "3")):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src, os.environ.get("PYTHONPATH", "")]))
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS"):
            env.pop(var, None)
            if preset is not None:
                env[var] = preset
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == [expected] * 3, preset


def _records(path):
    return {r["name"]: r for r in json.loads(path.read_text())["records"]}


def _altered_fusion_fails_euler(monkeypatch, tmp_path, family, q, tag,
                                param, kind):
    # one more element of class `kind` in the fusion row of every cell
    # stabilizer (tag, param) that the Euler check reads
    real = osc.fusion_for

    def one_more(table, sub):
        fusion = real(table, sub)
        if (sub.tag, sub.param) == (tag, param):
            fusion = dict(fusion)
            fusion[ClassLabel(kind)] += 1
        return fusion

    monkeypatch.setattr(osc, "fusion_for", one_more)
    out = tmp_path / "r.json"
    rc = main(["--family", family, "--q", str(q), "--checks", "euler",
               "--out", str(out)])
    assert rc == 1
    rec, = _records(out).values()
    assert rec["pass"] is False and rec["computed"].startswith("fails at (")


def test_altered_fusion_count_fails_euler(monkeypatch, tmp_path):
    # a vertex stabilizer: the rhs weights
    _altered_fusion_fails_euler(monkeypatch, tmp_path, "psl2", 4,
                                "dihedral_split", 0, "c")


@pytest.mark.parametrize("family, q, tag, param, kind", [
    ("psl2", 4, "cyclic", 2, "c"),          # edge stabilizers: the lhs
    ("sz", 8, "dihedral_split", 0, "sigma"),
])
def test_altered_edge_or_suzuki_fusion_count_fails_euler(
        monkeypatch, tmp_path, family, q, tag, param, kind):
    _altered_fusion_fails_euler(monkeypatch, tmp_path, family, q, tag,
                                param, kind)


def test_altered_stored_fusion_fails_at_q27(monkeypatch, tmp_path):
    # PSL2(27)'s fusion is counted over its subgroups: one stored count of
    # its A4 row off by one must fail the fusion record
    real = cli.stored_fusion

    def one_more_unipotent(family, q, tag, param, labels):
        counts = real(family, q, tag, param, labels)
        if tag == "a4":
            counts[ClassLabel("c")] += 1
        return counts

    monkeypatch.setattr(cli, "stored_fusion", one_more_unipotent)
    out = tmp_path / "r.json"
    rc = main(["--family", "psl2", "--q", "27", "--checks", "fusion",
               "--out", str(out)])
    assert rc == 1
    rec = _records(out)["fusion/psl2_odd-q27"]
    assert rec["pass"] is False and rec["computed"] == "mismatch at ['a4']"


def test_swapped_suzuki_class_sizes_fail_the_tables(monkeypatch, tmp_path):
    # the Sz class sizes are stored apart from the table: swapping those of
    # sigma and rho keeps their sum |G| but must fail both orthogonality
    # checks of Sz(8)
    import repmoduli.chars as chars
    real = chars.class_data_model

    def swapped(family, q):
        model = real(family, q)
        if family == "sz":
            sizes = dict(model.class_sizes)
            sigma, rho = ClassLabel("sigma"), ClassLabel("rho")
            sizes[sigma], sizes[rho] = sizes[rho], sizes[sigma]
            model = replace(model, class_sizes=sizes)
        return model

    monkeypatch.setattr(chars, "class_data_model", swapped)
    chars.table_suzuki.cache_clear()
    try:
        out = tmp_path / "r.json"
        rc = main(["--family", "sz", "--q", "8", "--checks", "tables",
                   "--out", str(out)])
    finally:
        chars.table_suzuki.cache_clear()
    assert rc == 1
    recs = _records(out)
    assert recs["tables/rows/sz-q8"]["pass"] is False
    assert recs["tables/columns/sz-q8"]["pass"] is False


def test_altered_stored_fusion_fails_at_q131(monkeypatch, tmp_path):
    # above q = 83 the fusion rows are counted too: one stored count of the
    # Borel row of PSL2(131) off by one must fail the fusion record
    real = cli.stored_fusion

    def one_more_split(family, q, tag, param, labels):
        counts = real(family, q, tag, param, labels)
        if tag == "borel":
            counts[ClassLabel("a", 1)] += 1
        return counts

    monkeypatch.setattr(cli, "stored_fusion", one_more_split)
    out = tmp_path / "r.json"
    rc = main(["--family", "psl2", "--q", "131", "--checks", "fusion",
               "--out", str(out)])
    assert rc == 1
    rec = _records(out)["fusion/psl2_odd-q131"]
    assert rec["pass"] is False and rec["computed"] == "mismatch at ['borel']"


def test_brown_record_fails_when_verify_fails(monkeypatch, tmp_path):
    # the record verifies once, through brown_presentation, and takes its
    # expected count from the symbolic graph
    calls = []

    def verify_fails(self):
        calls.append(self)
        return False

    monkeypatch.setattr(osc.BrownPresentation, "verify", verify_fails)
    out = tmp_path / "r.json"
    rc = main(["--family", "psl2", "--q", "4", "--checks", "brown",
               "--out", str(out)])
    assert rc == 1
    assert len(calls) == 1
    rec = _records(out)["brown/psl2_even-q4"]
    assert rec["pass"] is False
    assert rec["computed"].startswith("error: NotFound")
    assert rec["expected"] == "9 relations verified"


def test_raising_column_check_fails_only_its_record(monkeypatch, tmp_path):
    real = cli.check_column_orthogonality

    def raises_on_psl2_odd(table):
        if table.family == "psl2_odd":
            raise RuntimeError("column check broke")
        return real(table)

    monkeypatch.setattr(cli, "check_column_orthogonality", raises_on_psl2_odd)
    out = tmp_path / "r.json"
    rc = main(["--family", "psl2", "--q", "4,11", "--checks", "tables",
               "--out", str(out)])
    assert rc == 1
    recs = _records(out)
    failed = recs.pop("tables/columns/psl2_odd-q11")
    assert failed["pass"] is False
    assert failed["computed"] == "error: RuntimeError: column check broke"
    assert sorted(recs) == [
        "tables/columns/psl2_even-q4", "tables/columns/sl2_odd-q11",
        "tables/rows/psl2_even-q4", "tables/rows/psl2_odd-q11",
        "tables/rows/sl2_odd-q11"]
    assert all(rec["pass"] for rec in recs.values())


def test_raising_centralizer_part_fails_only_that_part(monkeypatch,
                                                       tmp_path):
    # only the trivial-multiplicity part restricts to the split dihedral
    # subgroup's own table
    import repmoduli.chars as chars

    def broken(table):
        raise RuntimeError("restriction broke")

    monkeypatch.setattr(chars, "split_dihedral_restriction", broken)
    out = tmp_path / "r.json"
    rc = main(["--family", "psl2", "--q", "4", "--checks", "centralizers",
               "--out", str(out)])
    assert rc == 1
    recs = _records(out)
    failed = recs.pop("centralizers/psl2_even-q4/trivial-multiplicity")
    assert failed["pass"] is False
    assert failed["computed"] == "error: RuntimeError: restriction broke"
    assert len(recs) == 8 and all(rec["pass"] for rec in recs.values())


def test_flipped_stored_value_fails_tables(monkeypatch, tmp_path):
    # theta_1 of the cached PSL2(4) table is -1 at the involution class;
    # flip its stored entry to +1
    table = table_psl2_even(4)
    theta = table.by_name["theta_1"]
    packed = list(theta.packed)
    packed[table.index[ClassLabel("c")]] = pack_terms(1, ((0, 1),))
    monkeypatch.setattr(theta, "packed", tuple(packed))
    out = tmp_path / "r.json"
    rc = main(["--family", "psl2", "--q", "4", "--checks", "tables",
               "--out", str(out)])
    assert rc == 1
    rec = _records(out)["tables/rows/psl2_even-q4"]
    assert rec["pass"] is False and rec["computed"].startswith("mismatch: ")


@pytest.mark.parametrize("name, label, value, failure, computed", [
    # psi_2 is -1 at the reflections; +1 keeps every d integral but breaks
    # d(psi_2, Theta1) = d(psi_2, Theta2)
    ("psi_2", ClassLabel("s"), pack_terms(1, ((0, 1),)),
     "centralizers/theta-balance-n7", "(False, True)"),
    # chi_1 at r_1 alone: the restricted row is no longer Galois-stable, so
    # the check raises and its error is the record
    ("chi_1", ClassLabel("r", 1), pack_terms(7, ((2, 1), (-2, 1))),
     "centralizers/theta-balance-n7", "not rational"),
])
def test_altered_dihedral_value_fails_theta_balance(
        monkeypatch, tmp_path, name, label, value, failure, computed):
    table = table_dihedral_odd(14)
    chi = table.by_name[name]
    packed = list(chi.packed)
    packed[table.index[label]] = value
    monkeypatch.setattr(chi, "packed", tuple(packed))
    out = tmp_path / "r.json"
    rc = main(["--family", "dihedral", "--q", "7", "--checks",
               "centralizers", "--out", str(out)])
    assert rc == 1
    rec = _records(out)[failure]
    assert rec["pass"] is False and computed in rec["computed"]


def misdirect_closing_edge(graph):
    """Set the closing edge's g_e to the first element that conjugates G_e
    out of G_w (a wrong connecting element); a symbolic graph, which has no
    elements, is left as it is."""
    if not graph.concrete:
        return graph
    model, e = graph.model, graph.edges[-1]
    target = set(graph.vertices[e.w].sub.elements)
    e.g = next(g for g in model.scan()
               if any(model.conjugate(x, model.inv(g)) not in target
                      for x in e.sub.elements))
    return graph


def test_wrong_connecting_element_fails_brown(monkeypatch, tmp_path):
    real = cli.build_orbit_graph
    monkeypatch.setattr(cli, "build_orbit_graph",
                        lambda *a, **kw: misdirect_closing_edge(real(*a, **kw)))
    out = tmp_path / "r.json"
    rc = main(["--family", "psl2", "--q", "4", "--checks", "brown",
               "--out", str(out)])
    assert rc == 1
    rec = _records(out)["brown/psl2_even-q4"]
    assert rec["pass"] is False and "InvalidGraph" in rec["computed"]


def test_wrong_connecting_element_raises_without_asserts():
    # the same misdirected edge, checked by a `python -O` interpreter
    code = """
import sys
from repmoduli.groups import psl2_model
from repmoduli.oscomplex import InvalidGraph, build_orbit_graph, validate_graph
model = psl2_model(4)
graph = build_orbit_graph("psl2_even", 4, model=model)
e = graph.edges[-1]
target = set(graph.vertices[e.w].sub.elements)
e.g = next(g for g in model.scan()
           if any(model.conjugate(x, model.inv(g)) not in target
                  for x in e.sub.elements))
try:
    validate_graph(graph)
except InvalidGraph:
    sys.exit(3)
"""
    src = os.path.dirname(os.path.dirname(repmoduli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 3, proc.stderr


def test_numerics_leave_cached_state_unchanged(tmp_path):
    rc = main(["--family", "psl2", "--q", "4", "--checks", "numerics",
               "--out", str(tmp_path / "r.json")])
    assert rc == 0
    assert isinstance(table_psl2_even(4).model, ClassData)
    assert psl2_model(4) is psl2_model(4)


def test_action_tolerance_is_enforced(tmp_path):
    # random moduli points are unitary only to rounding, far above 1e-30
    out = tmp_path / "r.json"
    rc = main(["--family", "psl2", "--q", "4", "--checks", "numerics",
               "--tol", "action=1e-30", "--out", str(out)])
    assert rc == 1
    failed = [r for r in _records(out).values() if not r["pass"]]
    assert failed and all(r["name"].startswith("numerics/") for r in failed)


def test_one_failing_numerics_record_leaves_the_others(tmp_path):
    out = tmp_path / "r.json"
    rc = main(["--family", "psl2", "--q", "4", "--checks", "numerics",
               "--tol", "action=1e-30", "--out", str(out)])
    assert rc == 1
    recs = _records(out)
    for part in ("realization", "spectral", "commutant-ranks"):
        assert recs[f"numerics/psl2_even-q4/{part}"]["pass"] is True
    gauge = recs["numerics/psl2_even-q4/gauge-invariance"]
    assert gauge["pass"] is False
    assert "ToleranceExceeded" in gauge["computed"]


def test_failed_realization_fails_each_dependent_record(monkeypatch,
                                                        tmp_path):
    import repmoduli.numerics as num

    def broken(*args, **kwargs):
        raise num.ToleranceExceeded("unitarity 1.00e+00")

    monkeypatch.setattr(num, "realize_irreducible", broken)
    out = tmp_path / "r.json"
    rc = main(["--family", "psl2", "--q", "4", "--checks", "numerics",
               "--out", str(out)])
    assert rc == 1
    recs = _records(out)
    assert len(recs) == 6
    for name, rec in recs.items():
        assert rec["pass"] is False, name
        assert "realization failed: ToleranceExceeded" in rec["computed"]


def test_spectral_without_an_element_of_the_order_reads_not_found(
        monkeypatch, tmp_path):
    # an edge stabilizer with no element of its order leaves the spectral
    # split nothing to split by
    real = cli.build_orbit_graph

    def identity_only(*args, **kwargs):
        graph = real(*args, **kwargs)
        graph.edges[0].sub = replace(graph.edges[0].sub,
                                     elements=(IDENTITY,))
        return graph

    monkeypatch.setattr(cli, "build_orbit_graph", identity_only)
    out = tmp_path / "r.json"
    rc = main(["--family", "psl2", "--q", "4", "--checks", "numerics",
               "--out", str(out)])
    assert rc == 1
    rec = _records(out)["numerics/psl2_even-q4/spectral"]
    assert rec["pass"] is False
    assert rec["computed"].startswith("error: NotFound: ")


def _wrong_kappa(num, monkeypatch):
    real = num._scale_from_relations
    monkeypatch.setattr(num, "_scale_from_relations",
                        lambda w, n: -real(w, n))


def _other_weil_half(num, monkeypatch):
    # psi(x) = e(x / q): the odd functions then carry eta_2
    monkeypatch.setattr(num, "_weil_psi_scale", lambda p, n: 1)


def _wrong_nu(num, monkeypatch):
    real = num.KirillovModel._nu_exponent
    monkeypatch.setattr(num.KirillovModel, "_nu_exponent",
                        staticmethod(lambda q: 2 * real(q)))


@pytest.mark.parametrize("q,mutate", [
    (19, _wrong_kappa), (19, _other_weil_half), (8, _wrong_nu),
], ids=["kappa-sign", "weil-half", "nu-exponent"])
def test_wrong_model_constant_fails_numerics(monkeypatch, tmp_path, q,
                                             mutate):
    import repmoduli.numerics as num
    mutate(num, monkeypatch)
    out = tmp_path / "r.json"
    rc = main(["--family", "psl2", "--q", str(q), "--checks", "numerics",
               "--out", str(out)])
    assert rc == 1
    recs = _records(out)
    assert len(recs) == 6
    for name, rec in recs.items():
        assert rec["pass"] is False, name
        assert "realization failed: ToleranceExceeded" in rec["computed"]


def _gauge_defect_per_draw(q, seed=0, draws=20, words=50):
    """The gauge-invariance defect drawn and evaluated one draw at a time,
    each point's words in their own rho_tau_eval call."""
    import random
    import numpy as np
    from repmoduli.chars import rho0_character, table_for
    from repmoduli.numerics import (
        h_action, random_h_point, random_moduli_point, realize_irreducible,
        rho_tau_eval,
    )
    fam = classify_q("psl2", q)
    model, table = psl2_model(q), table_for(fam, q)
    rep = realize_irreducible(model, table, rho0_character(table), seed=seed)
    graph = osc.build_orbit_graph(fam, q, model=model)
    pres = osc.brown_presentation(graph, model)
    rng, nrng = random.Random(seed), np.random.default_rng(seed)
    worst = 0.0
    for _ in range(draws):
        tau = random_moduli_point(graph, rep, nrng)
        moved = h_action(graph, rep, tau, random_h_point(graph, rep, nrng))
        ws = [osc.random_word(pres, rng, 6) for _ in range(words)]
        worst = max(worst, float(np.max(np.abs(
            rho_tau_eval(pres, rep, tau, ws) -
            rho_tau_eval(pres, rep, moved, ws)))))
    return worst


def test_gauge_record_matches_per_draw_loop(monkeypatch):
    # the stacked draws of the gauge-invariance record give the defect of
    # the same draws taken one at a time
    import repmoduli.numerics as num
    seen = {}
    real = num.gauge_defect

    def spy(pres, *args, **kwargs):
        seen[pres.graph.q] = real(pres, *args, **kwargs)
        return seen[pres.graph.q]

    monkeypatch.setattr(num, "gauge_defect", spy)
    assert main(["--family", "psl2", "--q", "4,8,11,19", "--checks",
                 "numerics", "--out", os.devnull]) == 0
    assert sorted(seen) == [4, 8, 11, 19]
    for q, worst in seen.items():
        assert 0 < worst < 1e-12
        assert abs(worst - _gauge_defect_per_draw(q)) <= 1e-13


def test_perturbed_moved_point_fails_gauge_record(monkeypatch, tmp_path):
    # one draw's tau . alpha off by a phase on one edge: the words of that
    # draw differ at tau and at tau . alpha
    import numpy as np
    import repmoduli.numerics as num
    real = num.h_action

    def perturbed(*args, **kwargs):
        moved = real(*args, **kwargs)
        moved.mats[0] = moved.mats[0].copy()
        moved.mats[0][7] *= np.exp(0.1j)
        return moved

    monkeypatch.setattr(num, "h_action", perturbed)
    out = tmp_path / "r.json"
    rc = main(["--family", "psl2", "--q", "4", "--checks", "numerics",
               "--out", str(out)])
    assert rc == 1
    recs = _records(out)
    gauge = recs.pop("numerics/psl2_even-q4/gauge-invariance")
    assert gauge["pass"] is False and gauge["computed"].startswith("defect")
    assert all(rec["pass"] for rec in recs.values())


def test_symbol_rows_built_once_per_graph(monkeypatch):
    # one orbit graph per q, and one symbol -> row map per graph, shared by
    # every moduli point of that graph
    from functools import cached_property
    graphs, builds = [], []
    real_graph, real_rows = cli.build_orbit_graph, osc.OrbitGraph.word_symbols

    def graph(*args, **kwargs):
        graphs.append(real_graph(*args, **kwargs))
        return graphs[-1]

    def rows(self):
        builds.append(self)
        return real_rows.func(self)

    counted = cached_property(rows)
    counted.__set_name__(osc.OrbitGraph, "word_symbols")
    monkeypatch.setattr(cli, "build_orbit_graph", graph)
    monkeypatch.setattr(osc.OrbitGraph, "word_symbols", counted)
    report = run(parse_config(["--family", "psl2", "--q", "4,11",
                               "--checks", "numerics"]))
    assert report.ok
    assert len(graphs) == 2
    assert [id(g) for g in builds] == [id(g) for g in graphs]


def test_numerics_skip_beyond_enumeration_bound():
    report = run(parse_config(["--family", "psl2", "--q", "107",
                               "--checks", "numerics"]))
    assert report.ok
    [skip] = report.records
    assert skip.name == "numerics/psl2_odd-q107"
    assert skip.computed == "skipped: beyond numerics bound"


def test_numerics_run_without_scipy():
    code = """
import os, sys
from repmoduli.cli import main
rc = main(["--family", "psl2", "--q", "4", "--checks", "numerics",
           "--out", os.devnull])
sys.exit(3 if "scipy" in sys.modules else rc)
"""
    src = os.path.dirname(os.path.dirname(repmoduli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
