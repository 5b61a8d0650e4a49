import importlib.util
import json
import os
import subprocess
import sys
import time
from dataclasses import replace

import numpy as np
import pytest

import repmoduli
import repmoduli.chars as chars
import repmoduli.cli as cli
import repmoduli.oscomplex as osc
from repmoduli.chars import (
    canonical, pack_terms, table_dihedral_odd, table_psl2_even, table_suzuki,
)
from repmoduli.cli import (
    UsageError, VerificationConfig, classify_q, main, parse_config,
    record_seeds, run,
)
from repmoduli.groups import ClassData, ClassLabel, IDENTITY, psl2_model

from gram_ref import group_ring_gram
from table_edits import repoint


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


def test_q_above_bound_exits_2_before_any_work():
    # a q above the bound is refused before it is factorized or any table
    # is built; unbounded, the first would factorize a 61-bit prime by
    # trial division and the second build a table for D_100000001
    for family, q in (("psl2", "2305843009213693951"),
                      ("dihedral", "100000001")):
        t0 = time.perf_counter()
        with pytest.raises(SystemExit) as e:
            main(["--family", family, "--q", q, "--checks", "tables"])
        assert e.value.code == 2 and time.perf_counter() - t0 < 2, family
    for family in ("psl2", "sz", "dihedral", "cyclic"):
        with pytest.raises(UsageError, match="bound 4096"):
            classify_q(family, 4097)
    assert classify_q("psl2", 4096) == "psl2_even"
    assert classify_q("dihedral", 4095) == "dihedral"


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


@pytest.mark.parametrize("extra, message", [
    (["--q", "4", "--checks", ","], "no check values given"),
    (["--q", "4", "--checks", ""], "no check values given"),
    (["--q", "8,8"], "q 8 given more than once"),
    (["--q", "4,11,4"], "q 4 given more than once"),
    (["--q", "4", "--checks", "tables,tables"],
     "check tables given more than once"),
    (["--q", "4", "--checks", "fusion, brown,fusion"],
     "check fusion given more than once"),
], ids=["comma", "empty", "q", "q-apart", "check", "check-apart"])
def test_empty_or_repeated_list_is_a_usage_error(capsys, extra, message):
    # no checks would write no records and pass; a repeat would write
    # every record of that value twice under one name
    with pytest.raises(SystemExit) as e:
        main(["--family", "psl2", "--out", os.devnull] + extra)
    assert e.value.code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("flag,env", [(["--seed", "-3"], None),
                                      ([], "-3")], ids=["flag", "env"])
def test_negative_seed_is_a_usage_error(monkeypatch, capsys, flag, env):
    # random.Random seeds with abs(seed): -3 would draw the points of 3
    if env is not None:
        monkeypatch.setenv("REPMODULI_SEED", env)
    with pytest.raises(SystemExit) as e:
        main(["--family", "psl2", "--q", "4", "--checks", "numerics",
              "--out", os.devnull] + flag)
    assert e.value.code == 2
    assert "--seed must be >= 0, got -3" in capsys.readouterr().err


def test_record_streams_differ_from_each_other_and_from_the_seed():
    import random
    firsts = [random.Random(s).random()
              for seed in (0, 1, 3) for s in [seed, *record_seeds(seed)]]
    assert len(set(firsts)) == len(firsts) == 12
    assert record_seeds(3) == record_seeds(3)


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


@pytest.mark.parametrize("family, q, reason", [
    ("dihedral", 5, "no orbit graph for this family"),
    ("cyclic", 6, "no orbit graph for this family"),
    ("sz", 8, "class-data model"),
    ("psl2", 512, "beyond field bound q <= 256"),
])
@pytest.mark.parametrize("check", ["fusion", "brown"])
def test_matrix_checks_skip_with_the_family_reason(family, q, reason, check):
    report = run(parse_config(["--family", family, "--q", str(q),
                               "--checks", check]))
    assert report.ok
    rec, = report.records
    assert rec.computed == f"skipped: {reason}"


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
    repoint(table_psl2_even(4), "theta_1", ClassLabel("c"),
            pack_terms(1, ((0, 1),)), monkeypatch.setattr)
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
    # chi_1 at r_1 alone: the restricted rows are no longer Galois-stable,
    # so the certificate refuses their Gram at that cell, and its error is
    # the record
    ("chi_1", ClassLabel("r", 1), pack_terms(7, ((2, 1), (-2, 1))),
     "centralizers/theta-balance-n7",
     "TableMismatch: Gram refused at cell (2,1) of the a-side"),
    # chi_1 at s: <Res_C2 chi_1, mu_0> = (2 + 1) / 2 is rational but not an
    # integer, so the check raises NonIntegralDimension
    ("chi_1", ClassLabel("s"), pack_terms(1, ((0, 1),)),
     "centralizers/theta-balance-n7", "NonIntegralDimension"),
])
def test_altered_dihedral_value_fails_theta_balance(
        monkeypatch, tmp_path, name, label, value, failure, computed):
    repoint(table_dihedral_odd(14), name, label, value, monkeypatch.setattr)
    out = tmp_path / "r.json"
    rc = main(["--family", "dihedral", "--q", "7", "--checks",
               "centralizers", "--out", str(out)])
    assert rc == 1
    rec = _records(out)[failure]
    assert rec["pass"] is False and computed in rec["computed"]


def test_reused_inner_products_do_not_hide_a_fault(monkeypatch, tmp_path):
    # restricted inner products are reused by value within a process, so a
    # moved fusion count or a changed stored value is a new key: each
    # mutated Sz(8) run fails exactly the records that a cold run fails
    cache = chars._REUSED
    real = chars.stored_fusion

    def moved(family, q, tag, param, labels):
        # the involution of C_2 counted as a second identity
        counts = real(family, q, tag, param, labels)
        if (family, tag, param) == ("sz", "cyclic", 2):
            counts[ClassLabel("sigma")] -= 1
            counts[ClassLabel("id")] += 1
        return counts

    def failing(name, cold=False):
        if cold:
            cache.clear()
        out = tmp_path / f"{name}.json"
        rc = main(["--family", "sz", "--q", "8", "--out", str(out)])
        return rc, {n: r["computed"] for n, r in _records(out).items()
                    if not r["pass"]}

    assert failing("clean") == (0, {})
    assert cache
    for mutate, expect in (
            (lambda m: [m.setattr(mod, "stored_fusion", moved)
                        for mod in (chars, cli)],
             "centralizers/sz-q8/involution-dim"),
            (lambda m: repoint(table_suzuki(8), "W_1", ClassLabel("sigma"),
                               pack_terms(1, ((0, 1),)), m.setattr),
             "tables/rows/sz-q8")):
        with monkeypatch.context() as m:
            mutate(m)
            rc, warm = failing("warm")
            assert rc == 1 and expect in warm
            assert (rc, warm) == failing("cold", cold=True)
    assert failing("clean-again") == (0, {})


_DIHEDRAL_SWEEP = ",".join(str(n) for n in range(3, 100, 2))
_BATCHES = [
    ("sz", "8,32,128", "tables,centralizers,moduli-dim,euler"),
    ("psl2", "4,8,11,19", "tables,centralizers,moduli-dim,euler"),
    ("dihedral", _DIHEDRAL_SWEEP, "tables,centralizers"),
    ("psl2", "27,43,59,67,83", "tables,centralizers,moduli-dim,euler"),
    ("psl2", "131,251,256", "tables,centralizers,euler"),
    ("cyclic", "1,2,12,64,99", "tables,centralizers"),
]


@pytest.mark.parametrize("family, qs, checks", _BATCHES, ids=[
    "sz-exact", "psl2-enum", "dihedral-sweep", "psl2-27-83", "psl2-131-256",
    "cyclic"])
def test_folded_grams_equal_unfolded(monkeypatch, tmp_path, family, qs,
                                     checks):
    # every Gram of the batch is Galois-certified (a refusal would fail a
    # record), and its sum by column orbits equals the group-ring reference
    real, grams = chars._gram, []

    def both(side_a, side_b, weights):
        total, den = real(side_a, side_b, weights)
        plain, plain_den = group_ring_gram(side_a, side_b, weights)
        assert den == plain_den and total.dtype == plain.dtype
        assert (total == plain).all()
        grams.append(total.shape)
        return total, den

    monkeypatch.setattr(chars, "_gram", both)
    chars._REUSED.clear()
    assert main(["--family", family, "--q", qs, "--checks", checks,
                 "--out", str(tmp_path / "r.json")]) == 0
    assert grams


def test_stored_values_are_distinct_and_read(monkeypatch, tmp_path):
    # every table that the batches build stores each value once, in one
    # canonical form, and its grid reads every one of them but for
    # psl2_odd's, which share the values of the sl2_odd table they fold
    built = []

    class Recorded(chars.CharacterTable):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    monkeypatch.setattr(chars, "CharacterTable", Recorded)
    for build in (chars.table_psl2_even, chars.table_sl2_odd,
                  chars.table_psl2_odd, chars.table_suzuki,
                  chars.table_dihedral_odd, chars.table_cyclic):
        build.cache_clear()
    for family, qs, checks in _BATCHES:
        assert main(["--family", family, "--q", qs, "--checks", checks,
                     "--out", str(tmp_path / "r.json")]) == 0
    assert {t.family for t in built} == {
        "sz", "psl2_even", "sl2_odd", "psl2_odd", "dihedral", "cyclic"}
    for t in built:
        assert len(set(map(canonical, t.values))) == len(t.values), t
        if t.family != "psl2_odd":
            assert set(t.grid.ravel().tolist()) == set(range(len(t.values))), t
    for build in (chars.table_psl2_even, chars.table_sl2_odd,
                  chars.table_psl2_odd, chars.table_suzuki,
                  chars.table_dihedral_odd, chars.table_cyclic):
        build.cache_clear()


def _failing_with_kernel_and_reference(monkeypatch, tmp_path, argv):
    """(exit code, failing records' texts) of a run with chars._gram and of
    one with the group-ring reference in its place."""
    out = []
    for kernel in (chars._gram, group_ring_gram):
        with monkeypatch.context() as m:
            m.setattr(chars, "_gram", kernel)
            chars._REUSED.clear()
            path = tmp_path / f"{kernel.__name__}.json"
            rc = main(argv + ["--out", str(path)])
            out.append((rc, {n: r["computed"] for n, r in
                             _records(path).items() if not r["pass"]}))
    chars._REUSED.clear()
    return out


@pytest.mark.parametrize("family, q, table, name, label, value, argv", [
    # chi_1 of D_198 at r^5 set to its value at r^7, inside the orbit of
    # the 30 columns r^k of conductor 99
    ("dihedral", 99, lambda: table_dihedral_odd(198), "chi_1",
     ClassLabel("r", 5), lambda t: t.by_name["chi_1"].value_at(
         ClassLabel("r", 7)), ["--checks", "tables,centralizers"]),
    # X_1 of Sz(128) at pi0^3 set to its value at pi0^2, inside the orbit
    # of the 63 columns pi0^a of conductor 127
    ("sz", 128, lambda: table_suzuki(128), "X_1", ClassLabel("pi0", 3),
     lambda t: t.by_name["X_1"].value_at(ClassLabel("pi0", 2)),
     ["--checks", "tables,centralizers,euler"]),
])
def test_changed_value_in_a_folded_orbit_fails_alike(
        monkeypatch, tmp_path, family, q, table, name, label, value, argv):
    t = table()
    side = t.values, t.grid
    chars._gram(side, side, t.sizes)    # the clean table's row Gram certifies
    repoint(t, name, label, value(t), monkeypatch.setattr)
    # the certificate refuses the edited table's row Gram; the reference
    # sums it and finds it is not rational
    side = t.values, t.grid
    with pytest.raises(chars.TableMismatch, match="Gram refused at cell"):
        chars._gram(side, side, t.sizes)
    with pytest.raises(chars.TableMismatch, match="not rational"):
        group_ring_gram(side, side, t.sizes)
    # the same records fail, each with the refusal on the one kernel
    kernel, reference = _failing_with_kernel_and_reference(
        monkeypatch, tmp_path, ["--family", family, "--q", str(q)] + argv)
    assert kernel[0] == reference[0] == 1 and kernel[1]
    assert kernel[1].keys() == reference[1].keys()
    assert all("Gram refused at cell" in text for text in kernel[1].values())


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
    each point's words in their own rho_tau_eval call, the words drawn a
    draw at a time from the record's word generator."""
    import random
    from repmoduli.chars import rho0_character, table_for
    from repmoduli.numerics import (
        h_action, random_h_point, random_moduli_point, realize_irreducible,
        rho_tau_eval,
    )
    fam = classify_q("psl2", q)
    model, table = psl2_model(q), table_for(fam, q)
    rep = realize_irreducible(model, table, rho0_character(table), seed=seed)
    graph = osc.build_orbit_graph(fam, q, model=model)
    pres = osc.brown_presentation(graph)
    nrng = random.Random(seed)
    rng = random.Random(cli.record_seeds(seed)[0])
    worst = 0.0
    for _ in range(draws):
        tau = random_moduli_point(graph, rep, nrng)
        moved = h_action(graph, rep, tau, random_h_point(graph, rep, nrng))
        ws = osc.random_word(pres, rng, 6, words)
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
        assert worst == _gauge_defect_per_draw(q)


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


def test_word_outside_kernel_fails_universal_record(monkeypatch, tmp_path):
    # one kernel word with one generator symbol appended, i_root(g) for an
    # element g != 1 of the root group, leaves ker(phi): the universal
    # point no longer sends every word to the identity
    real = osc.random_kernel_word

    def one_symbol_more(pres, rng, n):
        words = real(pres, rng, n)
        root = pres.graph.root
        g = next(x for x in pres.graph.vertices[root].sub.elements
                 if x != IDENTITY)
        words[n // 2] = list(words[n // 2]) + [pres.v(root, g)]
        return words

    monkeypatch.setattr(osc, "random_kernel_word", one_symbol_more)
    out = tmp_path / "r.json"
    rc = main(["--family", "psl2", "--q", "4", "--checks", "numerics",
               "--out", str(out)])
    assert rc == 1
    recs = _records(out)
    universal = recs.pop("numerics/psl2_even-q4/universal-point")
    assert universal["pass"] is False
    assert universal["computed"].startswith("defect")
    assert all(rec["pass"] for rec in recs.values())


def test_symbol_rows_built_once_per_graph(monkeypatch):
    # one orbit graph per q, and one table of symbol places per graph,
    # shared by every moduli point of that graph
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


def test_numerics_skip_beyond_numerics_bound():
    report = run(parse_config(["--family", "psl2", "--q", "107",
                               "--checks", "numerics"]))
    assert report.ok
    [skip] = report.records
    assert skip.name == "numerics/psl2_odd-q107"
    assert skip.computed == "skipped: beyond numerics bound"


def _run_fresh(code):
    """Run `code` in a fresh interpreter that imports this package; it
    passes by exiting 0."""
    src = os.path.dirname(os.path.dirname(repmoduli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_numerics_run_without_scipy():
    _run_fresh("""
import os, sys
from repmoduli.cli import main
rc = main(["--family", "psl2", "--q", "4", "--checks", "numerics",
           "--out", os.devnull])
sys.exit(3 if "scipy" in sys.modules else rc)
""")


def test_batches_leave_numpy_ma_unimported():
    # a plain np.unique or np.setdiff1d imports numpy.ma, which took 11-15
    # ms and 1.3 MB of peak RSS in a psl2 4,8,11,19 batch on a 2-vCPU Xeon
    code = """
import os, sys
from repmoduli.cli import main
for argv in (["--family", "psl2", "--q", "4,8,11,19"],
             ["--family", "dihedral", "--q",
              ",".join(map(str, range(3, 100, 2))),
              "--checks", "tables,centralizers"]):
    rc = main(argv + ["--seed", "0", "--out", os.devnull])
    if rc or "numpy.ma" in sys.modules:
        sys.exit(rc or 3)
"""
    _run_fresh(code)


def test_numerics_leave_numpy_random_unimported():
    # every draw comes from a random.Random; numpy.random took 6.2 MB
    # resident and 8.9 ms on first use in a psl2 4,8,11,19 batch
    _run_fresh("""
import os, sys
import repmoduli.cli
if "numpy.random" in sys.modules:
    sys.exit(3)
rc = repmoduli.cli.main(["--family", "psl2", "--q", "4,8,11,19", "--k", "0",
                         "--seed", "0", "--out", os.devnull])
sys.exit(rc or (4 if "numpy.random" in sys.modules else 0))
""")
