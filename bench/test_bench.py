"""Tests of the benchmark itself: span arithmetic, traced batches that change
no report content, and the record check against the pinned reference.

    python3 -m pytest bench
"""

import copy
import os
import shutil
import subprocess
import sys

import pytest

import run
import spans

SMALL_BATCHES = {
    "psl2": ["--family", "psl2", "--q", "4,11", "--seed", "0"],
    "dihedral": ["--family", "dihedral", "--q", "3,5,7",
                 "--checks", "tables,centralizers"],
}


def test_self_time_of_nested_spans():
    ticks = iter([0, 2, 5, 6, 7, 10])
    tracer = spans.Tracer(clock=lambda: next(ticks))
    inner = tracer.wrap("inner", lambda: None)

    def body():
        inner()
        inner()
    outer = tracer.wrap("outer", body)
    outer()
    # outer spans 0..10, the two inner calls 2..5 and 6..7
    assert tracer.self_time == {"outer": 6, "inner": 4}
    assert tracer.calls == {"outer": 1, "inner": 2}
    assert tracer.top_level == 10
    assert tracer.metrics(verify_s=12)["cli.other_s"] == 2


def test_span_closes_when_the_call_raises():
    ticks = iter([0, 1, 3, 4])
    tracer = spans.Tracer(clock=lambda: next(ticks))

    def fail():
        raise ValueError("boom")
    inner = tracer.wrap("inner", fail)

    def body():
        with pytest.raises(ValueError):
            inner()
    tracer.wrap("outer", body)()
    assert tracer.self_time == {"outer": 2, "inner": 2}
    assert tracer.top_level == 4


def _content(report):
    report = copy.deepcopy(report)
    del report["header"]["timestamp"]
    for record in report["records"]:
        del record["millis"]
    return report


@pytest.mark.parametrize("argv", SMALL_BATCHES.values(), ids=SMALL_BATCHES)
def test_traced_batch_matches_untraced(tmp_path, argv):
    deadline = run.now() + 150
    plain = run.run_child(str(tmp_path), deadline, "verify", argv)
    traced = [run.run_child(str(tmp_path), deadline, "trace", argv)
              for _ in range(2)]
    assert plain["rc"] == 0
    for t in traced:
        assert t["rc"] == 0
        assert _content(t["report"]) == _content(plain["report"])
        layers = t["layers"]
        self_time = sum(layers[f"{layer}_s"] for layer in spans.LAYERS)
        assert self_time + layers["cli.other_s"] == \
            pytest.approx(t["verify_s"], abs=1e-9)
    counters = [{k: v for k, v in t["layers"].items() if not k.endswith("_s")}
                for t in traced]
    assert counters[0] == counters[1]
    assert counters[0]["chars.inner_product_calls"] > 0


def test_altered_computed_value_is_a_failed_record():
    reference = run.load_reference("psl2-enum")
    report = {"records": [{"name": name, "computed": computed, "pass": True}
                          for name, computed in reference.items()]}
    assert run.failed_records(report, reference, rc=0) == 0

    altered = copy.deepcopy(report)
    brown = next(r for r in altered["records"] if r["name"].startswith("brown/"))
    brown["computed"] = "0 relations verified"      # still pass: true
    assert run.failed_records(altered, reference, rc=0) == 1

    failing = copy.deepcopy(report)
    failing["records"][0]["pass"] = False
    assert run.failed_records(failing, reference, rc=0) == 1

    missing = {"records": report["records"][1:]}
    assert run.failed_records(missing, reference, rc=0) == 1

    extra = {"records": report["records"] +
             [{"name": "extra", "computed": "", "pass": True}]}
    assert run.failed_records(extra, reference, rc=0) == 1

    assert run.failed_records(report, reference, rc=1) == len(reference)
    assert run.failed_records(None, reference, rc=0) == len(reference)


def test_batch_past_its_budget_fails_every_record(tmp_path):
    # no time left beyond the margin: the batch is stopped at once
    result = run.run_child(str(tmp_path), run.now() + run.MARGIN_S, "trace",
                           SMALL_BATCHES["psl2"])
    assert result["timed_out"] and result["rc"] == 1
    assert result["verify_s"] > 0 and "layers" in result
    reference = run.load_reference("psl2-enum")
    assert run.failed_records(result["report"], reference, result["rc"]) == \
        len(reference)


def test_run_without_sources_exits_nonzero(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), "--workload",
         "sz-exact", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""
