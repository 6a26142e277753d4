"""Tests for the benchmark's tracer and output checks (tiny instances)."""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parents[1]
for entry in (HERE, HERE.parent / "src"):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))

import assqd.bench as bench  # noqa: E402
from assqd.driver import RunConfig  # noqa: E402

import layertrace  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from workloads import Cell  # noqa: E402


def _bundle():
    return bench.prepare_instance("heisenberg", 6, 0, 500, bench.DEFAULT_ETA)


def _cell(bundle, method="as-en", hops=1):
    config = RunConfig(K=5, B=3, T=2, hops=hops, seed=0)
    row, _ = bench.make_row(bundle, method, config, 500, bench.DEFAULT_ETA)
    return row


def _current():
    out = {}
    for module, path, *_ in layertrace.TARGETS:
        owner, attr = layertrace._resolve(module, path)
        out[(module, path)] = getattr(owner, attr)
    return out


def test_untraced_run_sees_original_functions():
    originals = _current()
    tracer = layertrace.Tracer()
    with tracer.patched():
        patched = _current()
        traced_row = _cell(_bundle())
    assert all(patched[k] is not originals[k] for k in originals)
    restored = _current()
    assert all(restored[k] is originals[k] for k in originals)
    spans = len(tracer.spans)
    row = _cell(_bundle())
    assert len(tracer.spans) == spans
    assert row.E_est == traced_row.E_est


def test_spans_nest_under_the_driver_and_self_times_add_up():
    tracer = layertrace.Tracer()
    with tracer.patched():
        bundle = _bundle()
        _cell(bundle)
        _cell(bundle, hops=2)
    names = {span[0] for span in tracer.spans}
    assert {"bench.prepare_instance", "oracle.exact_lowest", "driver.run",
            "subspace.lowest_eigenpair", "acquisition.score_two_hop"} <= names
    by_index = tracer.spans
    for name, _, parent, start, end in by_index:
        assert end >= start
        if name == "subspace.lowest_eigenpair":
            assert by_index[parent][0] == "driver.run"
    times = tracer.self_times()
    assert times["oracle.exact_lowest.n6"]["calls"] == 1
    roots = sum(end - start for _, _, parent, start, end in by_index if parent < 0)
    total_self = sum(v["self_ms"] for k, v in times.items()
                     if k != "oracle.exact_lowest.n6")
    assert abs(total_self - roots * 1e3) < 1e-6 * max(1.0, roots * 1e3)
    assert tracer.counts["pauli.diagonal.calls"] > 0
    assert tracer.counts["acquisition.pool_size"] > 0


def test_missing_target_is_skipped_and_others_restored():
    original = bench.make_row
    targets = (
        ("assqd.bench", "no_such_function", "bench.none", layertrace.SPAN, None, None),
        ("assqd.bench", "make_row", "bench.make_row", layertrace.SPAN, None, None),
    )
    tracer = layertrace.Tracer()
    with tracer.patched(targets):
        assert bench.make_row is not original
    assert bench.make_row is original
    assert tracer.missing == ["assqd.bench.no_such_function"]


def test_checks_flag_floor_repeat_and_trace_mismatches():
    bundle = _bundle()
    row = _cell(bundle)
    key = ("heisenberg", 6, 0, "as-en", 1)
    good = [Cell(key, row, 1.0)]
    assert run.check_outputs([good, good], [good]) == []
    below = dataclasses.replace(row, E_est=row.E0 - 1e-6)
    assert "floor" in run.check_outputs([[Cell(key, below, 1.0)]], [])[0]
    nudged = dataclasses.replace(row, E_est=row.E_est + 1e-15)
    problems = run.check_outputs([good, [Cell(key, nudged, 1.0)]], [])
    assert problems and "repeat" in problems[0]
    problems = run.check_outputs([good], [[Cell(key, None, 0.0, "boom")]])
    assert problems and "trace" in problems[0]


def test_a_raising_call_fails_the_run(monkeypatch, tmp_path, capsys):
    def tiny(name, assqd, seeds):
        return workloads.Expand(assqd, seeds, (("as-en", 1),),
                                {"K": 5, "B": 3, "T": 2}, (("heisenberg", 6),))

    def floor_violation(*args, **kwargs):
        raise AssertionError("variational floor violated")

    monkeypatch.setattr(workloads, "make_workload", tiny)
    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setattr(run, "IMPORT_REPEATS", 0)
    monkeypatch.setattr(bench, "make_row", floor_violation)
    for var in run.BLAS_THREAD_VARS:  # main sets them; restore them afterwards
        monkeypatch.setenv(var, "1")
    code = run.main(["--workload", "expand-wide", "--seed", "0", "--seconds", "0.01"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 2


def test_latency_tail_keeps_ten_calls_beyond_and_never_undercuts_the_median():
    def cells(count):
        row = SimpleNamespace(terminated="converged")
        return [Cell(("k", i), row, float(i)) for i in range(count)]

    few = run.latency_stats(cells(18))
    assert few["tail"] == 17.0 and few["beyond"] == 0
    many = run.latency_stats(cells(100))
    assert many["tail"] == 89.0 and many["beyond"] == 10
    assert many["tail_pct"] == 90.0


def test_pass_cost_divides_each_unit_by_the_reference_runs_beside_it():
    def busy():
        sum(range(200_000))
        return []

    workload = SimpleNamespace(units=lambda: [busy, busy])
    refs = iter([1.0, 3.0, 1.0])
    times, results = run.timed_phase(workload, lambda: next(refs), 1, 0.0)
    assert results == [[]]
    assert times["cpu_s"] > 0
    # Both units see the kernel runs 1 and 3 beside them: each is halved.
    assert times["cost_ref"] == pytest.approx(times["cpu_s"] / 2)
    assert times["ref_ms"] == 1000.0
