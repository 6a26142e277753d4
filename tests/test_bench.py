"""Sweep harness: instance preparation, rows, medians, serialization."""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import math
import statistics
import warnings

import pytest

from assqd.bench import (
    ABLATION_METHODS,
    DEFAULT_SEEDS,
    CSV_COLUMNS,
    ExperimentSpec,
    ResultRow,
    _medians,
    default_shots,
    experiment_ablation,
    experiment_hops,
    experiment_scaling,
    instance_key,
    iterations_to_threshold,
    make_row,
    prepare_instance,
    rows_to_csv,
)
import assqd.bench as bench_mod
from assqd.driver import (
    IterationRecord,
    RunConfig,
    RunError,
    RunTrace,
    run_as_sqd,
    run_standard_sqd,
)
from assqd.models import ModelSpec, build_model, metadata_record
from assqd.pauli import PauliHamiltonian, PauliTerm
from assqd.subspace import Subspace
from conftest import counts_of, run_below_floor


def _tiny_spec(**overrides) -> ExperimentSpec:
    base = dict(kind="heisenberg", sizes=(4,), seeds=(0, 1), shots=400)
    base.update(overrides)
    return ExperimentSpec(**base)


def _strip_wall(row: ResultRow) -> ResultRow:
    return dataclasses.replace(row, wall_ms=0.0)


class TestSpecAndHelpers:
    def test_default_shots_boundary(self):
        assert default_shots(10) == 2000
        assert default_shots(8) == 2000
        assert default_shots(12) == 3000
        assert default_shots(16) == 3000

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            ExperimentSpec(kind="heisenberg", sizes=(), seeds=(0,))
        with pytest.raises(ValueError):
            ExperimentSpec(kind="heisenberg", sizes=(22,), seeds=(0,))
        with pytest.raises(ValueError):
            ExperimentSpec(kind="heisenberg", sizes=(4,), seeds=())
        with pytest.raises(ValueError, match="seeds"):
            ExperimentSpec(kind="heisenberg", sizes=(4,), seeds=(0, 0, 1))
        with pytest.raises(ValueError, match="sizes"):
            ExperimentSpec(kind="heisenberg", sizes=(4, 4), seeds=(0,))

    @pytest.mark.parametrize("overrides, message", [
        ({"kind": "tfim2"}, "unknown model kind"),
        ({"seeds": (0, -1)}, "seed must be a nonnegative"),
    ])
    def test_spec_rejects_unknown_kind_and_negative_seed(self, overrides, message):
        with pytest.raises(ValueError, match=message):
            _tiny_spec(**overrides)

    @pytest.mark.parametrize("overrides", [
        {"eta": 1.5}, {"eta": -0.1}, {"eta": math.nan}, {"eta": math.inf},
        {"shots": 0},
    ])
    def test_spec_rejects_eta_and_shots_before_any_solve(self, overrides):
        with pytest.raises(ValueError, match=next(iter(overrides))):
            _tiny_spec(**overrides)

    def test_run_config_passthrough(self):
        budget = RunConfig(K=7, B=3, T=2, tau=1e-3, eps=1e-6)
        spec = _tiny_spec(seeds=(0,), budget=budget)
        rows, _, _ = bench_mod._sweep(spec, ("standard", "as-en"), hops=(1, 2))
        assert {(r.method, r.hops) for r in rows} == {
            (m, h) for m in ("standard", "as-en") for h in (1, 2)}
        for row in rows:
            assert (row.K, row.B, row.T) == (7, 3, 2)
            assert (row.tau, row.eps) == (1e-3, 1e-6)
            # The loop itself ran on the budget: at most T expansions of B.
            assert row.iters <= 2
            assert row.subspace_size <= 7 + 2 * 3

    def test_instance_key_stable_and_order_free(self):
        a = {"kind": "heisenberg", "n": 4, "seed": 0}
        b = {"seed": 0, "n": 4, "kind": "heisenberg"}
        assert instance_key(a) == instance_key(b)
        assert instance_key(a) != instance_key({**a, "seed": 1})


class TestInstancePreparation:
    def test_bundle_consistency(self):
        bundle = prepare_instance("heisenberg", 4, 0, 400, 0.2)
        assert bundle.ham.n == 4
        assert bundle.counts.counts.sum() == 400
        assert bundle.pairs.e0 <= bundle.pairs.e1
        assert bundle.spec == ModelSpec(kind="heisenberg", n=4, seed=0)
        ham, disorder = build_model(bundle.spec)
        assert ham == bundle.ham
        record = metadata_record(bundle.spec, disorder)
        assert (record["kind"], record["seed"]) == ("heisenberg", 0)

    def test_oracle_cache_reused(self):
        cache: dict = {}
        first = prepare_instance("heisenberg", 4, 0, 400, 0.2, cache)
        second = prepare_instance("heisenberg", 4, 0, 400, 0.2, cache)
        assert second.pairs is first.pairs
        assert len(cache) == 1

    def test_distinct_seeds_draw_distinct_instances(self):
        a = prepare_instance("heisenberg", 4, 0, 400, 0.2)
        b = prepare_instance("heisenberg", 4, 1, 400, 0.2)
        records = [metadata_record(x.spec, build_model(x.spec)[1]) for x in (a, b)]
        assert records[0]["fields"] != records[1]["fields"]
        assert a.ham != b.ham

    def test_degenerate_ground_in_cache_warns(self):
        cache: dict = {}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            clean = prepare_instance("heisenberg", 4, 0, 400, 0.2, cache)
        (key,) = cache
        e0 = clean.pairs.e0
        cache[key] = dataclasses.replace(clean.pairs, energies=(e0, e0))
        with pytest.warns(UserWarning, match="degenerate ground space"):
            bundle = prepare_instance("heisenberg", 4, 0, 400, 0.2, cache)
        assert bundle.pairs is cache[key]


class TestMakeRow:
    def test_standard_row_fields(self):
        bundle = prepare_instance("heisenberg", 4, 0, 400, 0.2)
        cfg = RunConfig(K=10)
        row, trace = make_row(bundle, "standard", cfg, shots=400, eta=0.2)
        assert trace is not None
        assert row.method == "standard"
        assert row.err >= 0.0
        assert row.E0 == bundle.pairs.e0
        assert row.E1 == bundle.pairs.e1
        assert row.terminated == "budget"
        assert row.subspace_size == len(trace.final_subspace)

    def test_solver_failure_becomes_nan_row(self, monkeypatch):
        bundle = prepare_instance("heisenberg", 4, 0, 400, 0.2)

        def explode(*args, **kwargs):
            raise RunError("solver blew up", records=[])

        monkeypatch.setattr(bench_mod, "run_as_sqd", explode)
        row, trace = make_row(bundle, "as-en", RunConfig(), shots=400, eta=0.2)
        assert trace is None
        assert math.isnan(row.E_est) and math.isnan(row.err)
        assert row.terminated.startswith("error:")

    def test_floor_violation_is_refused(self, monkeypatch):
        # Raised past the catch that turns solver failures into rows, so a
        # sweep stops on it.
        bundle = prepare_instance("heisenberg", 4, 0, 400, 0.2)
        monkeypatch.setattr(bench_mod, "run_as_sqd", run_below_floor)
        with pytest.raises(RunError, match="^variational floor violated: E_est="):
            make_row(bundle, "as-en", RunConfig(), shots=400, eta=0.2)

    def test_nan_rows_do_not_poison_medians(self):
        bundle = prepare_instance("heisenberg", 4, 0, 400, 0.2)
        good, _ = make_row(bundle, "standard", RunConfig(K=10), shots=400, eta=0.2)
        bad = dataclasses.replace(
            good, err=math.nan, E_est=math.nan, terminated="error: x"
        )
        medians = _medians([good, bad, good])
        assert len(medians) == 1
        assert medians[0]["median_err"] == good.err


@pytest.fixture(scope="module")
def sweep():
    return experiment_scaling(_tiny_spec(sizes=(4, 6), seeds=(0, 1)))


class TestScalingSweep:
    def test_row_grid_complete(self, sweep):
        rows, _ = sweep
        assert len(rows) == 2 * 2 * 3  # sizes x seeds x methods
        cells = {(r.n, r.seed, r.method) for r in rows}
        assert len(cells) == len(rows)

    def test_shared_reference_per_instance(self, sweep):
        rows, _ = sweep
        by_instance: dict = {}
        for row in rows:
            by_instance.setdefault((row.n, row.seed), set()).add((row.E0, row.E1))
        assert all(len(refs) == 1 for refs in by_instance.values())

    def test_variational_floor_on_all_rows(self, sweep):
        rows, _ = sweep
        assert all(row.E_est >= row.E0 - 1e-9 for row in rows)

    def test_rows_sorted_deterministically(self, sweep):
        rows, _ = sweep
        key = [(r.model, r.n, r.seed, r.method, r.hops) for r in rows]
        assert key == sorted(key)

    def test_medians_grouped_per_method(self, sweep):
        rows, medians = sweep
        assert {m["method"] for m in medians} == {"standard", "random", "as-en"}
        for entry in medians:
            group = [
                r.err for r in rows
                if (r.n, r.method) == (entry["n"], entry["method"])
            ]
            assert entry["median_err"] == statistics.median(group)

    def test_rerun_reproduces_rows_modulo_timing(self, sweep):
        rows, _ = sweep
        again, _ = experiment_scaling(_tiny_spec(sizes=(4, 6), seeds=(0, 1)))
        assert list(map(_strip_wall, rows)) == list(map(_strip_wall, again))

    def test_uncontaminated_exhaustive_sampling_reaches_floor(self):
        # eta=0 with a huge shot budget covers the ground support at n=4,
        # so the unexpanded method alone already lands on the exact energy.
        rows, _ = experiment_scaling(
            _tiny_spec(sizes=(4,), seeds=(0,), shots=10**6, eta=0.0)
        )
        (standard,) = [r for r in rows if r.method == "standard"]
        assert standard.err <= 1e-8


class TestAblationSweep:
    def test_variants_and_shared_start(self):
        rows, medians = experiment_ablation(_tiny_spec(sizes=(6,), seeds=(0, 1)))
        assert {r.method for r in rows} == set(ABLATION_METHODS)
        assert len(rows) == len(ABLATION_METHODS) * 2
        assert {m["method"] for m in medians} == set(ABLATION_METHODS)

    def test_diag_only_on_diagonal_hamiltonian_matches_standard(self):
        ham = PauliHamiltonian(
            3, [PauliTerm(0, 1, 0.8), PauliTerm(0, 6, -1.3), PauliTerm(0, 7, 0.4)]
        )
        counts = counts_of({0: 5, 3: 4, 5: 3, 6: 2}, n=3)
        standard = run_standard_sqd(ham, counts, K=4)
        diag = run_as_sqd(ham, counts, RunConfig(K=4, kind="diag_only"))
        assert diag.final_energy == standard.final_energy
        assert diag.termination == "empty-candidates"


class TestHopsSweep:
    def test_rows_and_stats_shape(self):
        rows, stats = experiment_hops(_tiny_spec(sizes=(6,), seeds=(0, 1)))
        assert {r.hops for r in rows} == {1, 2}
        assert len(rows) == 4
        (entry,) = stats
        assert entry["n"] == 6
        assert entry["threshold"] == 1e-6
        assert len(entry["iters_1hop"]) == 2
        assert entry["median_iters_1hop"] <= entry["median_iters_2hop"]

    # A RunError becomes an error row (make_row); the stats skip that cell
    # as _medians does, keeping each arm's list aligned with the seeds.
    @pytest.mark.parametrize("failing", [(1,), (0, 1)])
    def test_failed_cell_is_kept_as_a_row_and_left_out_of_the_stats(
        self, monkeypatch, failing
    ):
        run = bench_mod.run_as_sqd

        def fail_two_hop(ham, counts, config):
            if config.hops == 2 and config.seed in failing:
                raise RunError("solver blew up", records=[])
            return run(ham, counts, config)

        monkeypatch.setattr(bench_mod, "run_as_sqd", fail_two_hop)
        rows, (entry,) = experiment_hops(_tiny_spec(sizes=(6,), seeds=(0, 1)))
        assert len(rows) == 4
        errors = [(r.seed, r.hops) for r in rows if r.terminated.startswith("error:")]
        assert errors == [(seed, 2) for seed in failing]
        assert None not in entry["iters_1hop"] and len(entry["iters_1hop"]) == 2
        assert [x is None for x in entry["iters_2hop"]] == [s in failing for s in (0, 1)]
        if failing == (1,):
            assert entry["median_iters_2hop"] == entry["iters_2hop"][0]
        else:
            assert entry["median_iters_2hop"] is None
        assert entry["median_iters_1hop"] == statistics.median(entry["iters_1hop"])

    def test_two_hop_pool_contains_one_hop_pool(self):
        bundle = prepare_instance("heisenberg", 6, 0, 400, 0.2)
        one = run_as_sqd(bundle.ham, bundle.counts, RunConfig(K=10, T=3, hops=1))
        two = run_as_sqd(bundle.ham, bundle.counts, RunConfig(K=10, T=3, hops=2))
        assert two.records[1].pool_size >= one.records[1].pool_size

    def test_diagonal_hamiltonian_arms_identical(self):
        ham = PauliHamiltonian(3, [PauliTerm(0, 3, -0.9), PauliTerm(0, 5, 0.2)])
        counts = counts_of({1: 4, 2: 3, 4: 2}, n=3)
        one = run_as_sqd(ham, counts, RunConfig(K=3, hops=1))
        two = run_as_sqd(ham, counts, RunConfig(K=3, hops=2))
        assert one.final_energy == two.final_energy
        assert one.final_subspace.states.tolist() == two.final_subspace.states.tolist()
        assert one.termination == two.termination == "empty-candidates"


class TestIterationsToThreshold:
    def _trace(self, energies, e0):
        records = tuple(
            IterationRecord(
                iteration=i, energy=e, subspace_size=4 + i, pool_size=3, wall_ms=0.1
            )
            for i, e in enumerate(energies)
        )
        subspace = Subspace(states=tuple(range(4 + len(energies) - 1)))
        return RunTrace(
            method="as-en",
            records=records,
            final_subspace=subspace,
            termination="budget",
        ), e0

    def test_first_crossing_iteration(self):
        trace, e0 = self._trace([1.0, 0.5, 1e-7, 1e-9], 0.0)
        assert iterations_to_threshold(trace, e0) == 2

    def test_never_crossing_reported_as_none(self):
        trace, e0 = self._trace([1.0, 0.5, 0.2], 0.0)
        assert iterations_to_threshold(trace, e0) is None


@pytest.fixture(scope="module")
def rows():
    table, _ = experiment_scaling(_tiny_spec())
    return table


class TestSerialization:
    def test_csv_header_and_shape(self, rows):
        text = rows_to_csv(rows)
        lines = text.strip().split("\n")
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == len(rows) + 1

    def test_csv_round_trip_exact(self, rows):
        parsed = list(csv.DictReader(io.StringIO(rows_to_csv(rows))))
        assert len(parsed) == len(rows)
        for record, row in zip(parsed, rows):
            for column in CSV_COLUMNS:
                value = getattr(row, column)
                if isinstance(value, float):
                    assert float(record[column]).hex() == float.hex(value), column
                else:
                    assert record[column] == str(value), column

    def test_csv_quotes_an_error_message_with_comma_and_quote(self, rows):
        message = 'error: candidates intersect the subspace: [1, 2] near "x"'
        row = dataclasses.replace(rows[0], E_est=math.nan, err=math.nan,
                                  terminated=message)
        (record,) = csv.DictReader(io.StringIO(rows_to_csv([row])))
        assert len(record) == 20 and None not in record
        assert record["terminated"] == message

    def test_json_round_trip_exact(self, rows):
        # The row records that `--format json` prints parse back exactly.
        text = json.dumps([dataclasses.asdict(row) for row in rows])
        assert [ResultRow(**record) for record in json.loads(text)] == rows
