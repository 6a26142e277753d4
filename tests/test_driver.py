"""Tests for the expansion loop and its baselines."""

from __future__ import annotations

import contextlib
import json

import numpy as np
import pytest

import assqd.driver as driver_mod
import assqd.subspace as subspace_mod
from assqd.driver import (
    METHOD_KINDS,
    RunConfig,
    RunError,
    RunTrace,
    method_kind,
    method_label,
    run_as_sqd,
    run_random_sqd,
    run_standard_sqd,
    trace_record,
)
from assqd.models import DisorderInstance, ModelSpec, build_model, heisenberg_chain
from assqd.oracle import exact_lowest
from assqd.pauli import PauliHamiltonian, PauliTerm
from assqd.sampling import contaminated_distribution, sample_counts
from assqd.subspace import build_restricted, lowest_eigenpair
from conftest import counts_of


def record_shape(trace):
    """Trace contents with wall-clock stripped, for determinism checks."""
    return [
        (r.iteration, r.energy, r.subspace_size, r.pool_size) for r in trace.records
    ]


@pytest.fixture(scope="module")
def heisenberg8():
    spec = ModelSpec(kind="heisenberg", n=8, seed=0)
    ham, _ = build_model(spec)
    pairs = exact_lowest(ham)
    model = contaminated_distribution(pairs.psi0, pairs.psi1, 0.2)
    counts = sample_counts(model, 2000, seed=0)
    return ham, pairs, counts


class TestRunStandardSqd:
    def test_single_state_counts(self):
        ham, _ = build_model(ModelSpec(kind="heisenberg", n=4, seed=0))
        counts = counts_of({5: 10}, n=4)
        trace = run_standard_sqd(ham, counts, K=50)
        assert len(trace.records) == 1
        assert np.isclose(trace.final_energy, ham.diagonal(5))

    def test_full_basis_counts_reach_ground(self):
        ham, _ = build_model(ModelSpec(kind="tfim", n=5, seed=1))
        counts = counts_of({s: 1 for s in range(32)}, n=5)
        trace = run_standard_sqd(ham, counts, K=32)
        assert abs(trace.final_energy - exact_lowest(ham).e0) <= 1e-10

    def test_worse_than_expansion_on_same_counts(self, heisenberg8):
        ham, pairs, counts = heisenberg8
        standard = run_standard_sqd(ham, counts, K=50)
        expanded = run_as_sqd(ham, counts, RunConfig(seed=0))
        err_standard = standard.final_energy - pairs.e0
        err_expanded = expanded.final_energy - pairs.e0
        assert err_expanded < err_standard

    def test_is_the_loop_with_standard_kind(self, heisenberg8):
        ham, _, counts = heisenberg8
        standard = run_standard_sqd(ham, counts, K=50)
        via_config = run_as_sqd(ham, counts, RunConfig(kind="standard", T=5))
        assert len(via_config.records) == 1
        assert via_config.method == "standard"
        assert record_shape(via_config) == record_shape(standard)
        assert via_config.final_energy == standard.final_energy


class TestMethodLabels:
    def test_labels_and_round_trip(self):
        assert [method_label(k) for k in METHOD_KINDS] == [
            "standard", "as-en", "as-coupling_only", "as-denom_only",
            "as-diag_only", "random",
        ]
        for kind in METHOD_KINDS:
            assert method_kind(method_label(kind)) == kind

    @pytest.mark.parametrize("label", ["en", "as-random", "as-standard", "greedy"])
    def test_unknown_label_rejected(self, label):
        with pytest.raises(ValueError, match="unknown method"):
            method_kind(label)


class TestRunAsSqd:
    def test_diagonal_hamiltonian_terminates_immediately(self):
        ham = PauliHamiltonian(3, [PauliTerm(0, m, 1.0) for m in (1, 2, 4)])
        counts = counts_of({0: 5, 6: 3, 7: 2}, n=3)
        trace = run_as_sqd(ham, counts, RunConfig(K=3, B=2, T=5))
        assert trace.termination == "empty-candidates"
        assert trace.records[-1].iteration == 1
        assert trace.records[-1].pool_size == 0
        expected = min(ham.diagonal(s) for s in (0, 6, 7))
        assert np.isclose(trace.final_energy, expected)

    def test_two_site_singlet_recovery(self):
        ham = heisenberg_chain(2, 1.0, DisorderInstance((0.0, 0.0), 0))
        counts = counts_of({1: 1}, n=2)
        trace = run_as_sqd(ham, counts, RunConfig(K=1, B=4, T=2))
        assert np.isclose(trace.records[0].energy, -2.0)
        assert np.isclose(trace.records[1].energy, -6.0)
        assert trace.termination == "empty-candidates"
        assert np.isclose(trace.final_energy, -6.0)
        assert set(trace.final_subspace.states) == {1, 2}

    def test_budget_cap_and_growth(self, heisenberg8):
        ham, _, counts = heisenberg8
        config = RunConfig(K=20, B=5, T=6, seed=0)
        trace = run_as_sqd(ham, counts, config)
        assert len(trace.final_subspace) <= config.K + config.T * config.B
        sizes = [r.subspace_size for r in trace.records]
        for a, b in zip(sizes, sizes[1:]):
            if trace.termination == "budget":
                assert b > a

    def test_monotone_energies(self, heisenberg8):
        ham, _, counts = heisenberg8
        trace = run_as_sqd(ham, counts, RunConfig(seed=0))
        energies = [r.energy for r in trace.records]
        for a, b in zip(energies, energies[1:]):
            assert b <= a + 1e-12

    def test_variational_floor(self, heisenberg8):
        ham, pairs, counts = heisenberg8
        trace = run_as_sqd(ham, counts, RunConfig(seed=0))
        for r in trace.records:
            assert r.energy >= pairs.e0 - 1e-9

    def test_determinism(self, heisenberg8):
        ham, _, counts = heisenberg8
        config = RunConfig(seed=3)
        a = run_as_sqd(ham, counts, config)
        b = run_as_sqd(ham, counts, config)
        assert record_shape(a) == record_shape(b)
        assert a.final_subspace.states.tolist() == b.final_subspace.states.tolist()
        assert a.final_energy == b.final_energy

    def test_ablation_kinds_run(self, heisenberg8):
        ham, _, counts = heisenberg8
        for kind in ("coupling_only", "denom_only", "diag_only"):
            trace = run_as_sqd(ham, counts, RunConfig(kind=kind, T=3, seed=0))
            assert trace.method == f"as-{kind}"
            energies = [r.energy for r in trace.records]
            assert all(b <= a + 1e-12 for a, b in zip(energies, energies[1:]))

    def test_two_hop_runs_and_improves(self, heisenberg8):
        ham, pairs, counts = heisenberg8
        one = run_as_sqd(ham, counts, RunConfig(T=3, hops=1, seed=0))
        two = run_as_sqd(ham, counts, RunConfig(T=3, hops=2, seed=0))
        assert two.final_energy <= one.records[0].energy
        for r in two.records:
            assert r.energy >= pairs.e0 - 1e-9

    def test_warm_start_bytes_equal_first_order_formula(self, monkeypatch):
        # K = 50, B = 100, T = 8 on Heisenberg n = 12: the subspace grows
        # past DENSE_SOLVE_MAX, so the guesses reach Lanczos.
        ham, _ = build_model(ModelSpec(kind="heisenberg", n=12, seed=0))
        pairs = exact_lowest(ham)
        counts = sample_counts(contaminated_distribution(pairs.psi0, pairs.psi1, 0.2),
                               4000, seed=0)
        picks, solves = [], []
        real_select, real_solve = driver_mod.select_top_b, driver_mod.lowest_eigenpair

        def select(scored, B):
            picks.append(real_select(scored, B))
            return picks[-1]

        def solve(matrix, guess=None):
            solves.append((guess, real_solve(matrix, guess)))
            return solves[-1][1]

        monkeypatch.setattr(driver_mod, "select_top_b", select)
        monkeypatch.setattr(driver_mod, "lowest_eigenpair", solve)
        config = RunConfig(K=50, B=100, T=8, seed=0)
        run_as_sqd(ham, counts, config)
        assert len(solves[-1][1].subspace) > subspace_mod.DENSE_SOLVE_MAX
        assert len(solves) == len(picks) + 1 > 2
        for (_, prev), (guess, _), picked in zip(solves, solves[1:], picks):
            raw = prev.energy - picked.diagonal
            amplitude = picked.coupling / np.copysign(np.maximum(np.abs(raw), config.eps), raw)
            ref = np.concatenate([prev.coefficients, amplitude]).real
            assert guess.dtype == ref.dtype and guess.tobytes() == ref.tobytes()

    def test_solver_failure_carries_partial_records(self, heisenberg8, monkeypatch):
        ham, _, counts = heisenberg8
        real = driver_mod.lowest_eigenpair
        calls = {"n": 0}

        def flaky(matrix):
            calls["n"] += 1
            if calls["n"] >= 2:
                raise RuntimeError("synthetic failure")
            return real(matrix)

        monkeypatch.setattr(driver_mod, "lowest_eigenpair", flaky)
        with pytest.raises(RunError) as excinfo:
            run_as_sqd(ham, counts, RunConfig(seed=0))
        assert len(excinfo.value.records) == 1
        assert excinfo.value.records[0].iteration == 0


class TestRunRandomSqd:
    def test_same_seed_identical_trace(self, heisenberg8):
        ham, _, counts = heisenberg8
        a = run_random_sqd(ham, counts, RunConfig(seed=5))
        b = run_random_sqd(ham, counts, RunConfig(seed=5))
        assert record_shape(a) == record_shape(b)
        assert a.final_subspace.states.tolist() == b.final_subspace.states.tolist()

    def test_different_seed_differs(self, heisenberg8):
        ham, _, counts = heisenberg8
        a = run_random_sqd(ham, counts, RunConfig(seed=5))
        b = run_random_sqd(ham, counts, RunConfig(seed=6))
        assert a.final_subspace.states.tolist() != b.final_subspace.states.tolist()

    def test_method_label(self, heisenberg8):
        ham, _, counts = heisenberg8
        trace = run_random_sqd(ham, counts, RunConfig(T=2, seed=0))
        assert trace.method == "random"

    def test_oversized_b_matches_as_sqd_subspace(self):
        ham, _ = build_model(ModelSpec(kind="heisenberg", n=4, seed=2))
        counts = counts_of({0: 5, 3: 4}, n=4)
        config = RunConfig(K=2, B=500, T=3, seed=1)
        random_trace = run_random_sqd(ham, counts, config)
        as_trace = run_as_sqd(ham, counts, config)
        assert set(random_trace.final_subspace.states) == set(
            as_trace.final_subspace.states
        )


class TestTraceSerialization:
    def test_json_fields(self, heisenberg8):
        ham, pairs, counts = heisenberg8
        config = RunConfig(T=2, seed=0)
        trace = run_as_sqd(ham, counts, config)
        record = trace_record(
            trace, config, model_metadata={"kind": "heisenberg", "n": 8}, pairs=pairs
        )
        payload = json.loads(json.dumps(record))
        assert payload["method"] == "as-en"
        assert payload["config"]["K"] == 50
        assert payload["reference"] == {
            "e0": pairs.e0,
            "e1": pairs.e1,
            "degenerate_ground": pairs.degenerate_ground,
        }
        assert payload["final_energy"] == trace.records[-1].energy
        assert payload["err"] == abs(trace.final_energy - pairs.e0)
        assert list(payload)[-2:] == ["reference", "err"]
        assert len(payload["records"]) == len(trace.records)
        assert payload["final_subspace"] == list(trace.final_subspace.states)

        bare = trace_record(trace, config)
        assert bare["model"] is None
        assert bare["reference"] == {"e0": None, "e1": None, "degenerate_ground": None}
        assert bare["err"] is None

    def test_json_deterministic_modulo_wall_time(self, heisenberg8):
        ham, _, counts = heisenberg8
        config = RunConfig(T=2, seed=0)

        def masked(text):
            payload = json.loads(text)
            for r in payload["records"]:
                r.pop("wall_ms")
            return json.dumps(payload)

        a = json.dumps(trace_record(run_as_sqd(ham, counts, config), config))
        b = json.dumps(trace_record(run_as_sqd(ham, counts, config), config))
        assert masked(a) == masked(b)


class TestRunConfig:
    def test_defaults(self):
        config = RunConfig()
        assert (config.K, config.B, config.T) == (50, 20, 10)
        assert config.tau == 1e-4
        assert config.eps == 1e-8
        assert config.kind == "en"
        assert config.hops == 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"K": 0},
            {"B": 0},
            {"T": 0},
            {"tau": 1.0},
            {"tau": float("nan")},
            {"eps": 0.0},
            {"eps": float("nan")},
            {"eps": float("inf")},
            {"kind": "greedy"},
            {"hops": 3},
            {"seed": -1},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            RunConfig(**kwargs)

    def test_trace_monotonicity_enforced(self):
        from assqd.driver import IterationRecord
        from assqd.subspace import Subspace

        with pytest.raises(ValueError, match="non-increasing"):
            RunTrace(
                method="as-en",
                records=(
                    IterationRecord(0, -1.0, 1, 0, 0.0),
                    IterationRecord(1, -0.5, 2, 1, 0.0),
                ),
                final_subspace=Subspace((0, 1)),
                termination="budget",
            )

    # The bound scales with |E|: at the 350 -> 450-state step of the
    # Heisenberg n = 10 chain with every coefficient x1e3 (seed 0, B = 100,
    # T = 8), rounding raised the energy by 2.9e-11, 1.6e-15 relative.
    @pytest.mark.parametrize("energies, accepted", [
        ((-18580.145640208364, -18580.145640208335), True),
        ((-1.0, -1.0 + 2e-12), False),
    ])
    def test_trace_bound_scales_with_energy(self, energies, accepted):
        from assqd.driver import IterationRecord
        from assqd.subspace import Subspace

        records = tuple(IterationRecord(i, e, i + 1, i, 0.0) for i, e in enumerate(energies))
        with (contextlib.nullcontext() if accepted
              else pytest.raises(ValueError, match="non-increasing")):
            RunTrace(method="as-en", records=records,
                     final_subspace=Subspace((0, 1)), termination="budget")


class TestMaxQubits:
    """The expansion path at n = MAX_QUBITS, where states use bit 62."""

    @pytest.mark.parametrize("kind, hops", [("en", 1), ("random", 1), ("en", 2)])
    def test_63_qubit_heisenberg_run(self, kind, hops):
        ham, _ = build_model(ModelSpec(kind="heisenberg", n=63, seed=0))
        top, high = 2**63 - 2, 1 << 62
        counts = counts_of({top: 5, high: 3, high | 0b1010: 2, high | 0b0101: 1},
            n=63,
        )
        config = RunConfig(K=4, B=10, T=3, kind=kind, hops=hops, seed=1)
        trace = run_as_sqd(ham, counts, config)
        energies = [r.energy for r in trace.records]
        assert all(b <= a for a, b in zip(energies, energies[1:]))
        assert trace.termination == "budget"
        states = json.loads(json.dumps(trace_record(trace, config)))["final_subspace"]
        assert all(type(s) is int and 0 <= s < 2**63 for s in states)
        assert {top, high} <= set(states)
        assert len(set(states)) == len(states) == trace.records[-1].subspace_size
        added = states[4:]
        assert any(s >> 62 for s in added)
        # The literal elementwise matrix on the final subspace has the
        # trace's energy as its lowest eigenvalue.
        ref = np.array([[ham.matrix_element(a, b) for b in states] for a in states])
        assert np.isclose(np.linalg.eigvalsh(ref)[0], trace.final_energy, atol=1e-10)

    def test_63_qubit_run_past_the_solver_crossover(self, monkeypatch):
        ham, _ = build_model(ModelSpec(kind="heisenberg", n=63, seed=0))
        high = 1 << 62
        counts = counts_of({2**63 - 2: 5, high: 3, high | 0b1010: 2, high | 0b0101: 1},
            n=63,
        )
        trace = run_as_sqd(ham, counts, RunConfig(K=4, B=100, T=5, seed=1))
        final = trace.final_subspace
        assert len(final) > subspace_mod.DENSE_SOLVE_MAX
        assert any(s >> 62 for s in final.states[4:].tolist())
        # The same subspace solved on the dense route.
        monkeypatch.setattr(subspace_mod, "DENSE_SOLVE_MAX", len(final))
        dense = lowest_eigenpair(build_restricted(ham, final))
        assert abs(dense.energy - trace.final_energy) <= 1e-9
