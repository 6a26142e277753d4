"""End-to-end acceptance gates for the full pipeline.

Each test below is one acceptance check with its tolerance stated inline;
the pytest -v line for each test is the pass/fail verdict. Heavy sweeps are
session-scoped fixtures, so each sweep runs once however many tests read it;
each sweep solves its own reference eigenpairs, as ``assqd bench`` does.
"""

from __future__ import annotations

import json
import math
import os
import statistics
import time

import numpy as np
import pytest
from click.testing import CliRunner

from conftest import counts_of, dense_matrix, random_hamiltonian

from assqd.acquisition import generate_candidates, score_candidates
from assqd.bench import (
    ABLATION_METHODS,
    DEFAULT_SEEDS,
    SCALING_METHODS,
    CSV_COLUMNS,
    ExperimentSpec,
    _sweep,
    experiment_hops,
)
from assqd.cli import main as cli_main
from assqd.models import ModelSpec, build_model
from assqd.oracle import exact_lowest
from assqd.sampling import (
    contaminated_distribution,
    counts_to_json,
    sample_counts,
)
from assqd.subspace import (
    Subspace,
    build_restricted,
    dominant_support,
    extend_restricted,
    lowest_eigenpair,
)

# ---------------------------------------------------------------------------
# Shared heavy fixtures: three sweeps and one hops study.
# ---------------------------------------------------------------------------


def _timed_sweep(spec: ExperimentSpec, methods):
    start = time.monotonic()
    rows, traces, bundles = _sweep(spec, methods)
    return {
        "rows": rows,
        "traces": traces,
        "bundles": bundles,
        "elapsed": time.monotonic() - start,
    }


@pytest.fixture(scope="session")
def sweep8():
    spec = ExperimentSpec(
        kind="heisenberg", sizes=(8,), seeds=DEFAULT_SEEDS, shots=2000
    )
    return _timed_sweep(spec, SCALING_METHODS)


@pytest.fixture(scope="session")
def sweep1012():
    spec = ExperimentSpec(kind="heisenberg", sizes=(10, 12), seeds=DEFAULT_SEEDS)
    return _timed_sweep(spec, SCALING_METHODS)


@pytest.fixture(scope="session")
def ablate12():
    spec = ExperimentSpec(kind="heisenberg", sizes=(12,), seeds=DEFAULT_SEEDS)
    return _timed_sweep(spec, ABLATION_METHODS)


@pytest.fixture(scope="session")
def hops12():
    spec = ExperimentSpec(kind="heisenberg", sizes=(12,), seeds=DEFAULT_SEEDS)
    start = time.monotonic()
    rows, stats = experiment_hops(spec)
    return {"rows": rows, "stats": stats, "elapsed": time.monotonic() - start}


def _median_err(rows, n: int, method: str) -> float:
    return statistics.median(
        [r.err for r in rows if (r.n, r.method) == (n, method)]
    )


# ---------------------------------------------------------------------------
# 01. Restricted matrix elements agree with the dense operator.
# ---------------------------------------------------------------------------


def test_01_matrix_elements_match_dense_oracle():
    rng = np.random.default_rng(20260819)
    start = time.monotonic()
    worst = 0.0
    for trial in range(50):
        n = int(rng.integers(1, 7))
        ham = random_hamiltonian(n, int(rng.integers(4, 21)), rng)
        dense = dense_matrix(ham)
        dim = 1 << n
        for k in range(dim):
            for j in range(dim):
                delta = abs(ham.matrix_element(k, j) - dense[k, j])
                worst = max(worst, delta)
        assert worst <= 1e-12, (
            f"trial {trial}: element mismatch {worst:.3e} beyond 1e-12"
        )
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"oracle-equivalence sweep took {elapsed:.1f}s (>= 10s)"
    print(f"PASS 01: 50 instances, max |element - dense| = {worst:.3e} "
          f"(tol 1e-12) in {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 02. Variational floor and monotone per-iteration traces, all runs.
# ---------------------------------------------------------------------------


def test_02_variational_floor_and_monotone_traces(sweep8, sweep1012, ablate12):
    checked = 0
    for sweep in (sweep8, sweep1012, ablate12):
        e0_by_instance = {
            key: bundle.pairs.e0 for key, bundle in sweep["bundles"].items()
        }
        for (model, n, seed, method, hops), trace in sweep["traces"].items():
            e0 = e0_by_instance[(n, seed)]
            energies = [r.energy for r in trace.records]
            assert all(e >= e0 - 1e-9 for e in energies), (
                f"{method} n={n} seed={seed}: E_S below exact floor"
            )
            assert all(
                b <= a + 1e-12 for a, b in zip(energies, energies[1:])
            ), f"{method} n={n} seed={seed}: trace not non-increasing"
            checked += 1
        for row in sweep["rows"]:
            assert row.E_est >= row.E0 - 1e-9
    print(f"PASS 02: floor >= E0 - 1e-9 and monotone within 1e-12 "
          f"across {checked} traces")


# ---------------------------------------------------------------------------
# 03. Completeness: the full basis reproduces the exact ground energy.
# ---------------------------------------------------------------------------


def test_03_full_basis_recovers_exact_ground_energy():
    worst = 0.0
    for kind in ("heisenberg", "tfim"):
        for n in (5, 6):
            ham, _ = build_model(ModelSpec(kind=kind, n=n, seed=0))
            exact = exact_lowest(ham)
            full = Subspace(states=tuple(range(1 << n)))
            sol = lowest_eigenpair(build_restricted(ham, full))
            gap = abs(sol.energy - exact.e0)
            worst = max(worst, gap)
            assert gap <= 1e-10, f"{kind} n={n}: |E_S - E0| = {gap:.3e} > 1e-10"
    print(f"PASS 03: full-basis gap <= {worst:.3e} (tol 1e-10) on both presets")


# ---------------------------------------------------------------------------
# 04. n=8 contaminated recovery: expansion reaches the exact energy.
# ---------------------------------------------------------------------------


def test_04_small_system_recovery_with_contamination(sweep8):
    med_as = _median_err(sweep8["rows"], 8, "as-en")
    med_rand = _median_err(sweep8["rows"], 8, "random")
    assert med_as <= 1e-8, f"median as-en error {med_as:.3e} > 1e-8"
    assert med_rand <= 1e-8, f"median random error {med_rand:.3e} > 1e-8"
    assert sweep8["elapsed"] < 60.0, (
        f"n=8 sweep took {sweep8['elapsed']:.1f}s (>= 60s)"
    )
    print(f"PASS 04: n=8 medians as-en={med_as:.2e} random={med_rand:.2e} "
          f"(tol 1e-8) in {sweep8['elapsed']:.1f}s")


# ---------------------------------------------------------------------------
# 05. Scaling: method ordering and 10x separation at n in {10, 12}.
# ---------------------------------------------------------------------------


def test_05_method_ordering_and_separation_at_scale(sweep1012):
    assert sweep1012["elapsed"] < 600.0, (
        f"scaling sweep took {sweep1012['elapsed']:.1f}s (>= 600s)"
    )
    summary = []
    for n in (10, 12):
        med_as = _median_err(sweep1012["rows"], n, "as-en")
        med_rand = _median_err(sweep1012["rows"], n, "random")
        med_std = _median_err(sweep1012["rows"], n, "standard")
        summary.append(
            f"n={n}: as-en={med_as:.4g} random={med_rand:.4g} "
            f"standard={med_std:.4g}"
        )
        assert med_as <= med_rand <= med_std, (
            f"n={n}: method ordering violated — as-en={med_as:.4g}, "
            f"random={med_rand:.4g}, standard={med_std:.4g}"
        )
        assert med_as <= 0.1 * med_std, (
            f"n={n}: median(as-en)={med_as:.4g} exceeds "
            f"0.1 x median(standard)={0.1 * med_std:.4g} "
            f"(ratio {med_as / med_std:.3f}); ordering holds but the "
            f"10x separation does not at this size with the default "
            f"budget (K=50, B=20, T=10)"
        )
    print("PASS 05: " + "; ".join(summary))


# ---------------------------------------------------------------------------
# 06. Ablation ordering at n=12: full score and coupling lead.
# ---------------------------------------------------------------------------


def test_06_acquisition_ablation_ordering(ablate12):
    rows = ablate12["rows"]
    med = {m: _median_err(rows, 12, m) for m in ABLATION_METHODS}
    en = med["as-en"]
    coupling = med["as-coupling_only"]
    denom = med["as-denom_only"]
    diag = med["as-diag_only"]

    # All variants start from the same sampled subspace per instance.
    first_energy: dict[tuple[int, int], set[float]] = {}
    for (model, n, seed, method, hops), trace in ablate12["traces"].items():
        first_energy.setdefault((n, seed), set()).add(trace.records[0].energy)
    assert all(len(v) == 1 for v in first_energy.values()), (
        "ablation variants diverge at the initial solve"
    )

    for label, value in (("as-en", en), ("as-coupling_only", coupling)):
        assert value <= denom, (
            f"median({label})={value:.4g} > median(denom_only)={denom:.4g}"
        )
        assert value <= diag, (
            f"median({label})={value:.4g} > median(diag_only)={diag:.4g}"
        )
    assert coupling <= 3.0 * en, (
        f"median(coupling_only)={coupling:.4g} > 3 x median(en)={3 * en:.4g}"
    )
    print(f"PASS 06: n=12 medians en={en:.4g} coupling={coupling:.4g} "
          f"denom={denom:.4g} diag={diag:.4g}; coupling/en = {coupling / en:.3f}")


@pytest.mark.skipif(
    not os.environ.get("ASSQD_ACCEPT_N16"),
    reason="n=16 ablation re-run is opt-in (set ASSQD_ACCEPT_N16=1; ~10 s)",
)
def test_06b_optional_ablation_at_n16():
    spec = ExperimentSpec(kind="heisenberg", sizes=(16,), seeds=DEFAULT_SEEDS)
    sweep = _timed_sweep(spec, ABLATION_METHODS)
    med = {m: _median_err(sweep["rows"], 16, m) for m in ABLATION_METHODS}
    for label in ("as-en", "as-coupling_only"):
        assert med[label] <= med["as-denom_only"]
        assert med[label] <= med["as-diag_only"]
    assert med["as-coupling_only"] <= 3.0 * med["as-en"]
    print(f"PASS 06b: n=16 medians {med} in {sweep['elapsed']:.0f}s")


# ---------------------------------------------------------------------------
# 07. Hop horizon: 1-hop reaches the threshold no slower than 2-hop.
# ---------------------------------------------------------------------------


def test_07_one_hop_converges_no_slower_than_two_hop(hops12):
    (entry,) = [s for s in hops12["stats"] if s["n"] == 12]
    one, two = entry["median_iters_1hop"], entry["median_iters_2hop"]
    assert one <= two, (
        f"1-hop median iterations-to-threshold {one} > 2-hop {two}"
    )
    assert all(r.E_est >= r.E0 - 1e-9 for r in hops12["rows"])
    label = lambda v: "unreached" if math.isinf(v) else f"{v:g}"
    print(f"PASS 07: n=12 median iterations to err<=1e-6 — "
          f"1-hop {label(one)} vs 2-hop {label(two)} (B=20)")


# ---------------------------------------------------------------------------
# 08. Sampler statistics: TV distance and exact totals at n=4.
# ---------------------------------------------------------------------------


def test_08_sampler_statistics_and_exact_totals():
    shots = 10**5
    worst_tv = 0.0
    for seed in (0, 1, 2):
        ham, _ = build_model(ModelSpec(kind="heisenberg", n=4, seed=seed))
        eig = exact_lowest(ham)
        model = contaminated_distribution(eig.psi0, eig.psi1, 0.2)
        counts = sample_counts(model, shots, seed=seed)
        assert counts.counts.sum() == shots, "counts do not sum to shots"
        empirical = np.zeros(1 << 4)
        empirical[counts.states] = counts.counts / shots
        exact = np.zeros(1 << 4)
        exact[model.states] = model.probs
        tv = 0.5 * float(np.abs(empirical - exact).sum())
        worst_tv = max(worst_tv, tv)
        assert tv <= 0.02, f"seed {seed}: TV distance {tv:.4f} > 0.02"
    print(f"PASS 08: worst TV distance {worst_tv:.4f} (tol 0.02) at {shots} shots; "
          f"totals exact")


# ---------------------------------------------------------------------------
# 09. EN ranking: the top-scored candidate beats the bottom-scored one.
# ---------------------------------------------------------------------------


def test_09_en_ranking_beats_bottom_ranked_additions():
    rng = np.random.default_rng(909)
    wins = 0
    trials = 0
    attempts = 0
    while trials < 200 and attempts < 2000:
        attempts += 1
        n = int(rng.integers(3, 7))
        ham = random_hamiltonian(n, int(rng.integers(8, 20)), rng)
        states = rng.choice(1 << n, size=4, replace=False)
        subspace = Subspace(states=tuple(int(s) for s in sorted(states)))
        try:
            matrix = build_restricted(ham, subspace)
            sol = lowest_eigenpair(matrix)
        except ValueError:
            continue  # e.g. all-zero restriction of a sparse instance
        dominant = dominant_support(sol, tau=0.0)
        candidates = generate_candidates(dominant)
        if len(candidates) < 2:
            continue
        scored = score_candidates("en", candidates)
        # argmax/argmin keep max()/min()'s first-extremum tie order.
        best = int(scored.states[np.argmax(scored.score)])
        worst = int(scored.states[np.argmin(scored.score)])
        if best == worst:
            continue
        e_top = lowest_eigenpair(extend_restricted(matrix, [best])).energy
        e_bot = lowest_eigenpair(extend_restricted(matrix, [worst])).energy
        trials += 1
        if e_top <= e_bot + 1e-12:
            wins += 1
    assert trials == 200, f"only {trials} usable instances in {attempts} attempts"
    rate = wins / trials
    assert rate >= 0.95, f"top-EN beat bottom-EN in only {rate:.1%} of 200 trials"
    print(f"PASS 09: top-EN addition won {wins}/200 trials ({rate:.1%} >= 95%)")


# ---------------------------------------------------------------------------
# 10. CLI determinism: identical flags reproduce identical tables.
# ---------------------------------------------------------------------------


def test_10_cli_reproducibility_byte_identical(tmp_path):
    runner = CliRunner()
    wall_idx = CSV_COLUMNS.index("wall_ms")

    def bench_to(path):
        result = runner.invoke(
            cli_main,
            ["--out", str(path), "bench", "--sizes", "4,6",
             "--seeds", "0,1,2", "--shots", "500"],
            catch_exceptions=False,
        )
        assert result.exit_code == 0, result.output
        return path.read_text()

    def mask_wall(text: str) -> str:
        # wall_ms is a live timing measurement; every other byte must match.
        lines = text.strip().split("\n")
        body = [
            ",".join(
                "_" if i == wall_idx else cell
                for i, cell in enumerate(line.split(","))
            )
            for line in lines[1:]
        ]
        return "\n".join([lines[0]] + body)

    first = bench_to(tmp_path / "a.csv")
    second = bench_to(tmp_path / "b.csv")
    assert mask_wall(first) == mask_wall(second), (
        "repeated bench invocation changed non-timing CSV content"
    )

    sample_args = ["--seed", "4", "sample", "heisenberg", "6", "--shots", "800"]
    s1 = runner.invoke(cli_main, sample_args, catch_exceptions=False)
    s2 = runner.invoke(cli_main, sample_args, catch_exceptions=False)
    assert s1.output == s2.output, "repeated sample invocation differed"
    rows = first.strip().split("\n")
    print(f"PASS 10: {len(rows) - 1}-row table byte-identical outside wall_ms; "
          f"counts byte-identical")


# ---------------------------------------------------------------------------
# 11. Hardware stand-in: 50% uniform-noise counts still recover E0 at n=8.
# ---------------------------------------------------------------------------


def test_11_noisy_ingest_recovers_ground_energy(tmp_path):
    ham, _ = build_model(ModelSpec(kind="heisenberg", n=8, seed=0))
    eig = exact_lowest(ham)
    rng = np.random.default_rng(1108)
    half = 1000
    signal = rng.choice(256, size=half, p=np.abs(eig.psi0) ** 2)
    noise = rng.integers(0, 256, size=half)
    tally: dict[int, int] = {}
    for s in np.concatenate([signal, noise]):
        tally[int(s)] = tally.get(int(s), 0) + 1
    counts_path = tmp_path / "device_counts.json"
    counts_path.write_text(
        counts_to_json(counts_of(tally, n=8))
    )

    runner = CliRunner()
    result = runner.invoke(
        cli_main,
        ["--seed", "0", "ingest", str(counts_path), "--kind", "heisenberg"],
        catch_exceptions=False,
    )
    assert result.exit_code == 0, result.output
    doc = json.loads(result.output)
    assert doc["err"] <= 1e-8, (
        f"ingest error {doc['err']:.3e} > 1e-8 under 50% uniform noise"
    )
    print(f"PASS 11: ingest err={doc['err']:.2e} (tol 1e-8), "
          f"termination={doc['termination']}, |S|={len(doc['final_subspace'])}")
