"""Tests for contaminated sampling, the counts format, and top-K seeding."""

from __future__ import annotations

import json
import warnings

import numpy as np
import pytest

from assqd.pauli import MAX_QUBITS
from assqd.sampling import (
    CountsMultiset,
    ProbabilityModel,
    contaminated_distribution,
    counts_to_json,
    load_counts,
    parse_counts,
    sample_counts,
    top_k,
)


def frequencies(counts: CountsMultiset) -> np.ndarray:
    """Observed frequencies as a dense length-2^n vector."""
    probs = np.zeros(1 << counts.n)
    total = sum(counts.counts.values())
    for state, count in counts.counts.items():
        probs[state] = count / total
    return probs


def two_qubit_mix(eta: float) -> ProbabilityModel:
    psi0 = np.array([1.0, 0.0, 0.0, 0.0])
    psi1 = np.array([0.0, 0.0, 0.0, 1.0])
    return contaminated_distribution(psi0, psi1, eta)


class TestContaminatedDistribution:
    def test_eta_zero_is_ground_born_rule(self):
        rng = np.random.default_rng(2)
        psi0 = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        psi0 /= np.linalg.norm(psi0)
        psi1 = np.zeros(8)
        psi1[0] = 1.0
        model = contaminated_distribution(psi0, psi1, 0.0)
        assert np.allclose(model.probs, np.abs(psi0) ** 2)

    def test_eta_one_is_excited_born_rule(self):
        psi0 = np.array([1.0, 0.0])
        psi1 = np.array([0.0, 1.0])
        model = contaminated_distribution(psi0, psi1, 1.0)
        assert np.allclose(model.probs, [0.0, 1.0])

    def test_orthogonal_basis_states_mix(self):
        model = two_qubit_mix(0.2)
        assert np.allclose(model.probs, [0.8, 0.0, 0.0, 0.2])

    def test_normalization_invariant(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            n = int(rng.integers(1, 8))
            dim = 1 << n
            psi0 = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            psi1 = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            psi0 /= np.linalg.norm(psi0)
            psi1 /= np.linalg.norm(psi1)
            eta = float(rng.random())
            model = contaminated_distribution(psi0, psi1, eta)
            assert abs(model.probs.sum() - 1.0) <= 1e-10

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="dimension"):
            contaminated_distribution(np.ones(2), np.ones(4), 0.1)

    def test_eta_out_of_range_rejected(self):
        psi = np.array([1.0, 0.0])
        with pytest.raises(ValueError, match="eta"):
            contaminated_distribution(psi, psi, 1.5)

    def test_nan_amplitude_rejected(self):
        psi0 = np.array([np.nan, 0.5, 0.5, 0.5], dtype=complex)
        psi1 = np.array([0.0, 0.0, 0.0, 1.0])
        with pytest.raises(ValueError, match="finite"):
            contaminated_distribution(psi0, psi1, 0.1)

    # The mixed probabilities are checked before the division: an inf
    # amplitude once raised numpy's "invalid value encountered in divide"
    # first, and at eta = 1 the product 0 * inf warns too, as does the
    # square of 1e200 and the division of two zero vectors' mix.
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, 1e200])
    @pytest.mark.parametrize("eta", [0.0, 0.1, 1.0])
    def test_bad_amplitude_rejected_without_a_warning(self, bad, eta):
        psi0 = np.array([bad, 0.5, 0.5, 0.5], dtype=complex)
        psi1 = np.array([0.0, 0.0, 0.0, 1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for pair in ((psi0, psi1), (psi1, psi0), (np.zeros(4), np.zeros(4))):
                with pytest.raises(ValueError, match="finite with a positive sum"):
                    contaminated_distribution(*pair, eta)


class TestSampleCounts:
    def test_deterministic_distribution(self):
        probs = np.zeros(4)
        probs[2] = 1.0
        model = ProbabilityModel(probs)
        counts = sample_counts(model, 77, seed=0)
        assert counts.counts == {2: 77}
        assert sum(counts.counts.values()) == 77

    def test_same_seed_same_counts(self):
        model = two_qubit_mix(0.2)
        a = sample_counts(model, 1000, seed=5)
        b = sample_counts(model, 1000, seed=5)
        assert a.counts == b.counts

    def test_different_seed_differs(self):
        model = two_qubit_mix(0.2)
        a = sample_counts(model, 1000, seed=5)
        b = sample_counts(model, 1000, seed=6)
        assert a.counts != b.counts

    def test_shots_conserved(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            dim = 1 << int(rng.integers(1, 7))
            probs = rng.random(dim)
            probs /= probs.sum()
            model = ProbabilityModel(probs)
            shots = int(rng.integers(1, 5000))
            counts = sample_counts(model, shots, seed=int(rng.integers(1 << 30)))
            assert sum(counts.counts.values()) == shots

    def test_empirical_tv_distance(self):
        model = two_qubit_mix(0.2)
        counts = sample_counts(model, 100_000, seed=11)
        emp = frequencies(counts)
        tv = 0.5 * float(np.abs(emp - model.probs).sum())
        assert tv <= 0.01

    def test_zero_probability_states_never_drawn(self):
        model = two_qubit_mix(0.2)
        counts = sample_counts(model, 10_000, seed=3)
        assert set(counts.counts) <= {0, 3}

    def test_bad_shots_rejected(self):
        with pytest.raises(ValueError, match="shots"):
            sample_counts(two_qubit_mix(0.1), 0, seed=0)


class TestProbabilityModel:
    # NaN compares False both as p < 0 and as |sum - 1| > tol, so a NaN entry
    # once built a model that sampled every shot onto one state.
    @pytest.mark.parametrize("probs", [
        [np.nan, 0.5, 0.25, 0.25],
        [np.nan, np.nan, np.nan, np.nan],
        [np.inf, 0.0, 0.0, 0.0],
        [0.5, 0.5, -np.inf, np.inf],
    ])
    def test_non_finite_probability_rejected(self, probs):
        with pytest.raises(ValueError, match="finite"):
            ProbabilityModel(np.array(probs))

    def test_valid_probabilities_kept_as_given(self):
        probs = np.array([0.125, 0.0, 0.375, 0.5])
        model = ProbabilityModel(probs)
        assert model.probs.tobytes() == probs.tobytes()
        assert model.n == 2


class TestCountsFormat:
    def test_parse_basic(self):
        obj = {
            "n": 2,
            "bit_order": "qubit0_first",
            "counts": {"00": 500, "11": 300, "01": 200},
        }
        counts = parse_counts(obj)
        assert sum(counts.counts.values()) == 1000
        # "01" means qubit 0 = 0, qubit 1 = 1, so state value 2.
        assert counts.counts == {0: 500, 3: 300, 2: 200}

    def test_bit_order_conventions(self):
        first = parse_counts({"n": 2, "bit_order": "qubit0_first", "counts": {"10": 4}})
        last = parse_counts({"n": 2, "bit_order": "qubit0_last", "counts": {"10": 4}})
        assert first.counts == {1: 4}
        assert last.counts == {2: 4}

    def test_default_bit_order_is_qubit0_first(self):
        counts = parse_counts({"n": 3, "counts": {"100": 9}})
        assert counts.counts == {1: 9}

    def test_non_binary_key_named_in_error(self):
        with pytest.raises(ValueError, match="2X"):
            parse_counts({"n": 2, "counts": {"2X": 5}})

    def test_wrong_length_key_named_in_error(self):
        with pytest.raises(ValueError, match="101"):
            parse_counts({"n": 2, "counts": {"101": 5}})

    def test_nonpositive_count_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            parse_counts({"n": 2, "counts": {"01": 0}})
        with pytest.raises(ValueError, match="positive"):
            parse_counts({"n": 2, "counts": {"01": -3}})

    def test_count_past_int64_named_in_error(self):
        # top_k ranks the tallies as int64; the largest one still parses.
        assert parse_counts({"n": 2, "counts": {"01": 2**63 - 1}}).counts == {2: 2**63 - 1}
        with pytest.raises(ValueError, match="'01'"):
            parse_counts({"n": 2, "counts": {"10": 1, "01": 2**63}})

    @pytest.mark.parametrize("obj", [None, 5])
    def test_non_object_rejected(self, obj):
        with pytest.raises(ValueError, match="object"):
            parse_counts(obj)

    def test_boolean_count_rejected(self):
        with pytest.raises(ValueError, match="positive integer"):
            parse_counts({"n": 2, "counts": {"01": True}})

    @pytest.mark.parametrize("n", [True, False, 0, -1, MAX_QUBITS + 1, 2.0, "2", None])
    def test_n_outside_range_or_not_an_integer_rejected(self, n):
        with pytest.raises(ValueError, match="'n'"):
            parse_counts({"n": n, "counts": {"01": 2}})

    def test_n_at_max_qubits_accepted(self):
        counts = parse_counts({"n": MAX_QUBITS, "counts": {"1" * MAX_QUBITS: 3}})
        assert counts.counts == {(1 << MAX_QUBITS) - 1: 3}
        assert parse_counts(json.loads(counts_to_json(counts))) == counts

    def test_missing_n_rejected(self):
        with pytest.raises(ValueError, match="'n'"):
            parse_counts({"counts": {"01": 2}})

    def test_unknown_bit_order_rejected(self):
        with pytest.raises(ValueError, match="bit_order"):
            parse_counts({"n": 2, "bit_order": "msb", "counts": {"01": 2}})

    def test_round_trip(self, tmp_path):
        model = two_qubit_mix(0.2)
        counts = sample_counts(model, 1234, seed=9)
        path = tmp_path / "counts.json"
        path.write_text(counts_to_json(counts), encoding="utf-8")
        loaded = load_counts(str(path))
        assert loaded == counts

    def test_round_trip_qubit0_last(self):
        counts = CountsMultiset(counts={1: 3, 6: 2}, n=3)
        text = counts_to_json(counts, bit_order="qubit0_last")
        loaded = parse_counts(json.loads(text))
        assert loaded == counts

    def test_repeated_key_rejected(self, tmp_path):
        # json.load alone would keep the last tally, {1: 7}, and drop the 5.
        path = tmp_path / "repeat.json"
        path.write_text('{"n": 2, "counts": {"01": 5, "01": 7}}')
        with pytest.raises(ValueError, match="'01' repeats"):
            load_counts(str(path))

    def test_malformed_json_raises(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(json.JSONDecodeError):
            load_counts(str(path))


class TestTopK:
    def test_basic_ordering(self):
        counts = CountsMultiset(counts={0: 500, 3: 300, 2: 200}, n=2)
        assert top_k(counts, 2) == [0, 3]

    def test_tie_break_by_state_value(self):
        counts = CountsMultiset(counts={3: 500, 0: 500}, n=2)
        assert top_k(counts, 1) == [0]

    def test_k_exceeding_distinct_states(self):
        counts = CountsMultiset(counts={1: 5, 2: 3}, n=2)
        assert top_k(counts, 10) == [1, 2]

    def test_duplicate_free_and_sorted(self):
        rng = np.random.default_rng(15)
        for _ in range(10):
            n = int(rng.integers(2, 8))
            states = rng.choice(1 << n, size=min(20, 1 << n), replace=False)
            tallies = {int(s): int(rng.integers(1, 100)) for s in states}
            counts = CountsMultiset(counts=tallies, n=n)
            picked = top_k(counts, 7)
            assert len(picked) == len(set(picked))
            values = [tallies[s] for s in picked]
            assert values == sorted(values, reverse=True)
            # Nothing outside the selection beats anything inside it.
            if len(picked) < len(tallies):
                best_left_out = max(
                    v for s, v in tallies.items() if s not in set(picked)
                )
                assert best_left_out <= min(values)


class TestCountsMultisetInvariants:
    def test_out_of_range_state_rejected(self):
        with pytest.raises(ValueError, match="range"):
            CountsMultiset(counts={4: 5}, n=2)
