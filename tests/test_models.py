"""Tests for the benchmark model builders."""

from __future__ import annotations

import json

import numpy as np
import pytest
import scipy.linalg

from assqd.models import (
    DisorderInstance,
    ModelSpec,
    build_model,
    draw_disorder,
    heisenberg_chain,
    metadata_record,
    tfim_chain,
)


def lowest_eigenvalue(ham) -> float:
    return float(scipy.linalg.eigvalsh(ham.dense_matrix())[0])


class TestDrawDisorder:
    def test_zero_std_gives_exact_zeros(self):
        d = draw_disorder(5, 0.0, 42)
        assert d.fields == (0.0,) * 5

    def test_determinism(self):
        a = draw_disorder(20, 0.5, 7)
        b = draw_disorder(20, 0.5, 7)
        assert a.fields == b.fields

    def test_different_seeds_differ(self):
        assert draw_disorder(10, 0.5, 0).fields != draw_disorder(10, 0.5, 1).fields

    def test_statistics(self):
        d = draw_disorder(100_000, 0.5, 123)
        arr = np.array(d.fields)
        assert abs(arr.mean()) < 0.01
        assert abs(arr.std() - 0.5) < 0.01

    def test_negative_std_rejected(self):
        with pytest.raises(ValueError):
            draw_disorder(4, -0.1, 0)


class TestHeisenbergChain:
    def test_term_count_no_fields(self):
        d = DisorderInstance((0.0, 0.0, 0.0), 0)
        h = heisenberg_chain(3, 1.0, d)
        assert len(h.terms) == 9

    def test_term_count_with_fields(self):
        d = draw_disorder(5, 0.5, 3)
        h = heisenberg_chain(5, 1.0, d)
        # 3n bonds plus one Z per nonzero field, no duplicates at n >= 3.
        assert len(h.terms) == 15 + sum(1 for f in d.fields if f != 0.0)

    def test_n2_bond_doubling(self):
        d = DisorderInstance((0.0, 0.0), 0)
        h = heisenberg_chain(2, 1.0, d)
        assert len(h.terms) == 3
        assert all(np.isclose(t.coefficient, 2.0) for t in h.terms)

    def test_n2_ground_energy(self):
        d = DisorderInstance((0.0, 0.0), 0)
        h = heisenberg_chain(2, 1.0, d)
        vals = scipy.linalg.eigvalsh(h.dense_matrix())
        assert np.isclose(vals[0], -6.0)
        assert np.isclose(vals[-1], 2.0)

    def test_n4_ground_energy(self):
        d = DisorderInstance((0.0,) * 4, 0)
        h = heisenberg_chain(4, 1.0, d)
        assert np.isclose(lowest_eigenvalue(h), -8.0)

    def test_clean_chain_conserves_magnetization(self):
        # With no fields the dense matrix is block-diagonal in Hamming
        # weight: XX+YY amplitudes cancel between sectors exactly.
        d = DisorderInstance((0.0,) * 5, 0)
        dense = heisenberg_chain(5, 1.0, d).dense_matrix()
        pops = np.bitwise_count(np.arange(32))
        mask = pops[:, None] != pops[None, :]
        assert np.all(dense[mask] == 0.0)

    def test_field_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="fields"):
            heisenberg_chain(4, 1.0, DisorderInstance((0.0,) * 3, 0))


class TestTfimChain:
    def test_term_count(self):
        d = DisorderInstance((0.0,) * 3, 0)
        h = tfim_chain(3, 1.0, 1.0, d)
        assert len(h.terms) == 6

    def test_n2_ferromagnetic_ground(self):
        d = DisorderInstance((0.0, 0.0), 0)
        h = tfim_chain(2, 1.0, 0.0, d)
        vals = scipy.linalg.eigvalsh(h.dense_matrix())
        assert np.isclose(vals[0], -2.0)
        assert np.isclose(vals[1], -2.0)

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_pure_transverse_field(self, n):
        d = DisorderInstance((0.0,) * n, 0)
        h = tfim_chain(n, 0.0, 1.0, d)
        assert np.isclose(lowest_eigenvalue(h), -float(n))

    def test_hermitian(self):
        disorder = draw_disorder(4, 0.5, 9)
        dense = tfim_chain(4, 1.0, 1.0, disorder).dense_matrix()
        assert np.allclose(dense, dense.conj().T)


class TestModelSpec:
    def test_invalid_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            ModelSpec(kind="ising2d", n=4, seed=0)

    def test_small_n_rejected(self):
        with pytest.raises(ValueError, match="n >= 2"):
            ModelSpec(kind="tfim", n=1, seed=0)

    def test_build_is_deterministic(self):
        spec = ModelSpec(kind="heisenberg", n=6, seed=4)
        h1, d1 = build_model(spec)
        h2, d2 = build_model(spec)
        assert d1 == d2
        assert h1.terms == h2.terms

    def test_kinds_draw_independent_disorder(self):
        heis = build_model(ModelSpec(kind="heisenberg", n=6, seed=4))[1]
        tfim = build_model(ModelSpec(kind="tfim", n=6, seed=4))[1]
        assert heis.fields != tfim.fields

    def test_metadata_round_trip(self):
        spec = ModelSpec(kind="tfim", n=5, seed=11)
        ham, disorder = build_model(spec)
        # The record is written as JSON (the `.meta.json` sidecar); read
        # back, it pins the spec, the drawn fields and the Hamiltonian.
        record = json.loads(json.dumps(metadata_record(spec, disorder)))
        assert ModelSpec(record["kind"], record["n"], record["seed"]) == spec
        disorder2 = DisorderInstance(tuple(record["fields"]), record["field_seed"])
        assert disorder2 == disorder
        h2 = tfim_chain(spec.n, record["J"], record["transverse_field"], disorder2)
        assert h2.terms == ham.terms
