"""Tests for the symplectic Pauli encoding and matrix-element lookups."""

from __future__ import annotations

import numpy as np
import pytest

from assqd.models import DisorderInstance, heisenberg_chain
from assqd.pauli import (
    KERNEL_BLOCK,
    MAX_QUBITS,
    TABLE_MAX_BITS,
    PauliHamiltonian,
    PauliTerm,
    format_hamiltonian,
    parse_hamiltonian,
)
from conftest import random_hamiltonian


def _act(term: PauliTerm, n: int, state: int) -> tuple[int, complex]:
    """(target, amplitude) of one term on |state>, read as <target|H|state>."""
    target = state ^ term.x_mask
    return target, PauliHamiltonian(n, [term]).matrix_element(target, state)


class TestPauliTerm:
    def test_single_qubit_actions(self):
        x = PauliTerm.from_word(1.0, "X")
        y = PauliTerm.from_word(1.0, "Y")
        z = PauliTerm.from_word(1.0, "Z")
        ident = PauliTerm.from_word(1.0, "I")

        assert _act(x, 1, 0) == (1, 1.0 + 0.0j)
        assert _act(x, 1, 1) == (0, 1.0 + 0.0j)
        # Y|0> = i|1>, Y|1> = -i|0>
        assert _act(y, 1, 0) == (1, 1.0j)
        assert _act(y, 1, 1) == (0, -1.0j)
        assert _act(z, 1, 0) == (0, 1.0 + 0.0j)
        assert _act(z, 1, 1) == (1, -1.0 + 0.0j)
        assert _act(ident, 1, 0) == (0, 1.0 + 0.0j)
        assert _act(ident, 1, 1) == (1, 1.0 + 0.0j)

    def test_phase_reads_input_state(self):
        # ZX with X on qubit 0, Z on qubit 1: sign comes from bit 1 of the
        # input, not of the flipped output.
        term = PauliTerm.from_word(1.0, "XZ")
        target, amp = _act(term, 2, 0b10)
        assert target == 0b11
        assert amp == -1.0

    def test_word_round_trip(self):
        for word in ["IXYZ", "YYYY", "IIII", "ZXIY"]:
            term = PauliTerm.from_word(0.5, word)
            assert term.to_word(4) == word

    def test_word_qubit_order(self):
        # Character i addresses qubit i, so "XI" acts on qubit 0.
        term = PauliTerm.from_word(1.0, "XI")
        assert term.x_mask == 1
        assert _act(term, 2, 0)[0] == 1

    def test_invalid_character_rejected(self):
        with pytest.raises(ValueError, match="invalid Pauli character"):
            PauliTerm.from_word(1.0, "XQ")

    def test_weight_tracks_y_count(self):
        assert PauliTerm.from_word(2.0, "XX").weight == 2.0
        assert PauliTerm.from_word(2.0, "XY").weight == 2.0j
        assert PauliTerm.from_word(2.0, "YY").weight == -2.0
        assert PauliTerm.from_word(2.0, "YYYI").weight == -2.0j

    def test_unitarity_of_amplitude(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = int(rng.integers(1, 8))
            x_mask = int(rng.integers(0, 1 << n))
            z_mask = int(rng.integers(0, 1 << n))
            term = PauliTerm(x_mask, z_mask, 1.0)
            _, amp = _act(term, n, int(rng.integers(0, 1 << n)))
            assert np.isclose(abs(amp), 1.0)

    def test_involution(self):
        # Applying the same unit-coefficient string twice returns the
        # state with amplitude exactly 1 (Pauli strings square to I).
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = int(rng.integers(1, 8))
            term = PauliTerm(
                int(rng.integers(0, 1 << n)), int(rng.integers(0, 1 << n)), 1.0
            )
            b = int(rng.integers(0, 1 << n))
            mid, a1 = _act(term, n, b)
            back, a2 = _act(term, n, mid)
            assert back == b
            assert np.isclose(a1 * a2, 1.0)


class TestPauliHamiltonian:
    def test_duplicate_terms_merge(self):
        h = PauliHamiltonian(
            2,
            [PauliTerm.from_word(1.0, "XX"), PauliTerm.from_word(1.0, "XX")],
        )
        assert len(h.terms) == 1
        assert h.terms[0].coefficient == 2.0

    def test_cancelling_terms_drop(self):
        h = PauliHamiltonian(
            2,
            [PauliTerm.from_word(1.0, "ZI"), PauliTerm.from_word(-1.0, "ZI")],
        )
        assert len(h.terms) == 0
        assert h.neighbors(0) == set()
        assert h.diagonal(0) == 0.0

    def test_mask_exceeding_n_rejected(self):
        with pytest.raises(ValueError, match="exceed"):
            PauliHamiltonian(1, [PauliTerm(0b10, 0, 1.0)])

    def test_matrix_element_xx_plus_yy(self):
        h = parse_hamiltonian("1.0 XX\n1.0 YY\n")
        # States labeled q1 q0: 1 = |01>, 2 = |10>.
        assert h.matrix_element(2, 1) == 2.0
        assert h.matrix_element(1, 2) == 2.0
        # XX and YY amplitudes cancel exactly between aligned pairs.
        assert h.matrix_element(3, 0) == 0.0
        assert h.matrix_element(0, 0) == 0.0

    def test_diagonal_xxyyzz(self):
        h = parse_hamiltonian("1.0 XX\n1.0 YY\n1.0 ZZ\n")
        assert h.diagonal(0b00) == 1.0
        assert h.diagonal(0b01) == -1.0
        assert h.diagonal(0b10) == -1.0
        assert h.diagonal(0b11) == 1.0

    def test_dense_matrix_xxyyzz(self):
        h = parse_hamiltonian("1.0 XX\n1.0 YY\n1.0 ZZ\n")
        expected = np.array(
            [
                [1.0, 0.0, 0.0, 0.0],
                [0.0, -1.0, 2.0, 0.0],
                [0.0, 2.0, -1.0, 0.0],
                [0.0, 0.0, 0.0, 1.0],
            ]
        )
        d = h.dense_matrix()
        assert d.dtype == np.float64
        assert np.allclose(d, expected)

    def test_matrix_element_matches_dense(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            n = int(rng.integers(1, 6))
            h = random_hamiltonian(n, int(rng.integers(1, 12)), rng)
            dense = h.dense_matrix()
            dim = 1 << n
            for k in range(dim):
                for j in range(dim):
                    assert np.isclose(h.matrix_element(k, j), dense[k, j], atol=1e-13)

    def test_hermiticity(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            n = int(rng.integers(1, 7))
            h = random_hamiltonian(n, 15, rng)
            for _ in range(20):
                k = int(rng.integers(0, 1 << n))
                j = int(rng.integers(0, 1 << n))
                assert np.isclose(
                    h.matrix_element(k, j), np.conj(h.matrix_element(j, k))
                )

    def test_diagonal_matches_matrix_element(self):
        rng = np.random.default_rng(9)
        h = random_hamiltonian(5, 20, rng)
        for k in range(32):
            elem = h.matrix_element(k, k)
            assert np.isclose(elem.imag, 0.0, atol=1e-13)
            assert np.isclose(h.diagonal(k), elem.real)

    def test_sparsity_zero_off_group(self):
        # <k|H|j> is zero whenever k ^ j matches no term's x_mask.
        h = parse_hamiltonian("1.0 XXI\n0.5 IZZ\n")
        assert h.matrix_element(0b100, 0b000) == 0.0
        assert h.matrix_element(0b111, 0b000) == 0.0

    def test_neighbors_heisenberg_ring(self):
        lines = [
            "1.0 XXI", "1.0 YYI", "1.0 ZZI",
            "1.0 IXX", "1.0 IYY", "1.0 IZZ",
            "1.0 XIX", "1.0 YIY", "1.0 ZIZ",
        ]
        h = parse_hamiltonian("\n".join(lines))
        assert h.neighbors(0b000) == {0b011, 0b110, 0b101}

    def test_neighbors_mask_level_not_element_level(self):
        # XX + YY connects 00 <-> 11 at the mask level even though the
        # summed matrix element between them cancels to zero.
        h = parse_hamiltonian("1.0 XX\n1.0 YY\n")
        assert h.neighbors(0b00) == {0b11}
        assert h.matrix_element(0b11, 0b00) == 0.0

    def test_neighbors_match_nonzero_elements_generically(self):
        # With continuous random coefficients, summed-element cancellation
        # has probability zero, so mask connectivity equals the set of
        # states with a nonzero off-diagonal element.
        rng = np.random.default_rng(13)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            h = random_hamiltonian(n, int(rng.integers(2, 15)), rng)
            s = int(rng.integers(0, 1 << n))
            brute = {
                k
                for k in range(1 << n)
                if k != s and abs(h.matrix_element(k, s)) > 1e-12
            }
            assert h.neighbors(s) == brute

    def test_is_real_flag(self):
        assert parse_hamiltonian("1.0 XX\n1.0 YY\n").is_real
        assert not parse_hamiltonian("1.0 XY\n").is_real
        d = parse_hamiltonian("1.0 XY\n").dense_matrix()
        assert d.dtype == np.complex128
        assert np.allclose(d, d.conj().T)

    def test_dense_refuses_large_n(self):
        h = PauliHamiltonian(13, [PauliTerm(0, 1, 1.0)])
        with pytest.raises(ValueError, match="dense"):
            h.dense_matrix()


def _group_amplitudes(ham: PauliHamiltonian, states) -> tuple[np.ndarray, np.ndarray]:
    """amplitude_table and diagonal of ``states`` from _group_amplitude."""
    table = np.array([[ham._group_amplitude(x, int(s)) for s in states]
                      for x in ham.offdiag_masks], dtype=np.complex128)
    diag = np.array([ham._group_amplitude(0, int(s)).real for s in states])
    return (table.real.copy() if ham.is_real else table), diag


class TestSupportTables:
    def test_no_diagonal_terms_give_positive_zero(self):
        h = parse_hamiltonian("1.0 XX\n1.0 YY\n")
        assert h._diagonal_tables.values.tobytes() == np.zeros(1).tobytes()
        assert h.diagonal(np.arange(4)).tobytes() == np.zeros(4).tobytes()

    def test_z_free_group_has_one_entry(self):
        # X on qubit 2 reads no bit of the state; X on qubit 0 (with XZ) reads one.
        h = parse_hamiltonian("-0.5 XII\n0.75 IIX\n0.25 XZI\n")
        tables = h._offdiag_tables
        assert h.offdiag_masks == (0b001, 0b100)
        assert tables.values.tolist() == [-0.25, -0.75, 0.75]
        assert tables.offsets.ravel().tolist() == [0, 2]
        assert h.amplitude_table([0, 7]).tolist() == [[-0.25, -0.75], [0.75, 0.75]]

    @pytest.mark.parametrize("odd_y", [False, True])
    def test_batch_of_several_passes(self, odd_y):
        n = 16
        fields = DisorderInstance(tuple(np.linspace(-1.0, 1.0, n)), 0)
        h = heisenberg_chain(n, 1.0, fields)
        if odd_y:
            h = PauliHamiltonian(n, h.terms + (PauliTerm(0b11, 0b01, 0.3),))
        step = KERNEL_BLOCK // len(h.offdiag_masks)
        states = np.random.default_rng(5).choice(1 << n, 2 * step + 7, replace=False)
        table, diag = _group_amplitudes(h, states)
        assert h.amplitude_table(states).tobytes() == table.tobytes()
        assert h.diagonal(states).tobytes() == diag.tobytes()

    @pytest.mark.parametrize("odd_y", [False, True])
    def test_block_mixing_tabled_and_direct_groups(self, odd_y):
        rng = np.random.default_rng(9)
        wide = TABLE_MAX_BITS + 1
        terms = []
        # Diagonal and three x_masks reading 2, 16 and 17 bits, all above bit 40.
        for x_mask, width in ((0, TABLE_MAX_BITS), (1 << 3, 2),
                              (1 << 5, TABLE_MAX_BITS), (1 << 7, wide)):
            support = sum(1 << int(i) for i in rng.choice(range(40, 63), width, replace=False))
            for z_mask in (support, support & int(rng.integers(1 << 62))):
                terms.append(PauliTerm(x_mask, z_mask, float(rng.normal())))
        if odd_y:
            terms.append(PauliTerm(1 << 3, 1 << 3, 0.5))
        h = PauliHamiltonian(MAX_QUBITS, terms)
        assert h._offdiag_tables.tabled.tolist() == [0, 1]
        assert h._offdiag_tables.direct.tolist() == [2]
        assert h._diagonal_tables.tabled.tolist() == [0]
        states = rng.integers(0, 1 << 62, 300) | (rng.integers(0, 2, 300) << 62)
        table, diag = _group_amplitudes(h, states)
        assert h.amplitude_table(states).tobytes() == table.tobytes()
        assert h.diagonal(states).tobytes() == diag.tobytes()


class TestTextFormat:
    def test_round_trip(self):
        text = "# comment line\n2.5 XIZY\n\n-0.125 IIII\n1e-3 ZZXX\n"
        h = parse_hamiltonian(text)
        assert h.n == 4
        assert len(h.terms) == 3
        again = parse_hamiltonian(format_hamiltonian(h))
        assert again.n == h.n
        assert sorted(
            (t.x_mask, t.z_mask, t.coefficient) for t in again.terms
        ) == sorted((t.x_mask, t.z_mask, t.coefficient) for t in h.terms)

    def test_round_trip_preserves_float_bits(self):
        rng = np.random.default_rng(21)
        h = random_hamiltonian(4, 10, rng)
        again = parse_hamiltonian(format_hamiltonian(h))
        orig = {(t.x_mask, t.z_mask): t.coefficient for t in h.terms}
        back = {(t.x_mask, t.z_mask): t.coefficient for t in again.terms}
        assert orig == back

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="length"):
            parse_hamiltonian("1.0 XX\n1.0 XXX\n")

    def test_bad_coefficient_rejected(self):
        with pytest.raises(ValueError, match="coefficient"):
            parse_hamiltonian("abc XX\n")

    def test_missing_field_rejected(self):
        with pytest.raises(ValueError, match="expected"):
            parse_hamiltonian("1.0\n")

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError, match="no Pauli terms"):
            parse_hamiltonian("# only a comment\n")
