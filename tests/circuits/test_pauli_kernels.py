"""Unit + property tests of the matrix-free Pauli-rotation kernels.

The oracle is dense linear algebra: ``apply_pauli_string`` must equal ``P·ψ``
for the matrix of the string, and ``apply_pauli_rotation`` must equal
``expm(-iθP)·ψ`` — on single states and with a trailing batch axis, across
the diagonal (Z-only), pure-permutation (X-only), identity and generic paths.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from _stress import hammer
from repro.circuits import pauli_kernels
from repro.circuits.pauli_kernels import (
    apply_diagonal_rotation,
    apply_pauli_rotation,
    apply_pauli_string,
    apply_permutation_rotation,
    apply_rotation_sequence,
    basis_indices,
    pauli_masks,
)
from repro.exceptions import SimulationError
from repro.operators.pauli import PauliString


def random_state(num_qubits: int, seed: int, batch: int | None = None) -> np.ndarray:
    rng = np.random.default_rng(seed)
    shape = (1 << num_qubits,) if batch is None else (1 << num_qubits, batch)
    vec = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return vec / np.linalg.norm(vec, axis=0)


pauli_labels = st.text(alphabet="IXYZ", min_size=1, max_size=6)


class TestMasks:
    def test_known_encodings(self):
        # Qubit 0 is the most significant bit.
        assert pauli_masks("XI") == (0b10, 0b00, 1)
        assert pauli_masks("IZ") == (0b00, 0b01, 1)
        assert pauli_masks("YI") == (0b10, 0b10, -1j)
        assert pauli_masks("YY") == (0b11, 0b11, -1)
        assert pauli_masks("II") == (0, 0, 1)

    def test_rejects_bad_labels(self):
        with pytest.raises(SimulationError):
            pauli_masks("XQ")

    @given(labels=pauli_labels)
    @settings(max_examples=60, deadline=None)
    def test_string_action_matches_matrix(self, labels):
        matrix = PauliString(labels).matrix()
        x_mask, z_mask, phase = pauli_masks(labels)
        psi = random_state(len(labels), seed=7)
        np.testing.assert_allclose(
            apply_pauli_string(psi, x_mask, z_mask, phase), matrix @ psi, atol=1e-12
        )


class TestRotation:
    @given(labels=pauli_labels, theta=st.floats(-3.0, 3.0), seed=st.integers(0, 99))
    @settings(max_examples=80, deadline=None)
    def test_matches_dense_exponential(self, labels, theta, seed):
        matrix = PauliString(labels).matrix()
        x_mask, z_mask, phase = pauli_masks(labels)
        psi = random_state(len(labels), seed)
        reference = expm(-1j * theta * matrix) @ psi
        np.testing.assert_allclose(
            apply_pauli_rotation(psi, x_mask, z_mask, phase, theta),
            reference,
            atol=1e-12,
        )

    @given(labels=pauli_labels, theta=st.floats(-3.0, 3.0))
    @settings(max_examples=40, deadline=None)
    def test_batch_axis(self, labels, theta):
        matrix = PauliString(labels).matrix()
        x_mask, z_mask, phase = pauli_masks(labels)
        batch = random_state(len(labels), seed=3, batch=4)
        reference = expm(-1j * theta * matrix) @ batch
        np.testing.assert_allclose(
            apply_pauli_rotation(batch, x_mask, z_mask, phase, theta),
            reference,
            atol=1e-12,
        )

    def test_input_is_not_mutated(self):
        psi = random_state(3, seed=0)
        before = psi.copy()
        apply_pauli_rotation(psi, 0b101, 0b010, 1, 0.4)
        np.testing.assert_array_equal(psi, before)

    def test_identity_is_a_global_phase(self):
        psi = random_state(2, seed=1)
        out = apply_pauli_rotation(psi, 0, 0, 1, 0.8)
        np.testing.assert_allclose(out, np.exp(-0.8j) * psi, atol=1e-12)

    def test_norm_is_preserved(self):
        psi = random_state(4, seed=2)
        out = apply_pauli_rotation(psi, 0b1010, 0b0110, -1j, 1.3)
        assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-12)


class TestFastPaths:
    @pytest.mark.parametrize("labels", ["ZZI", "IZZ", "ZIZ"])
    def test_diagonal_path(self, labels):
        matrix = PauliString(labels).matrix()
        psi = random_state(3, seed=5)
        out = psi.copy()
        apply_diagonal_rotation(out, pauli_masks(labels)[1], 0.6)
        np.testing.assert_allclose(out, expm(-0.6j * matrix) @ psi, atol=1e-12)

    @pytest.mark.parametrize("labels", ["XXI", "IXX", "XIX"])
    def test_permutation_path(self, labels):
        matrix = PauliString(labels).matrix()
        psi = random_state(3, seed=6)
        out = psi.copy()
        apply_permutation_rotation(out, pauli_masks(labels)[0], 0.6)
        np.testing.assert_allclose(out, expm(-0.6j * matrix) @ psi, atol=1e-12)


class TestSequences:
    def test_sequence_with_repetitions(self):
        rotations = [
            pauli_masks("XY") + (0.3,),
            pauli_masks("ZI") + (0.7,),
        ]
        psi = random_state(2, seed=8)
        out = apply_rotation_sequence(psi, rotations, repetitions=2)
        expected = psi
        for _ in range(2):
            for x, z, phase, theta in rotations:
                expected = apply_pauli_rotation(expected, x, z, phase, theta)
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_bad_dimension_raises(self):
        with pytest.raises(SimulationError):
            apply_pauli_rotation(np.ones(3, dtype=complex), 1, 0, 1, 0.1)


class TestIndexCache:
    def test_indices_are_shared_and_read_only(self):
        a = basis_indices(5)
        assert a is basis_indices(5)
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 1

    def test_shared_by_threads_under_a_tiny_switch_interval(self):
        # The daemon bakes plans, and so calls this, on several threads.
        def look_up(rng) -> None:
            width = rng.randint(1, 8)
            indices = basis_indices(width)
            assert indices.shape == (1 << width,) and indices[-1] == (1 << width) - 1
            assert len(pauli_kernels._INDEX_CACHE) <= 4

        hammer(look_up, seconds=1.0, threads=8)
        assert len(pauli_kernels._INDEX_CACHE) <= 4
