"""Canonical serialization of the core datatypes and the JSON/hash primitives."""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.noise import KrausChannel, NoiseModel, ReadoutError
from repro.noise.channels import (
    amplitude_damping_channel,
    depolarizing_channel,
    phase_damping_channel,
)
from repro.utils import serialization
from repro.utils.serialization import (
    SerializationError,
    canonical_json,
    complex_from_json,
    complex_to_json,
    content_hash,
    matrix_from_json,
    matrix_to_json,
)


#: Leaves of both kinds: plain JSON scalars (NaN and infinities included)
#: and the values only the coercing path accepts or rejects.
_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),
    st.text(max_size=4),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.floats().map(np.float64),
    st.floats(width=32).map(np.float32),
    st.booleans().map(np.bool_),
    st.complex_numbers(),
    st.complex_numbers(allow_nan=False, allow_infinity=False).map(np.complex128),
)

#: Dict keys: mostly strings, sometimes a key neither path accepts.
_KEYS = st.one_of(
    st.text(max_size=4), st.text(max_size=4), st.integers(), st.none(), st.booleans()
)


def json_payloads():
    """Nested lists, tuples and dicts over :data:`_LEAVES`."""
    return st.recursive(
        _LEAVES,
        lambda children: st.one_of(
            st.lists(children, max_size=4),
            st.lists(children, max_size=4).map(tuple),
            st.dictionaries(_KEYS, children, max_size=4),
        ),
        max_leaves=16,
    )


class TestCanonicalJson:
    def test_key_order_is_irrelevant(self):
        assert canonical_json({"b": 1, "a": 2}) == canonical_json({"a": 2, "b": 1})

    def test_tuples_and_numpy_scalars_coerce(self):
        assert canonical_json((1, np.int64(2), np.float64(0.5))) == "[1,2,0.5]"

    def test_floats_round_trip_shortest(self):
        assert canonical_json(0.1) == "0.1"

    def test_nan_and_inf_rejected(self):
        for bad in (float("nan"), float("inf")):
            with pytest.raises(SerializationError):
                canonical_json(bad)

    def test_non_string_keys_rejected(self):
        with pytest.raises(SerializationError):
            canonical_json({1: "x"})

    def test_unknown_types_rejected(self):
        with pytest.raises(SerializationError):
            canonical_json(np.zeros(2))

    def test_complex_nan_is_rejected_like_a_real_one(self):
        with pytest.raises(SerializationError, match="NaN/Inf"):
            canonical_json({"z": complex(float("nan"), 1.0)})

    def test_plain_json_skips_the_coercion(self, monkeypatch):
        def refuse(value):
            raise AssertionError("coerced a plain-JSON payload")

        monkeypatch.setattr(serialization, "_coerce_jsonable", refuse)
        payload = {"b": [1, 2.5, None, True], "a": ("x", {"c": -3})}
        assert canonical_json(payload) == '{"a":["x",{"c":-3}],"b":[1,2.5,null,true]}'
        with pytest.raises(SerializationError, match="NaN/Inf"):
            canonical_json({"x": [float("inf")]})

    @settings(max_examples=300)
    @given(payload=json_payloads())
    def test_the_fast_path_matches_the_coercing_one(self, payload):
        try:
            expected = json.dumps(
                serialization._coerce_jsonable(payload),
                sort_keys=True,
                separators=(",", ":"),
                ensure_ascii=True,
                allow_nan=False,
            )
        except SerializationError:
            with pytest.raises(SerializationError):
                canonical_json(payload)
        else:
            assert canonical_json(payload) == expected

    def test_content_hash_is_stable_and_tagged(self):
        assert content_hash({"a": 1}) == content_hash({"a": 1})
        assert content_hash({"a": 1}) != content_hash({"a": 2})
        assert content_hash({"a": 1}, tag="x") != content_hash({"a": 1}, tag="y")

    @given(st.complex_numbers(allow_nan=False, allow_infinity=False))
    def test_complex_round_trip(self, z):
        assert complex_from_json(complex_to_json(z)) == z

    def test_matrix_round_trip(self):
        mat = np.array([[1 + 2j, 0], [0.5j, -1]])
        np.testing.assert_array_equal(matrix_from_json(matrix_to_json(mat)), mat)


class TestSCBTermSerialization:
    def test_round_trip(self):
        term = repro.SCBTerm.from_label("nsdIXZ", 0.5 - 0.25j)
        back = repro.SCBTerm.from_dict(term.to_dict())
        assert back == term

    def test_sort_key_orders_deterministically(self):
        a = repro.SCBTerm.from_label("II", 1.0)
        b = repro.SCBTerm.from_label("IX", 1.0)
        c = repro.SCBTerm.from_label("IX", 2.0)
        assert sorted([c, b, a], key=lambda t: t.sort_key()) == [a, b, c]


class TestHamiltonianSerialization:
    def test_round_trip_preserves_term_order(self):
        ham = repro.Hamiltonian.from_labels(3, [("nsd", 0.5), ("IZZ", 0.25), ("nsd", 0.5)])
        back = repro.Hamiltonian.from_dict(ham.to_dict())
        assert [t.label for t in back] == [t.label for t in ham]
        np.testing.assert_allclose(back.matrix(), ham.matrix())

    def test_canonical_copy_sorts_but_keeps_key(self):
        ham = repro.Hamiltonian.from_labels(3, {"IZZ": 0.25, "nsd": 0.5})
        canon = ham.canonical()
        assert [t.label for t in canon] == sorted(t.label for t in ham)
        assert canon.content_key() == ham.content_key()
        np.testing.assert_allclose(canon.matrix(), ham.matrix())

    def test_version_survives_copy_semantics(self):
        ham = repro.Hamiltonian.from_labels(3, {"IZZ": 0.25})
        copy = ham.copy()
        ham.add_label("XII", 0.1)
        assert copy.content_key() != ham.content_key()

    def test_zero_terms_do_not_bump_version(self):
        ham = repro.Hamiltonian(2)
        version = ham.version
        ham.add_term(repro.SCBTerm.from_label("IZ", 0.0))
        assert ham.version == version


class TestNoiseSerialization:
    @pytest.mark.parametrize(
        "channel",
        [
            depolarizing_channel(0.05),
            depolarizing_channel(0.02, num_qubits=2),
            amplitude_damping_channel(0.1),
            phase_damping_channel(0.2),
        ],
        ids=lambda c: c.name,
    )
    def test_channel_round_trip(self, channel):
        back = KrausChannel.from_dict(channel.to_dict())
        assert back.name == channel.name
        assert back.num_kraus == channel.num_kraus
        np.testing.assert_allclose(
            back.to_superoperator(), channel.to_superoperator(), atol=1e-15
        )

    def test_readout_round_trip(self):
        error = ReadoutError.asymmetric(0.02, 0.05)
        back = ReadoutError.from_dict(error.to_dict())
        np.testing.assert_array_equal(back.confusion, error.confusion)

    def test_model_round_trip_and_canonical_order(self):
        model = (
            NoiseModel()
            .add_gate_error(depolarizing_channel(0.01), ["cx", "rz"])
            .add_default_error(depolarizing_channel(0.001), num_qubits=1)
        )
        model.set_readout_error(ReadoutError.symmetric(0.03))
        back = NoiseModel.from_dict(model.to_dict())
        assert back.to_dict() == model.to_dict()
        assert back.noisy_gate_names == model.noisy_gate_names
        # Attachment order must not matter to the canonical form.
        other = (
            NoiseModel()
            .add_gate_error(depolarizing_channel(0.01), ["rz", "cx"])
            .add_default_error(depolarizing_channel(0.001), num_qubits=1)
        )
        other.set_readout_error(ReadoutError.symmetric(0.03))
        assert canonical_json(other.to_dict()) == canonical_json(model.to_dict())

    def test_ideal_model_round_trip(self):
        assert NoiseModel.from_dict(NoiseModel.ideal().to_dict()).is_ideal


class TestOptionsSerialization:
    def test_round_trip_with_noise_model(self):
        options = repro.CompileOptions(
            basis_change="pyramid",
            optimize_level=1,
            mpf_steps=(1, 3),
            noise_model=NoiseModel.uniform_depolarizing(0.01, readout=0.02),
        )
        back = repro.CompileOptions.from_dict(options.to_dict())
        assert back.basis_change == "pyramid"
        assert back.mpf_steps == (1, 3)
        assert back.content_key() == options.content_key()

    def test_key_differs_with_noise(self):
        plain = repro.CompileOptions()
        noisy = repro.CompileOptions(
            noise_model=NoiseModel.uniform_depolarizing(0.01)
        )
        assert plain.content_key() != noisy.content_key()

    def test_from_dict_revalidates(self):
        payload = repro.CompileOptions().to_dict()
        payload["optimize_level"] = 7
        with pytest.raises(repro.OptionsError):
            repro.CompileOptions.from_dict(payload)


class TestProblemSerialization:
    def test_round_trip(self):
        problem = repro.SimulationProblem.from_labels(
            4, {"nsdI": 0.8}, time=0.4, steps=3, order=2, name="round"
        )
        back = repro.SimulationProblem.from_dict(problem.to_dict())
        assert back.time == 0.4 and back.steps == 3 and back.order == 2
        assert back.name == "round"
        assert back.content_key() == problem.content_key()

    def test_name_not_in_content_key(self):
        a = repro.SimulationProblem.from_labels(4, {"nsdI": 0.8}, time=0.4, name="a")
        b = repro.SimulationProblem.from_labels(4, {"nsdI": 0.8}, time=0.4, name="b")
        assert a.content_key() == b.content_key()


class TestHUBOSerialization:
    def test_round_trip_and_key(self):
        from repro.applications.hubo import random_hubo

        hubo = random_hubo(5, 6, 3, rng=2, formalism="spin")
        back = type(hubo).from_dict(hubo.to_dict())
        assert back.terms == hubo.terms
        assert back.content_key() == hubo.content_key()
