"""Content keys: order- and cosmetics-invariant, exact, and process-independent.

Keys are Merkle keys (the Hamiltonian's cached digest inside the problem
key inside the run, sweep and plan-group keys), and ``Hamiltonian.from_dict``
serves repeats from a per-process parse memo.  These properties pin down
that neither shortcut changes what a key means.
"""

from __future__ import annotations

import multiprocessing
import os
from dataclasses import replace

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import repro
from _stress import hammer
from repro.exceptions import OperatorError
from repro.operators.scb_term import SCBTerm
from repro.runtime import RunSpec, SweepSpec
from repro.runtime.executor import batch_key
from repro.service.jobs import job_from_spec
from repro.utils.lru import LRUCache
from repro.utils.serialization import canonical_json

CHARS = "IXYZnmsd"
#: Option overrides that each change the canonical payload.
OPTIONS = ({}, {"parity_mode": "pyramid"}, {"optimize_level": 1}, {"mcx_mode": "vchain"})
STRATEGIES = ("direct", "pauli", "block_encoding")
BACKENDS = ("statevector", "kernel", "sampling")

components = st.one_of(
    st.just(0.0), st.floats(min_value=-2.0, max_value=2.0).filter(lambda x: abs(x) > 1e-3)
)


@st.composite
def term_lists(draw, num_qubits):
    """``(label, coefficient)`` pairs; repeated labels allowed, none dropped."""
    pairs = draw(
        st.lists(
            st.tuples(
                st.text(CHARS, min_size=num_qubits, max_size=num_qubits),
                st.builds(complex, components, components),
            ),
            min_size=1,
            max_size=6,
        )
    )
    assume(all(abs(coefficient) > 1e-3 for _, coefficient in pairs))
    return pairs


@st.composite
def specs(draw):
    num_qubits = draw(st.integers(min_value=1, max_value=4))
    terms = draw(term_lists(num_qubits))
    problem = repro.SimulationProblem(
        repro.Hamiltonian.from_labels(num_qubits, terms),
        draw(st.floats(min_value=0.01, max_value=2.0)),
        steps=draw(st.integers(min_value=1, max_value=4)),
        order=draw(st.sampled_from((1, 2, 4))),
        options=draw(st.sampled_from(OPTIONS)),
        name=draw(st.none() | st.text(max_size=4)),
    )
    run_kwargs = draw(
        st.dictionaries(
            st.sampled_from(("shots", "initial_state", "rng")),
            st.integers(min_value=0, max_value=7),
            max_size=2,
        )
    )
    return RunSpec(
        problem=problem,
        strategy=draw(st.sampled_from(STRATEGIES)),
        backend=draw(st.sampled_from(BACKENDS)),
        run_kwargs=run_kwargs,
        label=draw(st.none() | st.text(max_size=4)),
    )


def with_terms(spec: RunSpec, terms) -> RunSpec:
    hamiltonian = repro.Hamiltonian.from_labels(spec.problem.num_qubits, terms)
    return replace(spec, problem=replace(spec.problem, hamiltonian=hamiltonian))


def term_pairs(spec: RunSpec) -> list:
    return [(t.label, t.coefficient) for t in spec.problem.hamiltonian]


def keys(spec: RunSpec) -> tuple:
    sweep = SweepSpec(problem=spec.problem, strategies=(spec.strategy,),
                      backend=spec.backend, run_kwargs=spec.run_kwargs)
    return (spec.problem.hamiltonian.content_key(), spec.problem.content_key(),
            spec.content_key(), sweep.content_key())


#: A domain small enough that independent draws often coincide (``8`` and
#: ``8.0`` are different canonical payloads, hence different keys).
small_specs = st.builds(
    lambda terms, time, strategy, run_kwargs: RunSpec(
        problem=repro.SimulationProblem.from_labels(2, terms, time=time),
        strategy=strategy,
        run_kwargs=run_kwargs,
    ),
    st.sampled_from(
        ([("ZI", 0.5), ("XX", -0.5)], [("ZI", 0.5), ("XX", 0.5)], [("ZI", 0.5)])
    ).flatmap(st.permutations),
    st.sampled_from((0.1, 0.2)),
    st.sampled_from(("direct", "pauli")),
    st.sampled_from(({}, {"shots": 8}, {"shots": 8.0})),
)


class TestKeyProperties:
    @given(spec=specs(), data=st.data())
    def test_key_ignores_term_order_name_and_label(self, spec, data):
        shuffled = data.draw(st.permutations(term_pairs(spec)))
        other = with_terms(spec, shuffled)
        other = replace(other, label="other",
                        problem=replace(other.problem, name="other"))
        assert keys(other) == keys(spec)

    @given(spec=specs(), data=st.data())
    def test_key_changes_with_every_physical_field(self, spec, data):
        pairs = term_pairs(spec)
        index = data.draw(st.integers(min_value=0, max_value=len(pairs) - 1))
        label, coefficient = pairs[index]
        position = data.draw(st.integers(min_value=0, max_value=len(label) - 1))
        char = data.draw(st.sampled_from(CHARS).filter(lambda c: c != label[position]))
        relabelled = list(pairs)
        relabelled[index] = (label[:position] + char + label[position + 1:], coefficient)
        bumped = data.draw(
            st.sampled_from((coefficient + 0.5, coefficient + 0.5j))
        )
        reweighted = list(pairs)
        reweighted[index] = (label, bumped)
        problem = spec.problem
        kwarg = data.draw(st.sampled_from(("shots", "initial_state", "rng")))
        changed = [
            with_terms(spec, relabelled),
            with_terms(spec, reweighted),
            replace(spec, problem=replace(problem, time=problem.time + 0.125)),
            replace(spec, problem=replace(problem, steps=problem.steps + 1)),
            replace(spec, problem=replace(problem, order={1: 2, 2: 4, 4: 2}[problem.order])),
            replace(spec, problem=problem.with_options(
                optimize_level=1 - problem.options.optimize_level)),
            replace(spec, strategy=next(s for s in STRATEGIES if s != spec.strategy)),
            replace(spec, backend=next(b for b in BACKENDS if b != spec.backend)),
            replace(spec, run_kwargs={**spec.run_kwargs,
                                      kwarg: spec.run_kwargs.get(kwarg, -1) + 1}),
        ]
        base = spec.content_key()
        for other in changed:
            assert other.content_key() != base, other.describe()

    @given(spec=specs())
    def test_round_trip_keeps_the_key(self, spec):
        for payload in (spec.to_dict(), spec.to_dict(canonical=True)):
            assert RunSpec.from_dict(payload).content_key() == spec.content_key()
        sweep = SweepSpec(problem=spec.problem, strategies=("direct", "pauli"),
                          steps=(1, 2), run_kwargs=spec.run_kwargs, name="s")
        assert SweepSpec.from_dict(sweep.to_dict()).content_key() == sweep.content_key()

    @given(specs=st.lists(small_specs, min_size=2, max_size=6))
    def test_equal_keys_exactly_when_canonical_payloads_are_equal(self, specs):
        for a in specs:
            for b in specs:
                same = canonical_json(a.to_dict(canonical=True)) == canonical_json(
                    b.to_dict(canonical=True)
                )
                assert (a.content_key() == b.content_key()) == same


class TestParseMemo:
    @given(num_qubits=st.integers(min_value=1, max_value=3), data=st.data())
    def test_signed_zero_gets_the_key_of_an_unmemoized_parse(self, num_qubits, data):
        terms = data.draw(term_lists(num_qubits))
        payload = repro.Hamiltonian.from_labels(num_qubits, terms).to_dict()
        index = data.draw(st.integers(min_value=0, max_value=len(terms) - 1))
        part = data.draw(st.sampled_from((0, 1)))
        for zero in (0.0, -0.0):
            payload["terms"][index]["coefficient"][part] = zero
            if abs(complex(*payload["terms"][index]["coefficient"])) < 1e-3:
                payload["terms"][index]["coefficient"][1 - part] = 0.75
            fresh = repro.Hamiltonian(
                num_qubits, [SCBTerm.from_dict(t) for t in payload["terms"]]
            )
            parsed = repro.Hamiltonian.from_dict(payload)
            assert parsed.content_key() == fresh.content_key()
            assert parsed.to_dict() == fresh.to_dict()
            assert canonical_json(parsed.to_dict(canonical=True)) == canonical_json(
                fresh.to_dict(canonical=True)
            )

    def test_signed_zero_coefficients_do_not_share_an_entry(self):
        plus = {"num_qubits": 1, "terms": [{"label": "X", "coefficient": [0.5, 0.0]}]}
        minus = {"num_qubits": 1, "terms": [{"label": "X", "coefficient": [0.5, -0.0]}]}
        first = repro.Hamiltonian.from_dict(plus).content_key()
        second = repro.Hamiltonian.from_dict(minus).content_key()
        assert first != second
        assert second == repro.Hamiltonian(
            1, [SCBTerm.from_dict(minus["terms"][0])]
        ).content_key()

    @given(num_qubits=st.integers(min_value=1, max_value=3), data=st.data())
    def test_mutating_a_parse_never_reaches_the_next(self, num_qubits, data):
        payload = repro.Hamiltonian.from_labels(
            num_qubits, data.draw(term_lists(num_qubits))
        ).to_dict()
        first = repro.Hamiltonian.from_dict(payload)
        key, terms = first.content_key(), first.terms
        first.add_label("Z" * num_qubits, 0.25)
        canonical = first.to_dict(canonical=True)
        canonical["terms"][0]["coefficient"][0] = 99.0  # callers get fresh dicts
        assert first.content_key() != key
        second = repro.Hamiltonian.from_dict(payload)
        assert second.content_key() == key and second.terms == terms
        assert second.version == len(terms) and second.to_dict() == payload
        assert first.to_dict(canonical=True) != canonical

    def test_concurrent_parses_never_raise_and_hold_the_cap(self, monkeypatch):
        # Daemon handler threads and in-daemon workers parse at the same time.
        from repro.operators import hamiltonian as hamiltonian_module

        monkeypatch.setattr(hamiltonian_module, "_PARSED", LRUCache(cap=2))
        payloads = [
            repro.Hamiltonian.from_labels(3, {"XXI": 0.5, label: 0.25}).to_dict()
            for label in ("IZZ", "YIY", "nsd", "ZZZ", "IIX")
        ]
        expected = [
            repro.Hamiltonian(3, map(SCBTerm.from_dict, p["terms"])).content_key()
            for p in payloads
        ]
        sizes: list = []

        def parse(rng) -> None:
            index = rng.randrange(len(payloads))
            parsed = repro.Hamiltonian.from_dict(payloads[index])
            assert parsed.content_key() == expected[index]
            sizes.append(len(hamiltonian_module._PARSED))

        hammer(parse, seconds=1.0)
        assert sizes and max(sizes) <= 2

    def test_malformed_payloads_raise_as_before(self):
        bad = [
            ({"terms": []}, KeyError),
            ({"num_qubits": 1, "terms": [{"label": "Q", "coefficient": 1}]}, OperatorError),
            ({"num_qubits": 1, "terms": [{"label": "X"}]}, KeyError),
            ({"num_qubits": -1, "terms": []}, OperatorError),
        ]
        for payload, error in bad:
            for _ in range(2):  # nothing malformed is ever memoized
                with pytest.raises(error):
                    repro.Hamiltonian.from_dict(payload)


# ---------------------------------------------------------------------------
# Across processes
# ---------------------------------------------------------------------------


def test_keys_match_in_a_spawned_child_with_another_hash_seed(monkeypatch):
    """The client and the daemon compute the same keys in different processes."""
    problem = repro.SimulationProblem.from_labels(
        4, [("nsdI", 0.8), ("IZZI", 0.3 - 0.1j), ("XIXI", 0.2)], time=0.3, order=2
    )
    sweep = SweepSpec(problem=problem, strategies=("direct", "pauli"), steps=(1, 2),
                      backend="kernel", run_kwargs={"initial_state": 3})
    payloads = [run.to_dict(canonical=True) for _, run in sweep.expand()]
    seed = "1" if os.environ.get("PYTHONHASHSEED") != "1" else "2"
    monkeypatch.setenv("PYTHONHASHSEED", seed)
    with multiprocessing.get_context("spawn").Pool(1) as pool:
        child_hash = pool.apply(hash, ("repro",))
        child_job = pool.apply(job_from_spec, (sweep.to_dict(),))
        child_batch_keys = pool.map(batch_key, payloads)
    assert child_hash != hash("repro")  # the child really hashes differently
    assert child_job.job_id == sweep.content_key()
    assert [point.key for point in child_job.points] == [
        run.content_key() for _, run in sweep.expand()
    ]
    assert child_batch_keys == [batch_key(payload) for payload in payloads]
    assert None not in child_batch_keys
