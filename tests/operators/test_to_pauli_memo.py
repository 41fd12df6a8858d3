"""The per-process memo behind :meth:`Hamiltonian.to_pauli`.

Each as-written term sequence is expanded once; every call returns a fresh
operator equal to what an unmemoized expansion gives, in the same string
order (the ``pauli`` Trotter product's order).
"""

from __future__ import annotations

import numpy as np

import repro
from _stress import hammer
from repro.operators import hamiltonian as hamiltonian_module
from repro.operators.pauli import PauliOperator, PauliString
from repro.utils.lru import LRUCache

LABELS = [("nsdI", 0.8), ("IZZI", 0.3 - 0.1j), ("XIXI", 0.2), ("IdnX", 0.5j)]


def _unmemoized(ham: repro.Hamiltonian, include_hc: bool = True) -> PauliOperator:
    """The expansion as computed before the memo: one ``+`` per fragment."""
    out = PauliOperator()
    for fragment in ham.hermitian_fragments(auto_hc=include_hc):
        out = out + fragment.to_pauli()
    return out.simplify()


def _items(operator: PauliOperator) -> list:
    return [(str(string), coeff) for string, coeff in operator.items()]


def test_matches_the_unmemoized_expansion_in_order():
    ham = repro.Hamiltonian.from_labels(4, LABELS)
    for include_hc in (True, False):
        assert _items(ham.to_pauli(include_hc)) == _items(_unmemoized(ham, include_hc))
        assert _items(ham.to_pauli(include_hc)) == _items(_unmemoized(ham, include_hc))


def test_a_mutated_result_does_not_leak_into_the_next_call():
    ham = repro.Hamiltonian.from_labels(4, LABELS)
    expected = _items(_unmemoized(ham))
    first = ham.to_pauli()
    first._add(PauliString("ZZZZ"), 7.0)
    first._terms.pop(next(iter(first._terms)))
    second = ham.to_pauli()
    assert second is not first
    assert _items(second) == expected
    copy = second.copy()
    copy._add(PauliString("XXXX"), 1.0)
    assert _items(ham.to_pauli()) == expected


def test_add_term_invalidates_the_memo():
    ham = repro.Hamiltonian.from_labels(4, LABELS)
    before = ham.to_pauli()
    ham.add_label("ZIIZ", 0.7)
    after = ham.to_pauli()
    assert after["ZIIZ"] == 0.7 and before["ZIIZ"] == 0.0
    assert _items(after) == _items(_unmemoized(ham))


def test_reordered_terms_give_the_reordered_strings():
    forward = repro.Hamiltonian.from_labels(4, LABELS)
    backward = repro.Hamiltonian.from_labels(4, LABELS[::-1])
    assert forward.content_key() == backward.content_key()
    ahead, behind = _items(forward.to_pauli()), _items(backward.to_pauli())
    assert ahead == _items(_unmemoized(forward))
    assert behind == _items(_unmemoized(backward))
    assert [s for s, _ in ahead] != [s for s, _ in behind]
    assert sorted(s for s, _ in ahead) == sorted(s for s, _ in behind)


def test_shared_by_threads_under_a_tiny_switch_interval(monkeypatch):
    monkeypatch.setattr(hamiltonian_module, "_PAULI", LRUCache(cap=2))
    rng = np.random.default_rng(7)
    hamiltonians = []
    for _ in range(5):  # more sequences than the cap, so entries churn
        order = rng.permutation(len(LABELS))
        hamiltonians.append(repro.Hamiltonian.from_labels(4, [LABELS[i] for i in order]))
    expected = [_items(_unmemoized(ham)) for ham in hamiltonians]
    sizes: list = []

    def expand(pick) -> None:
        index = pick.randrange(len(hamiltonians))
        result = hamiltonians[index].to_pauli()
        assert _items(result) == expected[index]
        result._add(PauliString("YYYY"), 1.0)  # must never reach the memo
        sizes.append(len(hamiltonian_module._PAULI))

    hammer(expand, seconds=1.0)
    assert sizes and max(sizes) <= 2
