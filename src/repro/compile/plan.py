"""Lowering a Trotter schedule to precomputed mask plans.

A :class:`EvolutionPlan` is the term-level compilation target of the
``kernel`` backend (and of noiseless ``sampling``): the product formula of a
:class:`~repro.compile.problem.SimulationProblem` flattened into fragment
*visits* — one ``(fragment, scale)`` pair per exponentiated fragment, ``scale``
the slice of time the visit evolves it for — that are executed matrix-free,
with no circuit construction and no gate matrix ever materialized.  The same
schedule as ``(x_mask, z_mask, phase, theta)`` tuples (:class:`MaskRotation`,
one group per visit) is a view built only when read.  Both evolution
strategies lower:

* ``"pauli"`` — one single-string fragment per Pauli string, mirroring
  :func:`repro.core.trotter.pauli_fragments`;
* ``"direct"`` — each gathered SCB fragment becomes ONE fragment via its Pauli
  decomposition.

The executor exploits the structural fact at the heart of the paper's direct
strategy: every string in a gathered fragment's decomposition carries the
*same* X mask (number factors expand over ``{I, Z}``, transition factors over
``{X, Y}``), so the fragment acts as ``(H·ψ)[k] = e(k)·ψ[k ^ x]`` with
``e(k) = Σ_j θ_j·phase_j·(-1)^{parity(k & z_j)}`` a function of the few
Z-active qubits only.  Then ``H² = diag(|e|²)`` and the exact exponential has
the closed form::

    exp(-i·H)·ψ = cos(|e|)·ψ  −  i·e·sin(|e|)/|e| · ψ_flipped

— one strided-flip read, two table multiplies and an add per fragment,
*independent of how many Pauli strings the fragment expands into* (the
15-qubit order-11 term of Fig. 2 costs the same three passes as a two-qubit
hop).  ``cos``/``sin`` tables live on the 2^w patterns of the fragment's
Z-support (w small) and broadcast over the full register; diagonal fragments
(``x == 0``) collapse to a single element-wise phase, and consecutive
diagonal visits are summed as angles and exponentiated once at bake time.

Lowering is split in two.  Everything that depends on the Hamiltonian
alone is computed once and kept in a bounded module-level LRU keyed on the
as-written term sequence, the strategy, the ``trotter_split`` flag, the table
and merge caps and the register width: each fragment's Pauli decomposition
into ``(x, z, phase, coefficient)`` strings and its bake layout — factored
sign mask, flip slices and the *unit angle table*
``unit = Σ_j coefficient_j·phase_j·(-1)^{parity(k & z_j)}`` on the support,
so that a visit's ``e = scale·unit``.  When every fragment is diagonal
(HUBO cost functions, Ising models, number-only terms) the entry also keeps
the register's energy vector ``E = Σ_f unit_f``.  A new
``(time, steps, order)`` point therefore bakes a fragment visit with one
scalar multiply plus the small ``cos``/``sin`` tables, and an all-diagonal
Hamiltonian's whole step with one ``exp(-i·dt·E)``.  The baked plan is then
cached on the :class:`~repro.compile.program.CompiledProgram`, so the
Trotter steps of one run and ``run_many`` initial-state sweeps replay the
same tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from repro.circuits.pauli_kernels import pauli_masks
from repro.exceptions import CompileError
from repro.utils.lru import LRUCache

if TYPE_CHECKING:  # pragma: no cover
    from repro.compile.problem import SimulationProblem

#: Strategies whose programs are lowerable term schedules.
LOWERABLE_STRATEGIES = ("direct", "pauli")

#: Largest merged-diagonal table (2^18 complex entries = 4 MiB); beyond this
#: adjacent diagonal visits stay separate ops instead of growing one table,
#: and an all-diagonal Hamiltonian keeps no register-wide energy vector.
_MAX_MERGED_DIAGONAL_BITS = 18

#: Largest dense support table of one group (2^14 complex entries = 256 KiB).
#: Wider Z-supports are factored as ``e(k) = (-1)^{parity(k & z_common)}·f(k)``
#: with ``z_common`` the AND of the group's Z masks — for a Jordan–Wigner
#: string that peels off the whole parity chain, leaving ``f`` on the few
#: transition/number qubits; the common sign is applied at run time from the
#: shared basis-index cache.
_MAX_TABLE_BITS = 14

#: Time-independent lowerings kept by :func:`_lowered`, at most 16.  An
#: entry holds one complex unit angle table on the support (2^w entries)
#: per fragment, plus the 2^n float64 energy vector of an all-diagonal
#: Hamiltonian (at most 2 MiB at the merge cap).
_LOWERING_CACHE = LRUCache(cap=16)


class PlanLoweringError(CompileError):
    """Raised when a problem/strategy pair has no mask-plan representation."""


class MaskRotation(NamedTuple):
    """One ``exp(-i·theta·P)`` with ``P`` in symplectic mask form."""

    x_mask: int
    z_mask: int
    phase: complex  # the (-i)^{|Y|} prefactor of pauli_masks
    theta: float


class _DiagonalOp(NamedTuple):
    """``ψ *= table`` — element-wise phases broadcast from the Z-support."""

    table: np.ndarray  # complex, broadcast-shaped (2 on support axes, 1 elsewhere)


class _PairOp(NamedTuple):
    """``ψ' = A·ψ + s·B·ψ_flip`` — the closed-form fragment exponential.

    ``s`` is the optional run-time parity sign ``(-1)^{parity(k & sign_mask)}``
    carrying the factored-out common Z component (e.g. a Jordan–Wigner chain);
    ``sign_mask == 0`` means no run-time sign.  A diagonal group too wide for
    a dense table is expressed as a pair op with an identity flip.
    """

    flip: tuple  # slice tuple realising ψ[k ^ x] as a strided view
    table_a: np.ndarray  # cos(|f|), broadcast-shaped
    table_b: np.ndarray  # -i·f·sin(|f|)/|f|, broadcast-shaped
    sign_mask: int = 0
    #: parity(k & sign_mask) as a (2,)*n boolean tensor, materialized at bake
    #: time (ops are cached on the plan, so every step and sweep reuses it);
    #: None when sign_mask == 0.
    sign_parity: "np.ndarray | None" = None


class _Layout(NamedTuple):
    """How one fragment bakes, fixed by its strings alone.

    A visit with slice ``scale = fraction·dt`` has the angle table
    ``e(k) = (-1)^{parity(k & sign_mask)} · f(k restricted to the support)``
    with ``f = scale·unit``; ``sign_mask`` is nonzero only when the full
    Z-support would overflow :data:`_MAX_TABLE_BITS` — the
    :func:`_factor_z_masks` policy.
    """

    x_mask: int
    sign_mask: int
    flip: tuple  # slice tuple realising ψ[k ^ x] as a strided view
    #: ``Σ_j coefficient_j·phase_j·signs_j`` over the 2^w support patterns:
    #: complex, read-only, broadcast-shaped (2 on support axes, 1 elsewhere).
    unit: np.ndarray

    @property
    def diagonal(self) -> bool:
        """An element-wise phase: no flip and no run-time sign."""
        return self.x_mask == 0 and self.sign_mask == 0


class _Fragment(NamedTuple):
    """The time-independent lowering of one exponentiated fragment."""

    strings: tuple[tuple[int, int, complex, float], ...]  # non-identity (x, z, phase, coeff)
    identity: tuple[float, ...]  # coefficients of identity strings: a global phase
    layout: "_Layout | None"  # None when every string is the identity


class _Lowering(NamedTuple):
    """One :data:`_LOWERING_CACHE` entry: the time-independent half of a plan."""

    fragments: tuple[_Fragment, ...]
    #: ``Σ_f unit_f`` over the register (float64, shape ``(2,)*n``, read-only)
    #: when every fragment is diagonal and ``n <= _MAX_MERGED_DIAGONAL_BITS``;
    #: ``None`` otherwise.
    energy: "np.ndarray | None"


def _parity_tensor(num_qubits: int, mask: int) -> np.ndarray:
    """``parity(k & mask)`` as a read-only boolean tensor of shape ``(2,)*n``."""
    from repro.circuits.pauli_kernels import basis_indices

    indices = basis_indices(num_qubits)
    tensor = _parity_of(indices & indices.dtype.type(mask)).reshape(
        (2,) * num_qubits
    )
    tensor.setflags(write=False)
    return tensor


def _factor_z_masks(z_masks) -> tuple[int, int]:
    """Factor a group's Z masks into ``(sign_mask, residual_union)``.

    The single source of the table-width policy: when the plain Z-support
    union fits :data:`_MAX_TABLE_BITS` the group bakes a dense table
    (``sign_mask == 0``); otherwise the AND of all masks — contained in every
    string, so its parity splits off exactly — becomes a run-time sign and the
    table lives on the residual union.  Used identically by the lowering-time
    acceptance check and by the bake layout.
    """
    union = 0
    for z_mask in z_masks:
        union |= z_mask
    if bin(union).count("1") <= _MAX_TABLE_BITS:
        return 0, union
    common = z_masks[0]
    for z_mask in z_masks:
        common &= z_mask
    residual = 0
    for z_mask in z_masks:
        residual |= z_mask & ~common
    return common, residual


@dataclass
class EvolutionPlan:
    """A fully-lowered product formula: the fragment visits of one Trotter step.

    ``visits`` holds one ``(fragment index, scale)`` pair per exponentiated
    fragment of one (order-expanded) step, ``scale = fraction·dt`` the slice
    the visit evolves its fragment for; :meth:`evolve` replays the baked
    executor ops ``steps`` times and applies the accumulated identity-string
    phase once at the end.  Reusable across initial states, including
    batched ones.  Built and baked by :func:`lower_problem` from the
    Hamiltonian's cached lowering; the :class:`MaskRotation` view of the
    same schedule (:attr:`step_groups`) is built only when read.
    """

    num_qubits: int
    steps: int
    visits: tuple[tuple[int, float], ...]
    _lowering: _Lowering = field(repr=False, compare=False)
    #: Phase angle collected from identity strings over ONE step (the lowered
    #: analogue of ``QuantumCircuit.global_phase``).
    step_phase: float = 0.0
    strategy: str = "direct"
    #: The Trotter slice ``time / steps``.
    dt: float = 0.0
    _groups: "tuple | None" = field(default=None, repr=False, compare=False)
    _ops: "list | None" = field(default=None, repr=False, compare=False)

    @property
    def step_groups(self) -> tuple[tuple[MaskRotation, ...], ...]:
        """One tuple of :class:`MaskRotation` per visit of one step (built on
        first read; execution never needs them)."""
        if self._groups is None:
            fragments = self._lowering.fragments
            self._groups = tuple(
                tuple(
                    MaskRotation(x_mask, z_mask, phase, coefficient * scale)
                    for x_mask, z_mask, phase, coefficient in fragments[index].strings
                )
                for index, scale in self.visits
            )
        return self._groups

    @property
    def step_rotations(self) -> tuple[MaskRotation, ...]:
        """The flat mask-tuple sequence of one step (groups concatenated)."""
        return tuple(rotation for group in self.step_groups for rotation in group)

    def _rotations_per_step(self) -> int:
        fragments = self._lowering.fragments
        return sum(len(fragments[index].strings) for index, _ in self.visits)

    @property
    def num_rotations(self) -> int:
        """Total mask rotations replayed by one :meth:`evolve` call (counted,
        not built)."""
        return self._rotations_per_step() * self.steps

    # ----------------------------------------------------------------- baking

    def _bake_group(self, layout: _Layout, scale: float, parities: dict) -> "_PairOp":
        """The executor op of one non-diagonal visit: its angle table
        ``f = scale·unit``, then the closed-form exponential tables."""
        f = scale * layout.unit
        sign_mask = layout.sign_mask
        sign_parity = None
        if sign_mask:
            sign_parity = parities.get(sign_mask)
            if sign_parity is None:
                sign_parity = parities[sign_mask] = _parity_tensor(
                    self.num_qubits, sign_mask
                )
        if layout.x_mask == 0:
            # Wide diagonal with a factored sign: exp(-i·s·f) = cos f − i·s·sin f,
            # which is a pair op whose "flip" is the identity.  f is real here
            # (no Y factors without X).
            return _PairOp(
                layout.flip, np.cos(f.real), -1j * np.sin(f.real), sign_mask, sign_parity
            )
        magnitude = np.abs(f)
        with np.errstate(invalid="ignore", divide="ignore"):
            sinc = np.where(magnitude > 0.0, np.sin(magnitude) / magnitude, 0.0)
        return _PairOp(
            layout.flip, np.cos(magnitude), -1j * f * sinc, sign_mask, sign_parity
        )

    def _baked_ops(self) -> list:
        """Executor ops of one step (built once, cached on the plan).

        An all-diagonal Hamiltonian bakes its step as the single phase vector
        ``exp(-i·dt·E)``: exact, because its fragments commute and every
        product formula gives each fragment a total weight of one per step.
        Otherwise each distinct non-diagonal visit is baked once — the
        mirrored visits of an order-2 (or Suzuki) step repeat a
        ``(fragment, scale)`` pair — and runs of diagonal visits are summed
        as angles: each adds ``scale·unit`` into one broadcast table, which
        takes a single ``exp`` when the run is flushed or folded into the
        next pair op as ``A' = T·A`` and ``B'(k) = B(k)·T(k ^ x)`` (the flip
        of a broadcast table is just its slice-reversal, size-1 axes
        included), so diagonal runs cost nothing at execution time.  A merge
        whose operands' sizes multiply past 2^18 (a bound on the merged
        table) flushes the run instead.
        """
        if self._ops is not None:
            return self._ops
        if self._lowering.energy is not None:
            self._ops = [_DiagonalOp(np.exp((-1j * self.dt) * self._lowering.energy))]
            return self._ops
        cap = 1 << _MAX_MERGED_DIAGONAL_BITS
        fragments = self._lowering.fragments
        ops: list = []
        pending: np.ndarray | None = None  # summed angles of the diagonal run
        parities: dict = {}  # sign_mask -> parity tensor, deduped per plan
        baked: dict = {}  # (fragment index, scale) -> its op, deduped per plan
        for index, scale in self.visits:
            layout = fragments[index].layout
            if layout.diagonal:
                angles = scale * layout.unit.real
                if pending is None:
                    pending = angles
                elif pending.size * angles.size <= cap:
                    pending = pending + angles
                else:
                    ops.append(_DiagonalOp(np.exp(-1j * pending)))
                    pending = angles
                continue
            op = baked.get((index, scale))
            if op is None:
                op = baked[index, scale] = self._bake_group(layout, scale, parities)
            if pending is not None:
                phases = np.exp(-1j * pending)
                if phases.size * op.table_a.size <= cap:
                    op = _PairOp(
                        op.flip,
                        np.ascontiguousarray(op.table_a * phases),
                        np.ascontiguousarray(op.table_b * phases[op.flip]),
                        op.sign_mask,
                        op.sign_parity,
                    )
                else:
                    ops.append(_DiagonalOp(phases))
                pending = None
            ops.append(op)
        if pending is not None:
            ops.append(_DiagonalOp(np.exp(-1j * pending)))
        self._ops = ops
        return ops

    # -------------------------------------------------------------- execution

    def evolve(self, state: np.ndarray) -> np.ndarray:
        """Apply the full schedule to ``state`` (``(2^n,)`` or ``(2^n, batch)``).

        Returns a new array of the same shape; the input is untouched.
        """
        state = np.asarray(state)
        if state.ndim > 2:
            raise CompileError(
                f"expected a (dim,) vector or a (dim, batch) array, got shape "
                f"{state.shape}"
            )
        if state.shape[0] != 1 << self.num_qubits:
            raise CompileError(
                f"state of dimension {state.shape[0]} does not fit a "
                f"{self.num_qubits}-qubit plan"
            )
        batched = state.ndim > 1
        shape = state.shape
        tensor_shape = (2,) * self.num_qubits + shape[1:]
        psi = np.array(state, dtype=complex, copy=True).reshape(tensor_shape)
        scratch = np.empty_like(psi)
        extra = (slice(None),) * (len(shape) - 1)
        ops = self._baked_ops()
        for _ in range(self.steps):
            for op in ops:
                if isinstance(op, _DiagonalOp):
                    table = op.table
                    psi *= table[..., None] if batched else table
                else:
                    table_b = op.table_b[..., None] if batched else op.table_b
                    np.multiply(psi[op.flip + extra], table_b, out=scratch)
                    if op.sign_parity is not None:
                        odd = op.sign_parity
                        np.negative(
                            scratch,
                            out=scratch,
                            where=odd[..., None] if batched else odd,
                        )
                    psi *= op.table_a[..., None] if batched else op.table_a
                    psi += scratch
        total_phase = self.step_phase * self.steps
        if total_phase:
            psi *= np.exp(1j * total_phase)
        return psi.reshape(shape)

    def describe(self) -> str:
        return (
            f"EvolutionPlan({self.strategy!r}: {len(self.visits)} "
            f"fragment groups ({self._rotations_per_step()} rotations)/step × "
            f"{self.steps} steps on {self.num_qubits} qubits)"
        )


def plan_group_key(
    problem_key: str,
    strategy: str,
    *,
    backend: str = "kernel",
    shared_kwargs: "dict | None" = None,
) -> str:
    """Canonical batch-grouping key of one grid point.

    Two runtime grid points with equal keys compile to the *same*
    :class:`EvolutionPlan` (same canonical problem, same strategy) and share
    every run argument that shapes the computation — only the per-point batch
    axis (an initial state, a sampling stream) differs.  The runtime executors
    gather such points into one chunk and execute them as a single vectorized
    ``(dim, B)`` evolution, so a 12-repeat grid point costs one plan replay
    instead of twelve.

    ``problem_key`` is the problem's
    :meth:`~repro.compile.problem.SimulationProblem.content_key`, which
    ignores term order: that is safe because the executors compile the
    canonical (sorted) problem, so equal problem keys mean equal plans.
    ``shared_kwargs`` are the run kwargs *minus* the batch axis.
    """
    from repro.utils.serialization import content_hash

    return content_hash(
        {
            "problem": problem_key,
            "strategy": strategy.lower(),
            "backend": backend,
            "run_kwargs": dict(shared_kwargs or {}),
        },
        tag="planbatch",
    )


def _parity_of(values: np.ndarray) -> np.ndarray:
    """Bit parity per element, sharing the popcount (and its old-NumPy
    fallback) with :mod:`repro.circuits.pauli_kernels`."""
    from repro.circuits.pauli_kernels import _popcount

    return (_popcount(values) & 1).astype(bool)


def _schedule(num_fragments: int, order: int) -> list[tuple[int, float]]:
    """The fragment visit order of one product-formula step.

    Returns ``(fragment_index, fraction)`` pairs where ``fraction`` scales the
    step slice ``dt`` — the mask-level mirror of
    :func:`repro.core.trotter._formula_step` (Suzuki recursion included).
    """
    forward = list(range(num_fragments))
    if order == 1:
        return [(i, 1.0) for i in forward]
    if order == 2:
        return [(i, 0.5) for i in forward] + [(i, 0.5) for i in reversed(forward)]
    k = order // 2
    u_k = 1.0 / (4.0 - 4.0 ** (1.0 / (2 * k - 1)))
    inner = _schedule(num_fragments, order - 2)
    outer = [(i, frac * u_k) for i, frac in inner]
    middle = [(i, frac * (1.0 - 4.0 * u_k)) for i, frac in inner]
    return outer * 2 + middle + outer * 2


def _merged_schedule(num_fragments: int, order: int) -> list[tuple[int, float]]:
    """The schedule with consecutive visits of the same fragment coalesced.

    Exact: repeated factors of one fragment are exponentials of proportional
    generators, so their angles add (this absorbs the order-2 turnaround and
    the Suzuki recursion boundaries).
    """
    merged: list[tuple[int, float]] = []
    for index, fraction in _schedule(num_fragments, order):
        if merged and merged[-1][0] == index:
            merged[-1] = (index, merged[-1][1] + fraction)
        else:
            merged.append((index, fraction))
    return merged


def _check_table_width(entries, label: str) -> None:
    """Refuse fragments whose factored support table would still be huge.

    Applies the exact :func:`_factor_z_masks` policy the baking uses: after
    peeling off the common Z component, the residual support is bounded by the
    fragment's transition + number qubits; a fragment keeping more than
    :data:`_MAX_TABLE_BITS` residual Z-active qubits (2^14+ table entries)
    has no compact plan representation.
    """
    _, residual = _factor_z_masks([z_mask for _, z_mask, _, _ in entries])
    if bin(residual).count("1") > _MAX_TABLE_BITS:
        raise PlanLoweringError(
            f"fragment {label!r} keeps {bin(residual).count('1')} residual "
            f"Z-active qubits after factoring; the support table would exceed "
            f"2^{_MAX_TABLE_BITS} entries"
        )


def _fragment_masks(pauli_operator) -> list[tuple[int, int, complex, float]]:
    """Lower a Pauli operator to ``(x, z, phase, coefficient)`` tuples."""
    lowered = []
    for string, coeff in pauli_operator.items():
        coeff = complex(coeff)
        if abs(coeff.imag) > 1e-10:
            raise PlanLoweringError(
                f"Pauli term {string} has a non-real coefficient {coeff:.3g}; "
                "the schedule is not a Hermitian evolution"
            )
        x_mask, z_mask, phase = pauli_masks(str(string))
        lowered.append((x_mask, z_mask, phase, coeff.real))
    return lowered


def _unit_table(num_qubits: int, axes: list[int], sign_mask: int, strings) -> np.ndarray:
    """A fragment's ``unit = Σ_j coefficient_j·phase_j·signs_j`` on its support.

    ``signs_j(p) = (-1)^{parity(p & c_j)}`` over the 2^w support patterns,
    with ``c_j`` string j's residual Z mask compressed onto the support axes,
    so ``unit`` is the product of the weight vector with the support's
    parity (Sylvester–Hadamard) matrix.  It is evaluated vectorized as a fast
    Walsh–Hadamard transform — the weights scattered onto their compressed
    masks, then one butterfly per support axis: O(w·2^w) time and O(2^w)
    memory, where materializing the strings × 2^w sign matrix would need
    O(S·2^w) (2048 × 8192 entries for the Fig. 2 term).
    """
    n = num_qubits
    width = len(axes)
    residuals = np.array(
        [z_mask & ~sign_mask for _, z_mask, _, _ in strings], dtype=np.int64
    )
    shifts = np.array([n - 1 - q for q in axes], dtype=np.int64)
    place = np.left_shift(1, np.arange(width - 1, -1, -1, dtype=np.int64))
    table = np.zeros(1 << width, dtype=complex)
    # Distinct strings sharing an X mask have distinct Z masks, so no two
    # land on the same compressed mask.
    table[((residuals[:, None] >> shifts) & 1) @ place] = [
        coefficient * phase for _, _, phase, coefficient in strings
    ]
    for axis in range(width):
        pairs = table.reshape(1 << axis, 2, -1)
        low, high = pairs[:, 0], pairs[:, 1]
        difference = low - high
        low += high
        high[...] = difference
    unit = table.reshape(tuple(2 if q in axes else 1 for q in range(n)))
    unit.setflags(write=False)  # shared by every plan of the Hamiltonian
    return unit


def _layout(num_qubits: int, strings) -> _Layout:
    """The bake layout of a group of strings sharing one X mask."""
    n = num_qubits
    sign_mask, union = _factor_z_masks([z_mask for _, z_mask, _, _ in strings])
    axes = [q for q in range(n) if (union >> (n - 1 - q)) & 1]
    x_mask = strings[0][0]
    return _Layout(
        x_mask,
        sign_mask,
        tuple(
            slice(None, None, -1) if (x_mask >> (n - 1 - q)) & 1 else slice(None)
            for q in range(n)
        ),
        _unit_table(n, axes, sign_mask, strings),
    )


def _fragment(num_qubits: int, entries) -> _Fragment:
    """Split one fragment's ``(x, z, phase, coefficient)`` entries for the cache."""
    strings = tuple(entry for entry in entries if entry[0] or entry[1])
    return _Fragment(
        strings,
        tuple(coeff for x_mask, z_mask, _, coeff in entries if not (x_mask or z_mask)),
        _layout(num_qubits, strings) if strings else None,
    )


def _energy(num_qubits: int, fragments: tuple[_Fragment, ...]) -> "np.ndarray | None":
    """``E = Σ_f unit_f`` over the register when every fragment is diagonal.

    ``None`` for a Hamiltonian with any flipping or factored-sign fragment,
    or one wider than :data:`_MAX_MERGED_DIAGONAL_BITS`.
    """
    if num_qubits > _MAX_MERGED_DIAGONAL_BITS or any(
        fragment.layout is not None and not fragment.layout.diagonal
        for fragment in fragments
    ):
        return None
    energy = np.zeros((2,) * num_qubits)
    for fragment in fragments:
        if fragment.layout is not None:
            energy += fragment.layout.unit.real
    energy.setflags(write=False)
    return energy


def _lowered(problem: "SimulationProblem", strategy: str) -> _Lowering:
    """The time-independent lowering of the problem's Hamiltonian.

    Served from :data:`_LOWERING_CACHE`, keyed on everything lowering and
    baking read: the strategy, the ``trotter_split`` flag, the table and
    merge caps, the register width and the *as-written* term sequence, as
    the Hamiltonian's per-version
    :meth:`~repro.operators.hamiltonian.Hamiltonian.sequence_key` (so a
    lookup does not rehash every term).  Not ``content_key()`` alone: it
    ignores term order, and term order is the order of the Trotter product.
    ``add_term`` changes the sequence key, so a mutated Hamiltonian can
    never hit a stale entry.
    """
    hamiltonian = problem.hamiltonian
    split_mode = problem.options.complex_mode == "trotter_split"
    key = (strategy, split_mode, _MAX_TABLE_BITS, _MAX_MERGED_DIAGONAL_BITS,
           hamiltonian.num_qubits, hamiltonian.sequence_key())
    lowering = _LOWERING_CACHE.get(key)
    if lowering is not None:
        return lowering

    n = hamiltonian.num_qubits
    if strategy == "pauli":
        # One single-string fragment per Pauli term, in pauli_fragments() order.
        fragments = tuple(
            _fragment(n, [entry]) for entry in _fragment_masks(problem.pauli_operator())
        )
    else:
        lowered = []
        for fragment in hamiltonian.hermitian_fragments():
            term = fragment.term
            if (
                split_mode
                and fragment.include_hc
                and abs(complex(term.coefficient).imag) > 1e-12
                and term.transition_qubits
            ):
                raise PlanLoweringError(
                    f"fragment {term.label!r} with a complex coefficient under "
                    "complex_mode='trotter_split' carries a deliberate "
                    "splitting error the exact mask plan would not reproduce"
                )
            entries = _fragment_masks(fragment.to_pauli())
            if len({x for x, _, _, _ in entries}) > 1:
                raise PlanLoweringError(
                    f"fragment {term.label!r} decomposes into strings with "
                    "mixed X masks; not a single permutation-diagonal block"
                )
            _check_table_width(entries, term.label)
            lowered.append(_fragment(n, entries))
        fragments = tuple(lowered)
    return _LOWERING_CACHE.setdefault(key, _Lowering(fragments, _energy(n, fragments)))


def lower_problem(problem: "SimulationProblem", strategy: str) -> EvolutionPlan:
    """Lower a problem's Trotter schedule for the given evolution strategy.

    Returns a baked plan: the Hamiltonian's time-independent lowering comes
    from :func:`_lowered`, so only the visit scales and the small support
    tables (or, for an all-diagonal Hamiltonian, one phase vector) are
    computed here.

    Raises :class:`PlanLoweringError` when the pair cannot be represented as a
    mask plan: non-evolution strategies, direct fragments whose strings do not
    share an X mask (impossible for SCB terms, checked defensively), a
    fragment whose factored support table would exceed 2^``_MAX_TABLE_BITS``
    entries, or the ``complex_mode="trotter_split"`` option paired with
    complex transition coefficients (there the circuit intentionally carries
    a splitting error the exact plan would not reproduce).
    """
    if strategy not in LOWERABLE_STRATEGIES:
        raise PlanLoweringError(
            f"strategy {strategy!r} does not lower to a mask plan "
            f"(supported: {', '.join(LOWERABLE_STRATEGIES)})"
        )
    lowering = _lowered(problem, strategy)
    dt = problem.time / problem.steps
    visits: list[tuple[int, float]] = []
    step_phase = 0.0
    for index, fraction in _merged_schedule(len(lowering.fragments), problem.order):
        fragment = lowering.fragments[index]
        for coefficient in fragment.identity:
            step_phase -= coefficient * fraction * dt
        if fragment.layout is not None:
            visits.append((index, fraction * dt))
    plan = EvolutionPlan(
        num_qubits=problem.num_qubits,
        steps=problem.steps,
        visits=tuple(visits),
        _lowering=lowering,
        step_phase=step_phase,
        strategy=strategy,
        dt=dt,
    )
    plan._baked_ops()
    return plan
