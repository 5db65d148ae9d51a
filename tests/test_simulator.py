"""Statevector operations against small matrix oracles."""

import itertools
import math
import re
from unittest import mock

import numpy as np
import pytest

from parityflow import simulator
from parityflow.layout import cnot, cz, hadamard, rx, rz
from parityflow.simulator import (
    EntangledQubitError,
    Statevector,
    ZeroProbabilityError,
    append_qubit,
    apply_circuit,
    apply_pauli_x,
    apply_pauli_z,
    basis_state,
    compile_plan,
    discard_qubit,
    distance_up_to_phase,
    outcome_probability,
    project,
    random_state,
    run_schedule,
)

from pauli_helpers import pauli_expectation, pauli_from_text

SQ2 = 1 / math.sqrt(2)


def test_hadamard_on_zero():
    out = apply_circuit(basis_state(("q",), "0"), [hadamard("q")])
    assert np.allclose(out.amplitudes, [SQ2, SQ2])


def test_cnot_flips_target():
    out = apply_circuit(basis_state(("1", "2"), "10"), [cnot("1", "2")])
    assert np.allclose(out.amplitudes, [0, 0, 0, 1])


def test_rz_pi_on_plus_matches_matrix_oracle():
    # oracle: RZ(pi) = diag(e^{-i pi/2}, e^{i pi/2}) applied to |+>
    plus = np.array([SQ2, SQ2])
    oracle = np.diag([np.exp(-0.5j * np.pi), np.exp(0.5j * np.pi)]) @ plus
    minus = np.array([SQ2, -SQ2])
    assert np.allclose(oracle, -1j * minus)
    state = apply_circuit(basis_state(("q",), "0"), [hadamard("q"), rz("q", np.pi)])
    assert np.allclose(state.amplitudes, oracle)
    assert distance_up_to_phase(state, Statevector(("q",), minus)) < 1e-14


def test_rx_convention():
    # RX(t)|0> = cos(t/2)|0> - i sin(t/2)|1>
    t = 0.83
    out = apply_circuit(basis_state(("q",), "0"), [rx("q", t)])
    assert np.allclose(out.amplitudes, [math.cos(t / 2), -1j * math.sin(t / 2)])


@pytest.mark.parametrize("gate", [rz, rx])
def test_rotation_gates_apply_their_matrices_bit_for_bit(gate):
    name = gate("q", 1.0).name
    # signed-zero amplitudes show a zero angle's sign in the output's zeros
    signed_zeros = np.array([complex(-0.0, -0.0), 1, complex(-0.0, -0.0), complex(-0.0, -0.0)])
    states = [random_state(("a", "b", "c"), np.random.default_rng(5)), Statevector(("b", "c"), signed_zeros)]
    for angle in (0.7, -2.0, 0.0, -0.0):
        fresh = simulator._ROTATIONS[name](angle)
        for state in states:
            pos = state.labels.index("b")
            reference = simulator._apply_1q(state.amplitudes, fresh, pos, state.num_qubits).tobytes()
            assert apply_circuit(state, [gate("b", angle)]).amplitudes.tobytes() == reference


def test_rotate_qubits_matches_rz_then_rx_gates():
    """One 2x2 per rotated qubit, on one register or a stack of them,
    against RZ(phi) then RX(alpha) as gates; a qubit with both angles zero,
    or absent, is not touched."""
    rng = np.random.default_rng(9)
    labels = ("a", "b", "c", "d")
    rows = np.array([random_state(labels, rng).amplitudes for _ in range(3)])
    alpha = {"a": 0.7, "c": -2.1, "d": 0.0}
    phi = {"b": 1.3, "c": 0.4, "d": -0.0, "x": 0.5}
    gates = [rz(q, phi[q]) for q in ("b", "c")] + [rx(q, alpha[q]) for q in ("a", "c")]
    out = simulator.rotate_qubits(rows, labels, alpha, phi)
    for row, amps in zip(rows, out):
        expected = apply_circuit(Statevector(labels, row), gates).amplitudes
        assert np.abs(amps - expected).max() <= 1e-15
    assert simulator.rotate_qubits(rows, labels, {"d": 0.0}, {"d": -0.0}) is rows


def test_cz_phases_only_11():
    state = apply_circuit(
        basis_state(("1", "2"), "00"), [hadamard("1"), hadamard("2"), cz("1", "2")]
    )
    assert np.allclose(state.amplitudes, [0.5, 0.5, 0.5, -0.5])


def test_apply_unknown_qubit():
    with pytest.raises(ValueError, match="unknown qubit"):
        apply_circuit(basis_state(("a",), "0"), [hadamard("b")])


def test_project_plus_along_x_is_certain():
    plus = apply_circuit(basis_state(("q",), "0"), [hadamard("q")])
    prob, after = project(plus, "q", (1, 0, 0), 1)
    assert prob == pytest.approx(1.0, abs=1e-12)
    assert distance_up_to_phase(plus, after) < 1e-12


def test_project_zero_probability_outcome():
    with pytest.raises(ZeroProbabilityError):
        project(basis_state(("q",), "0"), "q", (0, 0, 1), -1)


@pytest.mark.parametrize("theta", [0.1, 0.7, 1.9, 2.9])
def test_project_yz_axis_probability(theta):
    # oracle: p(+1) = |<m|0>|^2 for |m> = RX(-theta)|0> = cos(t/2)|0> + i sin(t/2)|1>
    m = np.array([math.cos(theta / 2), 1j * math.sin(theta / 2)])
    oracle = abs(np.vdot(m, [1, 0])) ** 2
    assert oracle == pytest.approx(math.cos(theta / 2) ** 2)
    prob, _ = project(
        basis_state(("q",), "0"), "q", (0, math.sin(theta), math.cos(theta)), 1
    )
    assert prob == pytest.approx(oracle, abs=1e-12)


def test_project_axis_must_be_unit():
    with pytest.raises(ValueError, match="unit"):
        project(basis_state(("q",), "0"), "q", (0, 0, 2), 1)


@pytest.mark.parametrize("axis", [(math.nan, 0.0, 0.0), (0.0, math.nan, 1.0), (math.inf, 0.0, 0.0)])
def test_non_unit_axes_refused_when_non_finite(axis):
    state = basis_state(("q",), "0")
    with pytest.raises(ValueError, match="unit"):
        outcome_probability(state, "q", axis)
    with pytest.raises(ValueError, match="unit"):
        project(state, "q", axis, 1)
    schedule = compile_plan(state.labels, ["q"], lambda _: ((), ()))
    with pytest.raises(ValueError, match="unit"):
        run_schedule(schedule, state.amplitudes, [axis], [1])


def test_fresh_factors_are_built_once_per_axis_and_checked_on_every_call():
    for axis in [(0.0, 0.0, 1.0), (0.0, math.sin(0.7), math.cos(0.7)), (0.6, -0.8, 0.0)]:
        factors = simulator._fresh_factors(axis)
        assert simulator._fresh_factors(axis) is factors
        assert not factors.flags.writeable
        # its CNOT rows are the outcome bras every measured qubit is contracted with
        cnot = simulator._CNOT_JOIN
        assert np.array_equal(factors[cnot : cnot + 2], np.array(simulator._bra_pairs(axis)))
    for _ in range(2):
        with pytest.raises(ValueError, match="unit"):
            simulator._fresh_factors((0.0, 0.0, 2.0))


def _reference_bra_pairs(axis):
    """`simulator._bra_pairs` as it was first written: each outcome's
    projector row by row, the `_bra_row` picked, normalised."""
    if len(axis) != 3 or not abs(math.sqrt(sum(c * c for c in axis)) - 1.0) <= 1e-9:
        raise ValueError("axis must be a unit 3-vector")
    x, y, z = axis
    rows = []
    for o in (1, -1):
        top, bottom = (1 + o * z, complex(o * x, -o * y)), (complex(o * x, o * y), 1 - o * z)
        a, b = bottom if simulator._bra_row(z, o) else top
        norm = math.hypot(abs(a), abs(b))
        rows.append((a / norm, b / norm))
    return rows


def _reference_fresh_factors(axis):
    """`simulator._fresh_factors` as it was first written, from
    `_reference_bra_pairs`."""
    half = math.sqrt(0.5)
    (p0, p1), (m0, m1) = _reference_bra_pairs(axis)
    a, b, c, d = half * (p0 + p1), half * (p0 - p1), half * (m0 + m1), half * (m0 - m1)
    return np.array([a, b, c, d, a, b, c, -d, p0, p1, m0, m1, p0, p1, m0, -m1], dtype=np.complex128).reshape(8, 2)


def _random_unit_axes(count, rng):
    for v in rng.normal(size=(count, 3)):
        yield tuple(float(c) for c in v / np.linalg.norm(v))


@pytest.mark.parametrize(
    "axes",
    [
        [(0.6, 0.0, 0.8), (0.0, math.sin(0.7), math.cos(0.7))],  # z > 0
        [(0.0, 0.6, -0.8), (0.0, math.sin(2.5), math.cos(2.5))],  # z < 0
        [(0.6, -0.8, 0.0), (0.6, 0.8, -0.0), (math.cos(0.7), 0.0 - math.sin(0.7), 0.0)],  # the z = 0 tie
        [(0.0, 1.0, 0.0), (0.0, -1.0, 0.0), (-0.0, 1.0, -0.0)],  # +/-y
        [(1.0, 0.0, 0.0), (-1.0, 0.0, 0.0), (1.0, -0.0, 0.0)],  # pure x
        [(0.0, 0.0, 1.0), (0.0, 0.0, -1.0), (0, 0, 1)],  # pure z, also as ints
        list(_random_unit_axes(200, np.random.default_rng(7))),
    ],
)
def test_fresh_factors_match_the_reference_construction_bit_for_bit(axes):
    for axis in axes:
        expected = _reference_fresh_factors(axis)
        # uncached: the cache keys 0.0 and -0.0 as one, and their tables'
        # zeros differ in sign
        assert simulator._fresh_factors.__wrapped__(axis).tobytes() == expected.tobytes()
        assert np.array(simulator._bra_pairs(axis)).tobytes() == np.array(_reference_bra_pairs(axis)).tobytes()


@pytest.mark.parametrize(
    "axis", [(0.0, 0.0, 2.0), (0.6, 0.6, 0.0), (math.nan, 0.0, 1.0), (0.0, 0.0, math.nan), (0.6, 0.8), (0.6, 0.8, 0.0, 0.0)]
)
def test_fresh_factors_refuse_a_non_unit_axis_on_every_call(axis):
    for _ in range(2):
        with pytest.raises(ValueError, match="^axis must be a unit 3-vector$"):
            simulator._fresh_factors(axis)


def test_check_outcomes_hands_back_a_list_of_ints_as_it_is():
    """A list of `int` +/-1 of the right length is returned itself; every
    other accepted sequence as a new list of ints, and bools are refused
    with the message every other bad value gets."""
    outcomes = [1, -1, 1]
    assert simulator.check_outcomes(outcomes, 3) is outcomes
    assert simulator.check_outcomes(outcomes[:0], 0) == []
    for given in ((1, -1, 1), [np.int64(1), np.int64(-1), np.int64(1)], [1.0, -1.0, 1.0]):
        checked = simulator.check_outcomes(given, 3)
        assert checked == outcomes and checked is not given
        assert [type(o) for o in checked] == [int] * 3
    for bad in (True, np.bool_(True), 2, 0):
        with pytest.raises(ValueError, match=f"^prescribed outcomes must be \\+/-1, got {re.escape(str([bad]))}$"):
            simulator.check_outcomes([1, bad, -1], 3)
    with pytest.raises(ValueError, match="^2 prescribed outcome\\(s\\) for 3 measurement\\(s\\)$"):
        simulator.check_outcomes([1, -1], 3)
    for given in ("+-", iter(outcomes), {1, -1}):
        with pytest.raises(TypeError, match="^outcomes must be a sequence of \\+/-1$"):
            simulator.check_outcomes(given, len(given) if isinstance(given, (str, set)) else 3)


@pytest.mark.parametrize("qubits", [[], ["a"], ["b", "a"]])
def test_run_schedule_leaves_the_callers_array_writable_and_unshared(qubits):
    state = random_state(("a", "b"), np.random.default_rng(8))
    schedule = compile_plan(state.labels, qubits, lambda _: ((), ()))
    amps = state.amplitudes.copy()
    out, _ = run_schedule(schedule, amps, [(0.6, 0.0, 0.8)] * len(qubits), [-1] * len(qubits))
    assert amps.flags.writeable
    assert not np.shares_memory(amps, out.amplitudes)
    assert not out.amplitudes.flags.writeable
    assert np.array_equal(amps, state.amplitudes)
    amps[:] = 0.0
    assert abs(np.linalg.norm(out.amplitudes) - 1.0) <= simulator.NORM_TOL


def test_projection_idempotent():
    rng = np.random.default_rng(11)
    for _ in range(25):
        state = random_state(("a", "b"), rng)
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        outcome = 1 if rng.random() < 0.5 else -1
        try:
            _, once = project(state, "a", axis, outcome)
        except ZeroProbabilityError:
            continue
        prob2, twice = project(once, "a", axis, outcome)
        assert prob2 == pytest.approx(1.0, abs=1e-12)
        assert distance_up_to_phase(once, twice) < 1e-12


def test_outcome_probabilities_sum_to_one():
    rng = np.random.default_rng(5)
    for _ in range(50):
        state = random_state(("a", "b", "c"), rng)
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        total = outcome_probability(state, "b", axis, 1) + outcome_probability(
            state, "b", axis, -1
        )
        assert total == pytest.approx(1.0, abs=1e-12)


def test_distance_up_to_phase_cases():
    rng = np.random.default_rng(2)
    psi = random_state(("a", "b"), rng)
    rotated = Statevector(psi.labels, np.exp(0.37j) * psi.amplitudes)
    assert distance_up_to_phase(psi, rotated) < 1e-12
    zero = basis_state(("a",), "0")
    one = basis_state(("a",), "1")
    assert distance_up_to_phase(zero, one) == pytest.approx(1.0)
    plus = apply_circuit(zero, [hadamard("a")])
    assert distance_up_to_phase(zero, plus) == pytest.approx(math.sqrt(0.5))


def test_distance_symmetric():
    rng = np.random.default_rng(8)
    a = random_state(("x", "y"), rng)
    b = random_state(("x", "y"), rng)
    assert distance_up_to_phase(a, b) == pytest.approx(distance_up_to_phase(b, a), abs=1e-12)


def test_distance_label_mismatch():
    with pytest.raises(ValueError):
        distance_up_to_phase(basis_state(("a",), "0"), basis_state(("b",), "0"))


def test_discard_product_qubit():
    rng = np.random.default_rng(3)
    psi = random_state(("x", "y"), rng)
    widened = append_qubit(psi, "z", (1.0, 0.0))
    again = discard_qubit(widened, "z")
    assert again.labels == psi.labels
    assert distance_up_to_phase(again, psi) < 1e-12


def test_discard_entangled_qubit_rejected():
    bell = apply_circuit(basis_state(("a", "b"), "00"), [hadamard("a"), cnot("a", "b")])
    # purity oracle: reduced state of half a Bell pair is I/2, purity 1/2
    m = bell.amplitudes.reshape(2, 2)
    rho = m @ m.conj().T
    assert np.trace(rho @ rho).real == pytest.approx(0.5)
    with pytest.raises(EntangledQubitError):
        discard_qubit(bell, "a")


@pytest.mark.parametrize("theta", [math.pi / 2, -math.pi / 2])
def test_discard_after_a_tied_yz_projection_keeps_the_measured_phase(theta):
    # z = cos(+-pi/2) is +-6e-17: both rows of each projector have norm
    # 1/sqrt(2) up to rounding, so only the axis, not the state, can say
    # which row to keep
    axis = (0.0, math.sin(theta), math.cos(theta))
    rng = np.random.default_rng(12)
    for n in range(1, 7):
        state = random_state([f"q{i}" for i in range(n)], rng)
        for q in state.labels:
            schedule = compile_plan(state.labels, [q], lambda _: ((), ()))
            for outcome in (1, -1):
                _, projected = project(state, q, axis, outcome)
                discarded = discard_qubit(projected, q, axis, outcome)
                measured, _ = run_schedule(schedule, state.amplitudes, [axis], [outcome])
                assert discarded.labels == measured.labels
                assert np.abs(discarded.amplitudes - measured.amplitudes).max() <= 1e-12


def test_append_then_discard_round_trip():
    rng = np.random.default_rng(4)
    psi = random_state(("a",), rng)
    phi = rng.normal(size=2) + 1j * rng.normal(size=2)
    phi /= np.linalg.norm(phi)
    widened = append_qubit(psi, "b", phi)
    back = discard_qubit(widened, "b")
    assert distance_up_to_phase(back, psi) < 1e-12


def test_qubit_cap_enforced(monkeypatch):
    with pytest.raises(ValueError, match="17 qubits exceeds cap 16"):
        basis_state([f"q{i}" for i in range(17)], "0" * 17)
    monkeypatch.setattr(simulator, "DEFAULT_QUBIT_CAP", 1)
    small = basis_state(("a",), "0")
    with pytest.raises(ValueError, match="2 qubits exceeds cap 1"):
        append_qubit(small, "b", (1, 0))
    with pytest.raises(ValueError, match="2 qubits exceeds cap 1"):
        random_state(("a", "b"), np.random.default_rng(0))


def _chain_plan():
    """The register (a) that fresh u, v and w join, a - u - v - w a path:
    measuring u joins v first (one `_FRESH` step on a, v), and measuring v
    joins w first, so the register is 3 qubits wide before v leaves it."""
    partners = {"a": ["u"], "u": ["a", "v"], "v": ["u", "w"], "w": ["v"]}
    return simulator._live_plan(("a",), ["u", "v"], lambda _: ((), ()), ("u", "v", "w"), partners)


def test_schedules_carry_the_widest_register_a_run_holds():
    in_register = compile_plan(("a", "b", "c"), ["a", "c"], lambda _: ((), ()))
    assert (in_register.width, in_register.labels) == (3, ("b",))
    joined = _chain_plan()
    kinds = [simulator._PREPARE, simulator._FRESH, simulator._PREPARE, simulator._MEASURE]
    assert [step[0] for step in joined.steps] == kinds
    assert (joined.width, joined.labels) == (3, ("a", "w"))
    parity = simulator.parity_plan(("1", "2", "3"), ["(12)"], {"(12)": ["1", "2"]})
    assert (parity.width, parity.labels) == (3, ("1", "2", "3"))


def test_parity_plan_compiles_only_folded_cnot_joins():
    """A parity qubit holds the parity of its set and its -1 outcome is Z
    on that same set, so every step is a CNOT-joined `_FRESH` step with
    the Z folded in: row `_CNOT_JOIN + 2`, both masks 0, read at the
    set's mask. Every nonempty set of a 4-qubit register, in turn."""
    labels = ("1", "2", "3", "4")
    subsets = [s for k in range(1, 5) for s in itertools.combinations(labels, k)]
    sets = {f"p{j}": s for j, s in enumerate(subsets)}
    schedule = simulator.parity_plan(labels, sets, sets)
    assert (schedule.qubits, schedule.labels, schedule.width) == (tuple(sets), labels, 4)
    for members, step in zip(subsets, schedule.steps, strict=True):
        assert step == (simulator._FRESH, simulator._index_mask(labels, members), simulator._CNOT_JOIN + 2, 0, 0)


def _compiles():
    """A `_live_plan` with joins, a `compile_plan` with corrections and a
    `parity_plan`, each from fresh objects."""
    return [
        _chain_plan(),
        compile_plan(("a", "b", "c"), ["a", "c"], lambda q: ({"b"}, {"b", "c"} if q == "a" else {"b"})),
        simulator.parity_plan(("1", "2", "3"), ["(12)", "(123)"], {"(12)": ["1", "2"], "(123)": ["1", "2", "3"]}),
    ]


def test_schedules_are_plain_int_data():
    """Every entry of every step is an int, so two compiles of the same run
    are equal and hash equally. No compiler checks the cap or builds a
    parity table."""
    with (
        mock.patch.object(simulator, "check_cap", side_effect=AssertionError("cap checked")),
        mock.patch.object(simulator, "_odd_overlap", side_effect=AssertionError("table built")),
    ):
        first, second = _compiles(), _compiles()
    for schedule in first:
        assert all(type(entry) is int for step in schedule.steps for entry in step)
    assert first == second
    assert [hash(schedule) for schedule in first] == [hash(schedule) for schedule in second]


def test_compiles_over_the_cap_succeed_and_their_runs_are_refused(monkeypatch):
    """A compile holds masks only, so one over the cap succeeds and records
    its width; both runners refuse it before the first `_half` call."""
    monkeypatch.setattr(simulator, "DEFAULT_QUBIT_CAP", 2)
    schedules = _compiles()
    assert [schedule.width for schedule in schedules] == [3, 3, 3]
    starts = [("a",), ("a", "b", "c"), ("1", "2", "3")]
    with mock.patch.object(simulator, "_half", wraps=simulator._half) as half:
        for schedule, labels in zip(schedules, starts, strict=True):
            psi = Statevector(labels, np.eye(1 << len(labels))[0])
            axes = [(1.0, 0.0, 0.0)] * len(schedule.qubits)
            with pytest.raises(ValueError, match="register of 3 qubits exceeds cap 2"):
                run_schedule(schedule, psi.amplitudes, axes, [1] * len(schedule.qubits))
            with pytest.raises(ValueError, match="register of 3 qubits exceeds cap 2"):
                simulator.run_schedule_all(schedule, simulator.BranchArray.start(psi), axes)
    assert not half.called


def test_run_schedule_all_refuses_before_its_first_step(monkeypatch):
    schedule = _chain_plan()
    start = simulator.BranchArray.start(basis_state(("a",), "0"))
    axes = [(1.0, 0.0, 0.0)] * 2
    with mock.patch.object(simulator, "_half", wraps=simulator._half) as half:
        # 4 rows on the 3-qubit register: 3 + 2 > 4
        monkeypatch.setattr(simulator, "DEFAULT_QUBIT_CAP", 4)
        with pytest.raises(ValueError, match="4 outcome branches of 3 qubits exceed the 4-qubit cap"):
            simulator.run_schedule_all(schedule, start, axes)
        assert not half.called
        monkeypatch.setattr(simulator, "DEFAULT_QUBIT_CAP", 5)
        assert simulator.run_schedule_all(schedule, start, axes).amplitudes.shape == (4, 4)
        # both outcomes of the `_FRESH` step and of the `_MEASURE` step
        assert [(call.args[0][0], call.args[3]) for call in half.call_args_list] == [
            (simulator._FRESH, 0),
            (simulator._FRESH, 1),
            (simulator._MEASURE, 0),
            (simulator._MEASURE, 1),
        ]


def _kernel_steps(n, rng):
    """`_MEASURE` steps at every position of an n-qubit register, and
    `_FRESH` steps on each fresh-factor row pair with a random partner mask."""
    for pos in range(n):
        yield (simulator._MEASURE, pos, 0, 0)
    for row in (0, 2, 4, 6):
        mask = int(rng.integers(0, 1 << n))
        yield (simulator._FRESH, mask, row, 0, 0)


@pytest.mark.parametrize("n", range(1, 6))
def test_step_kernel_gives_each_stacked_register_what_it_gives_it_alone(n):
    """The kernel both runners share: `run_schedule_all` calls it on every
    branch row at once, `run_schedule` on one register, and each row of
    the stack comes out bit for bit as that register alone does."""
    rng = np.random.default_rng(60 + n)
    labels = tuple(f"q{i}" for i in range(n))
    rows = np.stack([random_state(labels, rng).amplitudes for _ in range(6)])
    for step in _kernel_steps(n, rng):
        direction = rng.normal(size=3)
        factors = simulator._fresh_factors(tuple(float(c) for c in direction / np.linalg.norm(direction)))
        for minus in (0, 1):
            stacked = simulator._half(step, rows, factors, minus)
            width = n - 1 if step[0] == simulator._MEASURE else n
            assert stacked.shape == (len(rows), 1 << width)
            for row, got in zip(rows, stacked, strict=True):
                assert got.tobytes() == simulator._half(step, row, factors, minus).tobytes()


def test_norm_preserved_over_long_random_circuit():
    rng = np.random.default_rng(12)
    labels = tuple("abcde")
    state = random_state(labels, rng)
    gates = []
    for _ in range(100):
        kind = rng.integers(4)
        q = labels[rng.integers(5)]
        if kind == 0:
            gates.append(hadamard(q))
        elif kind == 1:
            gates.append(rz(q, rng.uniform(-np.pi, np.pi)))
        elif kind == 2:
            gates.append(rx(q, rng.uniform(-np.pi, np.pi)))
        else:
            r = labels[rng.integers(5)]
            if r != q:
                gates.append(cnot(q, r))
    out = apply_circuit(state, gates)
    assert abs(np.linalg.norm(out.amplitudes) - 1.0) < 1e-12


def test_pauli_appliers_match_circuit_matrices():
    rng = np.random.default_rng(6)
    state = random_state(("a", "b"), rng)
    flipped = apply_pauli_x(state, "b")
    oracle = state.amplitudes.reshape(2, 2)[:, ::-1].reshape(-1)
    assert np.allclose(flipped.amplitudes, oracle)
    phased = apply_pauli_z(state, "a")
    oracle_z = state.amplitudes.copy()
    oracle_z[2:] *= -1
    assert np.allclose(phased.amplitudes, oracle_z)


@pytest.mark.parametrize("n", range(1, 7))
def test_pauli_kernel_matches_the_reference_appliers_on_every_branch_row(n):
    rng = np.random.default_rng(40 + n)
    labels = tuple(f"q{i}" for i in range(n))
    rows = np.stack([random_state(labels, rng).amplitudes for _ in range(5)])
    for _ in range(8):
        xmask, zmask = (int(m) for m in rng.integers(0, 1 << n, size=2))
        out = simulator._apply_paulis(rows.copy(), xmask, zmask)
        for row, got in zip(rows, out, strict=True):
            state = Statevector(labels, row)
            # mask bit n - 1 - i is label i, X's first
            for i, q in enumerate(labels):
                if xmask >> (n - 1 - i) & 1:
                    state = apply_pauli_x(state, q)
            for i, q in enumerate(labels):
                if zmask >> (n - 1 - i) & 1:
                    state = apply_pauli_z(state, q)
            assert np.array_equal(got, state.amplitudes)


@pytest.mark.parametrize("n", range(0, 7))
def test_odd_overlap_is_the_read_only_parity_of_each_index_under_the_mask(n):
    # keyed by the register's amplitude count, as the steps read it
    for mask in range(1 << n):
        odd = simulator._odd_overlap(1 << n, mask)
        assert odd.dtype == np.intp and not odd.flags.writeable
        assert odd.tolist() == [bin(i & mask).count("1") % 2 for i in range(1 << n)]


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_statevector_rejects_non_finite_amplitudes(bad):
    with pytest.raises(ValueError, match="norm"):
        Statevector(("a",), np.array([bad, 0.0], dtype=complex))
    with pytest.raises(ValueError, match="norm"):
        Statevector(("a", "b"), np.array([1.0, bad, 0.0, 0.0], dtype=complex))


def test_statevector_leaves_caller_array_writable():
    amps = np.array([1.0, 0.0], dtype=np.complex128)
    state = Statevector(("a",), amps)
    assert amps.flags.writeable
    amps[0] = 0.0
    assert state.amplitudes[0] == 1.0
    assert not state.amplitudes.flags.writeable


def test_pauli_expectation():
    plus = apply_circuit(basis_state(("q",), "0"), [hadamard("q")])
    assert pauli_expectation(plus, pauli_from_text(("q",), "+X_q")) == pytest.approx(1.0)
    assert pauli_expectation(plus, pauli_from_text(("q",), "+Z_q")) == pytest.approx(0.0)
    assert pauli_expectation(plus, pauli_from_text(("q",), "-X_q")) == pytest.approx(-1.0)
