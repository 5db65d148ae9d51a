"""Self-tests of the oracles: each one must accept a right answer and reject a wrong one.

Run directly (`python3 bench/selftest.py`) for the checks on hand-built
inputs. The workloads also call `witness_selftest` and `reference_selftest`
on data from their own runs, so every run shows that its oracles can fail.
"""

from __future__ import annotations

import math
import sys

import numpy as np

import oracles


def _expect(failures: list[str], label: str, ok: bool) -> None:
    if not ok:
        failures.append(label)


def counts_selftest(expected: dict) -> list[str]:
    """The count comparison passes on the atlas counts and fails on perturbed ones."""
    failures: list[str] = []
    right = {n: dict(c, flows_found=c["bipartite_instances"]) for n, c in expected.items()}
    _expect(failures, "atlas counts reject their own counts", not oracles.sweep_count_problems(right, expected))
    top = max(expected)
    for key, delta in (("graphs", 1), ("instances", -1), ("bipartite_instances", 1), ("flows_found", -1)):
        wrong = {n: dict(c) for n, c in right.items()}
        wrong[top][key] += delta
        _expect(failures, f"atlas counts accept a perturbed {key}", bool(oracles.sweep_count_problems(wrong, expected)))
    return failures


def io_mismatch_selftest() -> list[str]:
    failures: list[str] = []
    _expect(failures, "I != O check rejects a clean report", not oracles.io_mismatch_problems(200, 0, 200))
    _expect(failures, "I != O check accepts a found flow", bool(oracles.io_mismatch_problems(200, 1, 200)))
    _expect(failures, "I != O check accepts a short sample", bool(oracles.io_mismatch_problems(199, 0, 200)))
    return failures


def verifier_selftest() -> list[str]:
    """Path 1-2-3 with I = O = {1, 3}: g(2) = {2} before both ends is a YZ flow."""
    failures: list[str] = []
    path = (("1", "2", "3"), [("1", "2"), ("2", "3")], {"1", "3"}, {"1", "3"})
    good = ({"2": {"2"}}, {("2", "1"), ("2", "3")}, [{"2"}, {"1", "3"}])
    _expect(failures, "verifier rejects the path flow", oracles.yz_flow_problem(*path, *good) is None)
    broken = {
        "missing order pair": ({"2": {"2"}}, {("2", "1")}, [{"2"}, {"1", "3"}]),
        "input in g(v)": ({"2": {"2", "1"}}, {("2", "1"), ("2", "3")}, [{"2"}, {"1", "3"}]),
        "v outside g(v)": ({"2": set()}, {("2", "1"), ("2", "3")}, [{"2"}, {"1", "3"}]),
        "reversed layers": ({"2": {"2"}}, {("1", "2"), ("3", "2")}, [{"1", "3"}, {"2"}]),
    }
    for label, flow in broken.items():
        _expect(failures, f"verifier accepts {label}", oracles.yz_flow_problem(*path, *flow) is not None)
    # triangle 1-2-3 with I = O = {1}: g(2) = {2, 3} puts 2 in Odd(g(2))
    triangle = (("1", "2", "3"), [("1", "2"), ("2", "3"), ("1", "3")], {"1"}, {"1"})
    odd = ({"2": {"2", "3"}, "3": {"3"}}, {("2", "3"), ("2", "1"), ("3", "1")}, [{"2"}, {"3"}, {"1"}])
    _expect(failures, "verifier accepts v in Odd(g(v))", oracles.yz_flow_problem(*triangle, *odd) is not None)
    return failures


def witness_selftest(vertices, edges, inputs, outputs, g, precedence, layers) -> list[str]:
    """A real witness passes; with every order pair out of one vertex removed it fails.

    The vertex chosen has a correction target other than itself, so the
    stripped order leaves that target unordered after it.
    """
    failures: list[str] = []
    if oracles.yz_flow_problem(vertices, edges, inputs, outputs, g, precedence, layers) is not None:
        return ["verifier rejects a program witness it should accept"]
    for v in sorted(g):
        stripped = {(a, b) for a, b in precedence if a != v}
        if stripped != set(precedence):
            _expect(
                failures,
                f"verifier accepts a witness with the order out of {v!r} removed",
                oracles.yz_flow_problem(vertices, edges, inputs, outputs, g, stripped, layers) is not None,
            )
            return failures
    return ["no witness vertex with an order pair to remove"]


def reference_selftest(labels, psi, layers, output) -> list[str]:
    """The reference matches the program's output; a perturbed parity or data angle does not."""
    failures: list[str] = []
    reference = oracles.logical_reference(labels, psi, layers)
    _expect(
        failures,
        "reference disagrees with the program output it is tested on",
        oracles.phase_distance(output, reference) < oracles.STATE_TOL,
    )
    rotations, phi, alpha = layers[0]
    if rotations:
        (theta, support), rest = rotations[0], list(rotations[1:])
        bumped = [([(theta + 1e-3, support)] + rest, phi, alpha)] + list(layers[1:])
        _expect(
            failures,
            "reference accepts a perturbed angle",
            oracles.phase_distance(output, oracles.logical_reference(labels, psi, bumped)) > oracles.STATE_TOL,
        )
    q = labels[0]
    bumped = [(rotations, dict(phi, **{q: phi.get(q, 0.0) + 1e-3}), alpha)] + list(layers[1:])
    _expect(
        failures,
        "reference accepts a perturbed data rotation",
        oracles.phase_distance(output, oracles.logical_reference(labels, psi, bumped)) > oracles.STATE_TOL,
    )
    return failures


def hand_reference_selftest() -> list[str]:
    """exp(-i t/2 ZZ)|++> = (e^-it/2, e^it/2, e^it/2, e^-it/2)/2, against the reference."""
    failures: list[str] = []
    t = 0.7
    plus = np.full(4, 0.5, dtype=np.complex128)
    by_hand = 0.5 * np.exp(-0.5j * t * np.array([1, -1, -1, 1]))
    layer = ([(t, ("1", "2"))], {}, {})
    got = oracles.logical_reference(("1", "2"), plus, [layer])
    _expect(failures, "reference differs from the hand-computed ZZ rotation", oracles.phase_distance(got, by_hand) < 1e-14)
    wrong = oracles.logical_reference(("1", "2"), plus, [([(t + 1e-3, ("1", "2"))], {}, {})])
    _expect(failures, "reference misses a perturbed angle", oracles.phase_distance(wrong, by_hand) > oracles.STATE_TOL)
    # RX(pi) after RZ(0) maps |0> to -i|1>
    zero = np.array([1, 0], dtype=np.complex128)
    flipped = oracles.logical_reference(("1",), zero, [([], {}, {"1": math.pi})])
    _expect(failures, "RX(pi) does not flip |0>", oracles.phase_distance(flipped, np.array([0, 1])) < 1e-14)
    return failures


def main() -> int:
    checks = {
        "atlas counts": lambda: counts_selftest(oracles.atlas_counts(5)),
        "I != O flows": io_mismatch_selftest,
        "bitmask verifier": verifier_selftest,
        "logical reference": hand_reference_selftest,
    }
    status = 0
    for name, check in checks.items():
        failures = check()
        print(f"{name}: {'FAIL ' + '; '.join(failures) if failures else 'PASS'}")
        status |= bool(failures)
    return status


if __name__ == "__main__":
    sys.exit(main())
