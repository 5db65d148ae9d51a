"""Reference gflow checks that only the tests need: the five gflow
conditions and the witness structure facts, on label sets and a Warshall
closure of the flow's precedence pairs, with Odd sets read off the edge
list. The package checks the same on int masks, with its own closure.
`backtracking_yz_peel` is the YZ peel as a memoized backtracking search,
against which the package's greedy peel is checked; `flow_content` tells
flows apart by content."""

import functools
import json

from parityflow.gflow import (
    PLANES,
    MalformedFlowError,
    Violation,
    VerifyResult,
    WitnessStructure,
    flow_to_json,
)


def _odd(graph, corr) -> set:
    """Vertices with an odd number of neighbors in corr, by edge scan."""
    odd = set()
    for u, v in graph.edges:
        if u in corr:
            odd ^= {v}
        if v in corr:
            odd ^= {u}
    return odd


def closure(flow) -> set:
    """The flow's order as pairs (v, u), v < u: Warshall's transitive
    closure of its precedence pairs."""
    vertices = set().union(*flow.layers)
    reach = {v: {u for w, u in flow.precedence if w == v} for v in vertices}
    for k in vertices:
        for i in vertices:
            if k in reach[i]:
                reach[i] |= reach[k]
    return {(v, u) for v in vertices for u in reach[v]}


def verify_gflow(graph, planes, flow) -> VerifyResult:
    vertices = set(graph.vertices)
    measured = vertices - graph.outputs
    if set(flow.g) != measured:
        raise MalformedFlowError("correction map domain must be exactly the measured vertices")
    if set(planes) != measured:
        raise MalformedFlowError("plane assignment domain must be exactly the measured vertices")
    bad_planes = {p for p in planes.values() if p not in PLANES}
    if bad_planes:
        raise MalformedFlowError(f"unknown planes {sorted(bad_planes)}")
    layered = set().union(*flow.layers) if flow.layers else set()
    if layered != vertices:
        raise MalformedFlowError("layering must partition the vertex set")
    allowed = vertices - graph.inputs
    order_index = {v: i for i, v in enumerate(graph.vertices)}
    order = closure(flow)
    violations = []
    for v in sorted(measured, key=order_index.get):
        corr = flow.g[v]
        if not corr <= allowed:
            raise MalformedFlowError(f"g({v!r}) is not a subset of the non-input vertices")
        odd = _odd(graph, corr)
        for u in sorted(corr - {v}, key=order_index.get):
            if (v, u) not in order:
                violations.append(Violation(v, 1, f"{u!r} in g({v!r}) but not after {v!r}"))
                break
        for u in sorted(odd - {v}, key=order_index.get):
            if (v, u) not in order:
                violations.append(Violation(v, 2, f"{u!r} in Odd(g({v!r})) but not after {v!r}"))
                break
        plane = planes[v]
        if plane == "XY" and not (v not in corr and v in odd):
            violations.append(Violation(v, 3, f"XY at {v!r} needs v outside g(v) and inside Odd(g(v))"))
        elif plane == "XZ" and not (v in corr and v in odd):
            violations.append(Violation(v, 4, f"XZ at {v!r} needs v inside g(v) and inside Odd(g(v))"))
        elif plane == "YZ" and not (v in corr and v not in odd):
            violations.append(Violation(v, 5, f"YZ at {v!r} needs v inside g(v) and outside Odd(g(v))"))
    return VerifyResult(not violations, tuple(violations))


def witness_structure(flow, graph) -> WitnessStructure:
    measured = set(flow.g)
    order = closure(flow)
    maximal = (v for v in measured if not any((v, u) in order for u in measured))
    a_ok = all(flow.g[v] == frozenset({v}) for v in maximal)
    union = set().union(*flow.g.values())
    b_ok = all(not (u in union and v in union) for u, v in graph.edges)
    return WitnessStructure(a_ok, b_ok)


@functools.cache
def submasks_by_size(support: int) -> list[int]:
    """Every submask of `support`, the empty one included, by (size, value):
    the masks 0..support that set no bit outside it, sorted."""
    return sorted((t for t in range(support + 1) if not t & ~support), key=lambda t: (bin(t).count("1"), t))


def backtracking_yz_peel(graph, measured_mask: int, support: int):
    """The YZ peel by backtracking over which vertex to peel, with a memo of
    the subsets that fail: the (v, g(v), Odd(g(v))) in measurement order,
    or None when no flow exists. A measured vertex outside `support` (a
    measured input) must lie in its own correction set but cannot."""
    if measured_mask & ~support:
        return None
    peeled: list[tuple[int, int, int]] = []
    dead: set[int] = set()

    def peel(remaining: int) -> bool:
        """True iff the vertices in `remaining` admit a valid measurement order."""
        if remaining == 0:
            return True
        if remaining in dead:
            return False
        outside = submasks_by_size(support & ~remaining)
        rest = remaining
        while rest:
            low = rest & -rest
            rest ^= low
            for t in outside:
                s = low | t
                odd = graph.odd_mask(s)
                if odd & remaining:
                    continue
                if peel(remaining ^ low):
                    peeled.append((low.bit_length() - 1, s, odd))
                    return True
                break  # any other fitting S leaves the same subset to peel
        dead.add(remaining)
        return False

    return peeled if peel(measured_mask) else None


def flow_content(graph, flow) -> tuple:
    """A witness's flow as data: vertex count, JSON and sorted precedence."""
    return len(graph.vertices), json.dumps(flow_to_json(flow)), tuple(sorted(flow.precedence))

