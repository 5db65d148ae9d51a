"""The benchmark's tracer wraps package functions by name: every name it
lists must exist, and uninstall must put each original back."""

import importlib.util
from pathlib import Path

from parityflow import gflow, graph, layout, mbqc_engine, parity_engine, pauli, simulator

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_restores_every_wrapped_name():
    tracer_module = _load_tracer()
    modules = {
        m.__name__.rsplit(".", 1)[-1]: m
        for m in (gflow, graph, layout, mbqc_engine, parity_engine, pauli, simulator)
    }
    listed = tracer_module.SPANNED + tracer_module.COUNTED
    originals = {(module, attr): getattr(modules[module], attr) for module, attr, _ in listed}
    post_inits = {
        cls_name: getattr(modules[module], cls_name).__dict__["__post_init__"]
        for module, cls_name, _ in tracer_module.CONSTRUCTIONS
    }
    search = gflow.search_gflow_yz

    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        assert gflow.search_gflow_yz is not search
        g = graph.make_graph(["1", "2", "3"], [("1", "2"), ("2", "3")], ["1", "3"], ["1", "3"])
        assert gflow.search_gflow_yz(g) is not None
        assert tracer.calls["gflow.search"] == 1
        assert tracer.counts["simulator.statevector.constructions"] == 0
    finally:
        tracer.uninstall()

    assert gflow.search_gflow_yz is search
    for (module, attr), original in originals.items():
        assert getattr(modules[module], attr) is original, f"{module}.{attr} not restored"
    assert simulator.Statevector.__dict__["__post_init__"] is post_inits["Statevector"]
    assert pauli.StabilizerGroup.__dict__["__post_init__"] is post_inits["StabilizerGroup"]
