"""Parity-encoded quantum computing as YZ-plane measurement-based computing.

Modules cover graph machinery, signed Pauli stabilizer groups, parity
layouts and their encoding circuits, a dense statevector simulator, the two
computation engines (parity and measurement-based), and an executable gflow
theory with an exhaustive desk-scale search.
"""

# Loads all seven modules: tools that patch functions look them up in sys.modules.
from parityflow import gflow, graph, layout, mbqc_engine, parity_engine, pauli, simulator  # noqa: F401
