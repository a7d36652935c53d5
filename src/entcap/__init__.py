"""Exact capacities and bounds for entanglement networks."""
