"""Deterministic discrete-time microscopic traffic environment."""
