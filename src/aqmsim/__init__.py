"""Deterministic network simulator with ECN-driven adaptive AQM tuning."""

__version__ = "0.1.0"
