"""Power analysis: leakage, dynamic (internal + switching), clock network."""

from repro.power.analysis import PowerReport, analyze_power

__all__ = ["PowerReport", "analyze_power"]
