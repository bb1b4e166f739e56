"""Comparison harnesses, parameter sweeps and table formatting."""

from .comparison import ModelComparison, compare_models
from .reporting import format_markdown_table, format_table
from .sweep import SweepResult, run_solver_sweep, run_sweep

__all__ = [
    "ModelComparison",
    "compare_models",
    "format_markdown_table",
    "format_table",
    "SweepResult",
    "run_sweep",
    "run_solver_sweep",
]
