"""Benchmark harness: regenerate every table and figure of the paper."""

from .figures import (
    ALL_FIGURES,
    cpu_comparison,
    fig4a,
    fig4b,
    fig5a,
    fig5b,
    fig6,
    fig7,
    memory_footprint,
    table1,
)
from .harness import (
    FIXED_ITERATIONS,
    ScalingPoint,
    propagator_benchmark,
    run_scaling_point,
)
from .report import Experiment, Series, format_table

__all__ = [
    "ALL_FIGURES",
    "table1",
    "fig4a",
    "fig4b",
    "fig5a",
    "fig5b",
    "fig6",
    "fig7",
    "cpu_comparison",
    "memory_footprint",
    "ScalingPoint",
    "run_scaling_point",
    "propagator_benchmark",
    "FIXED_ITERATIONS",
    "Experiment",
    "Series",
    "format_table",
]
