"""qsrbench: generate, render, grade and evaluate qualitative spatial
reasoning benchmarks over point-object room scenes."""
from __future__ import annotations

from .calculus import (
    Band,
    Direction9,
    DistanceBand,
    DistanceScheme,
    GridCell,
    PointPos,
    Region9,
    TopoWall,
    ViewFrame,
)
from .dataio import read_dataset, write_dataset
from .grade import GradeResult, Metrics, ParsedAnswer, aggregate, grade
from .netgen import BenchmarkInstance, GenConfig, QType, QuerySpec, Setting, generate_dataset
from .network import Binary, ConstraintNetwork, Unary
from .solver import Verdict, brute_force_solve, feasible_directions, solve
from .stats import StatsReport, run_sweeps

__version__ = "0.1.0"

__all__ = [
    "Band",
    "BenchmarkInstance",
    "Binary",
    "ConstraintNetwork",
    "Direction9",
    "DistanceBand",
    "DistanceScheme",
    "GenConfig",
    "GradeResult",
    "GridCell",
    "Metrics",
    "ParsedAnswer",
    "PointPos",
    "QType",
    "QuerySpec",
    "Region9",
    "Setting",
    "StatsReport",
    "TopoWall",
    "Unary",
    "Verdict",
    "ViewFrame",
    "aggregate",
    "brute_force_solve",
    "feasible_directions",
    "generate_dataset",
    "grade",
    "read_dataset",
    "run_sweeps",
    "solve",
    "write_dataset",
    "__version__",
]
