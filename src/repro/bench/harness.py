"""Shared benchmark machinery (see package docstring).

Scale rationale: the experiments run a few tens of thousands of operations
per configuration over a deliberately small buffer (so the tree develops
4-5 levels and compaction dynamics are realistic) -- large enough for the
paper's effects to emerge, small enough that the full suite regenerates in
minutes on a laptop.  Every figure leads with device I/O counts, which are
scale-stable; see DESIGN.md's substitution table.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Sequence

from repro.core.engine import AcheronEngine, EngineStats
from repro.metrics.reporting import format_table
from repro.workload.generator import WorkloadGenerator
from repro.workload.runner import WorkloadResult, run_workload
from repro.workload.spec import WorkloadSpec

#: The standard engine scale for all experiments.  A 512-entry buffer with
#: T=4 puts ~50k entries across 4 levels; 32 entries/page keeps page counts
#: meaningful.
EXPERIMENT_SCALE: dict[str, Any] = {
    "memtable_entries": 512,
    "entries_per_page": 32,
    "size_ratio": 4,
}

#: Where regenerated tables are archived (next to the benchmark modules).
RESULTS_DIR = Path(__file__).resolve().parents[3] / "benchmarks" / "results"


def make_baseline(**overrides: Any) -> AcheronEngine:
    """The comparison engine at experiment scale."""
    params: dict[str, Any] = dict(EXPERIMENT_SCALE)
    params.update(overrides)
    return AcheronEngine.baseline(**params)


def make_acheron(
    delete_persistence_threshold: int = 20_000,
    pages_per_tile: int = 4,
    **overrides: Any,
) -> AcheronEngine:
    """The demonstrated engine at experiment scale."""
    params: dict[str, Any] = dict(EXPERIMENT_SCALE)
    params.update(overrides)
    return AcheronEngine.acheron(
        delete_persistence_threshold=delete_persistence_threshold,
        pages_per_tile=pages_per_tile,
        **params,
    )


def run_mixed_workload(
    engine: AcheronEngine, spec: WorkloadSpec
) -> tuple[WorkloadResult, EngineStats]:
    """Execute one spec (preload + mixed phase) and snapshot the engine."""
    generator = WorkloadGenerator(spec)
    run_workload(engine, generator.preload_operations(), spec.secondary_delete_window)
    result = run_workload(
        engine, generator.mixed_operations(), spec.secondary_delete_window
    )
    return result, engine.stats()


@dataclass
class ExperimentResult:
    """One regenerated table/figure, ready to print and archive."""

    exp_id: str
    title: str
    headers: Sequence[str]
    rows: list[list[Any]]
    notes: str = ""
    extra: dict[str, Any] = field(default_factory=dict)

    def render(self) -> str:
        table = format_table(self.headers, self.rows, title=f"{self.exp_id}: {self.title}")
        return f"{table}\n{self.notes}" if self.notes else table


def record_experiment(result: ExperimentResult, benchmark: Any = None) -> None:
    """Print the experiment table and archive it under benchmarks/results/.

    ``benchmark`` is the optional pytest-benchmark fixture; when given, the
    rows are also attached to its ``extra_info`` so they appear in saved
    benchmark JSON.
    """
    rendered = result.render()
    print(f"\n{rendered}\n")
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    (RESULTS_DIR / f"{result.exp_id}.txt").write_text(rendered + "\n")
    payload = {
        "exp_id": result.exp_id,
        "title": result.title,
        "headers": list(result.headers),
        "rows": [[_jsonable(cell) for cell in row] for row in result.rows],
        "notes": result.notes,
        "extra": {k: _jsonable(v) for k, v in result.extra.items()},
    }
    (RESULTS_DIR / f"{result.exp_id}.json").write_text(json.dumps(payload, indent=1))
    if benchmark is not None:
        benchmark.extra_info["experiment"] = payload


def _jsonable(value: Any) -> Any:
    if isinstance(value, (str, int, bool)) or value is None:
        return value
    if isinstance(value, float):
        return value if value == value and abs(value) != float("inf") else str(value)
    return str(value)
