"""Shared helpers for the benchmark harness.

Every module in this directory regenerates one table or figure of the paper
(see DESIGN.md section 4 and EXPERIMENTS.md).  Benchmarks print the rows /
series the paper reports — run with ``-s`` to see them — and additionally time
one representative unit of work through the ``benchmark`` fixture so the
harness integrates with ``pytest-benchmark``.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence, Union

import pytest

from repro.core.cluster import ClusterConfig
from repro.core.controller import Controller
from repro.exceptions import ConfigurationError


def print_table(title: str, headers: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Print a small fixed-width table (the paper's rows/series)."""
    rows = [tuple(str(round(c, 4)) if isinstance(c, float) else str(c) for c in row) for row in rows]
    widths = [len(h) for h in headers]
    for row in rows:
        widths = [max(w, len(c)) for w, c in zip(widths, row)]
    line = "  ".join(h.ljust(w) for h, w in zip(headers, widths))
    print(f"\n== {title} ==")
    print(line)
    print("-" * len(line))
    for row in rows:
        print("  ".join(c.ljust(w) for c, w in zip(row, widths)))


def priced(price: Callable[[], float]) -> Union[float, str]:
    """``price()``, or ``"refused: <reason>"`` where ``ClusterConfig.validate``
    refuses the cluster it prices: a figure prints a refused cell, and prices
    nothing for it."""
    try:
        return price()
    except ConfigurationError as error:
        return f"refused: {error}"


def training_config(**overrides) -> ClusterConfig:
    """A small but realistic training configuration used by the convergence benches."""
    defaults = dict(
        deployment="ssmw",
        num_workers=6,
        num_byzantine_workers=1,
        num_attacking_workers=0,
        gradient_gar="multi-krum",
        model_gar="median",
        model="logistic",
        dataset="cifar10",
        dataset_size=400,
        dataset_noise=0.8,
        batch_size=16,
        learning_rate=0.2,
        num_iterations=40,
        accuracy_every=5,
        seed=42,
    )
    defaults.update(overrides)
    return ClusterConfig(**defaults)


def run_training(**overrides):
    """Build and run a deployment, returning its TrainingResult."""
    return Controller(training_config(**overrides)).run()


@pytest.fixture
def table_printer():
    return print_table
