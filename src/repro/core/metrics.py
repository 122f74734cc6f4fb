"""Metric collection: accuracy, throughput, latency breakdown, alignment, traces.

``MetricsLog`` records one :class:`IterationRecord` per training step and can
summarise the two metrics the paper uses (accuracy and throughput) plus the
per-phase latency breakdown of Figure 7/16.  ``parameter_alignment``
reproduces the Table 2 measurement: the cosine of the angle between the
largest-norm difference vectors of the replicas' parameter vectors.

``Trace`` is the deterministic per-round event/outcome log emitted by
scenario-driven runs (:mod:`repro.core.scenario`): a fold over the
:class:`~repro.core.session.RoundResult` stream, one entry per completed round
— the scenario events applied, the gradient-quorum outcome observed by the
reporting server, the aggregated-update norm, and loss/accuracy at evaluation
rounds.  Its canonical JSON form is what the golden-trace regression suite
compares byte for byte.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.utils import cosine_similarity


@dataclass
class IterationRecord:
    """Timing and quality metrics of a single training iteration."""

    iteration: int
    compute_time: float = 0.0
    communication_time: float = 0.0
    aggregation_time: float = 0.0
    accuracy: Optional[float] = None
    loss: Optional[float] = None

    @property
    def total_time(self) -> float:
        return self.compute_time + self.communication_time + self.aggregation_time


@dataclass
class MetricsLog:
    """Accumulates per-iteration records for one deployment run."""

    deployment: str = ""
    records: List[IterationRecord] = field(default_factory=list)

    def add(self, record: IterationRecord) -> None:
        self.records.append(record)

    def __len__(self) -> int:
        return len(self.records)

    # ------------------------------------------------------------------ #
    @property
    def total_time(self) -> float:
        return float(sum(r.total_time for r in self.records))

    @property
    def accuracies(self) -> List[Tuple[int, float]]:
        return [(r.iteration, r.accuracy) for r in self.records if r.accuracy is not None]

    @property
    def final_accuracy(self) -> Optional[float]:
        accuracies = self.accuracies
        return accuracies[-1][1] if accuracies else None

    def throughput(self) -> float:
        """Model updates per simulated second."""
        total = self.total_time
        return len(self.records) / total if total > 0 else 0.0

    def breakdown(self) -> Dict[str, float]:
        """Average per-iteration latency split into compute / communication / aggregation."""
        if not self.records:
            return {"computation": 0.0, "communication": 0.0, "aggregation": 0.0}
        n = len(self.records)
        return {
            "computation": sum(r.compute_time for r in self.records) / n,
            "communication": sum(r.communication_time for r in self.records) / n,
            "aggregation": sum(r.aggregation_time for r in self.records) / n,
        }

    def accuracy_over_time(self) -> List[Tuple[float, float]]:
        """(simulated time, accuracy) pairs — the appendix's convergence-with-time view."""
        out = []
        elapsed = 0.0
        for record in self.records:
            elapsed += record.total_time
            if record.accuracy is not None:
                out.append((elapsed, record.accuracy))
        return out


@dataclass
class Trace:
    """Deterministic per-round log of one scenario-driven training run.

    Every field that reaches a round entry is either an ``int``, a ``str`` or
    a Python ``float`` produced by deterministic arithmetic, so two runs with
    the same seed and scenario — regardless of the execution engine — emit
    byte-identical canonical JSON (:meth:`to_json`).
    """

    scenario: str = ""
    deployment: str = ""
    seed: int = 0
    rounds: List[Dict[str, Any]] = field(default_factory=list)

    # ------------------------------------------------------------------ #
    def record(self, result) -> None:
        """Append the entry of one completed round: its ``RoundResult``, renamed.

        ``iteration`` becomes ``round``; ``diverged`` is present only on
        flagged rounds, and ``detection`` / ``health`` only on rounds that
        layer reported on (health without its raw accrual ``scores``) — so
        traces of runs without those layers, every golden included, carry
        none of the three keys.
        """
        entry = result.to_dict()
        entry["round"] = entry.pop("iteration")
        if not entry["diverged"]:
            del entry["diverged"]
        if "health" in entry:
            entry["health"].pop("scores", None)
        self.rounds.append(entry)

    @property
    def diverged(self) -> bool:
        """Whether any round of this trace carries the divergence flag."""
        return any(entry.get("diverged") for entry in self.rounds)

    def __len__(self) -> int:
        return len(self.rounds)

    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, Any]:
        return {
            "scenario": self.scenario,
            "deployment": self.deployment,
            "seed": self.seed,
            "rounds": [dict(r) for r in self.rounds],
        }

    def to_json(self) -> str:
        """Canonical JSON: sorted keys, fixed indentation, trailing newline."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def fingerprint(self) -> str:
        """Short sha256 digest of the canonical JSON (for summaries and logs)."""
        return hashlib.sha256(self.to_json().encode("utf-8")).hexdigest()[:16]

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Trace":
        return cls(
            scenario=data.get("scenario", ""),
            deployment=data.get("deployment", ""),
            seed=int(data.get("seed", 0)),
            rounds=[dict(r) for r in data.get("rounds", [])],
        )

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json())

    @classmethod
    def load(cls, path) -> "Trace":
        with open(path, encoding="utf-8") as handle:
            return cls.from_dict(json.load(handle))


def parameter_alignment(
    parameter_vectors: Sequence[np.ndarray], top_k: int = 2
) -> Dict[str, float]:
    """The Table 2 measurement.

    Computes all pairwise difference vectors between the replicas' parameter
    vectors, keeps the ``top_k`` with the largest norms and reports the cosine
    of the angle between the two largest ones together with their norms.
    """
    from repro.aggregators.base import as_matrix

    if len(parameter_vectors) < 2:  # before as_matrix: keep the ValueError contract
        raise ValueError("alignment needs at least two parameter vectors")
    matrix = as_matrix(parameter_vectors)  # no restack for an already-(q, d) matrix
    differences: List[np.ndarray] = []
    for i in range(matrix.shape[0]):
        for j in range(i + 1, matrix.shape[0]):
            differences.append(matrix[i] - matrix[j])
    norms = np.array([np.linalg.norm(d) for d in differences])
    order = np.argsort(norms)[::-1][:top_k]
    top = [differences[i] for i in order]
    top_norms = [float(norms[i]) for i in order]
    if len(top) < 2:
        cos_phi = 1.0
    else:
        cos_phi = abs(cosine_similarity(top[0], top[1]))
    result = {"cos_phi": float(cos_phi)}
    for rank, norm in enumerate(top_norms, start=1):
        result[f"max_diff{rank}"] = norm
    return result


@dataclass
class AlignmentProbe:
    """Samples :func:`parameter_alignment` every ``every`` steps during a run."""

    every: int = 20
    warmup: int = 0
    samples: List[Dict[str, float]] = field(default_factory=list)

    def maybe_sample(self, iteration: int, parameter_vectors: Sequence[np.ndarray]) -> Optional[Dict[str, float]]:
        if iteration < self.warmup or iteration % self.every != 0:
            return None
        sample = parameter_alignment(parameter_vectors)
        sample["step"] = float(iteration)
        self.samples.append(sample)
        return sample
