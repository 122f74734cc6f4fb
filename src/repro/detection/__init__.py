"""Online Byzantine detection: suspicion scoring, reputation, membership.

The detection subsystem mirrors the GAR registry (``--detector`` selects a
scoring rule by name) and sits *in front of* any registered GAR: per-round
raw suspicion scores feed a decayed :class:`ReputationBook`, which weights
rows before aggregation and drives evict / re-admit decisions with
hysteresis.  Who is pulled is the deployment's one :class:`Membership`, which
records those evictions beside the liveness layer's dead declarations.  See
``docs/detection.md`` for the catalogue and the lifecycle.
"""

from repro.detection.base import (
    DETECTOR_REGISTRY,
    Detector,
    available_detectors,
    init_detector,
    register_detector,
)
from repro.detection.manager import DetectionManager
from repro.detection.membership import DEAD, EVICTED, Membership
from repro.detection.reputation import MembershipEvent, ReputationBook

__all__ = [
    "DEAD",
    "DETECTOR_REGISTRY",
    "Detector",
    "DetectionManager",
    "EVICTED",
    "Membership",
    "MembershipEvent",
    "ReputationBook",
    "available_detectors",
    "init_detector",
    "register_detector",
]
