"""The one ledger of who is pulled, how many replies are awaited and which f holds.

Every deployment carries one :class:`Membership` over its worker roster
(``Deployment.membership``), and a deployment with a model GAR (msmw,
decentralized) a second one over its server replicas
(``Deployment.replicas``).  A node leaves the pull set for one of two
causes, and the causes spend different things:

* :data:`EVICTED` — caught lying by the detection layer.  Each eviction
  removes one presumed-Byzantine row, so it spends the Byzantine budget:
  :meth:`Membership.effective_f` is ``declared_f - |evicted|``, and at most
  ``declared_f`` nodes are ever evicted at once (an ``(f+1)``-th eviction
  would provably remove an honest one).  Evictions are reversible
  (:meth:`Membership.readmit`).  Detection never evicts a replica.
* :data:`DEAD` — declared unresponsive by the liveness layer.  A crash is not
  a lie: the dead node need not be one of the Byzantine ones, so the
  budget is untouched and there is no cap on how many may die.  Sticky.

Either way the node costs no message and no waiting: :meth:`Membership.quorum`
is ``max(floor, |active| - slack)``, where ``slack`` is the reply slack the
deployment was configured with — ``num_workers - gradient_quorum()`` for the
workers (the declared f of an asynchronous run, 0 of a synchronous one), and
for the replicas the roster minus the model GAR's rows (a replica's own row
counts, so their ``floor`` is 2: at least one peer).  With nobody excluded
that *is* the static quorum over the whole roster, so a run without
detection or resilience is the degenerate case, not a separate path.

Both transitions pass the single quorum-safety guard
(:meth:`Membership._safe`): afterwards ``|evicted| <= declared_f`` and the
awaited replies still cover ``minimum_inputs(effective f)`` of the ledger's
GAR.  A refused transition changes nothing; callers degrade to down-weighting
(eviction) or ``suspect`` (death).
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from repro.aggregators.base import GAR_REGISTRY
from repro.exceptions import ConfigurationError

#: Causes of exclusion.
EVICTED = "evicted"
DEAD = "dead"


class Membership:
    """Roster order, exclusions by cause, and the sizes a pull derives from them."""

    def __init__(
        self,
        roster: Sequence[str],
        *,
        declared_f: int = 0,
        gar_name: str = "average",
        slack: int = 0,
        floor: int = 1,
    ) -> None:
        self.roster: Tuple[str, ...] = tuple(roster)
        if not self.roster:
            raise ConfigurationError("membership needs a non-empty roster")
        if gar_name not in GAR_REGISTRY:
            raise ConfigurationError(f"unknown GAR '{gar_name}' for membership")
        self.gar_cls = GAR_REGISTRY[gar_name]
        self.declared_f = int(declared_f)
        self.slack = int(slack)
        self.floor = int(floor)
        self._out: Dict[str, str] = {}  # node -> cause

    # ------------------------------------------------------------------ #
    def active(self) -> Tuple[str, ...]:
        """Nodes still pulled from, in roster order."""
        if not self._out:
            return self.roster
        return tuple(name for name in self.roster if name not in self._out)

    def excluded(self, cause: str) -> Tuple[str, ...]:
        """Nodes out of the pull set for ``cause``, in roster order."""
        return tuple(name for name in self.roster if self._out.get(name) == cause)

    def cause(self, name: str) -> Optional[str]:
        """Why ``name`` is excluded, or ``None`` while it is active."""
        if name not in self.roster:
            raise ConfigurationError(f"unknown node '{name}' in membership")
        return self._out.get(name)

    def quorum(self) -> int:
        """Rows a pull delivers, given the current membership.

        The slack stays the configured one whoever is excluded: an eviction
        only confirms a liar, and up to f of the nodes still pulled may
        stall, so each exclusion shrinks the wait by exactly one.
        """
        return max(self.floor, len(self.roster) - len(self._out) - self.slack)

    def effective_f(self) -> int:
        """The Byzantine budget still assumed present among the active nodes."""
        return self.declared_f - len(self.excluded(EVICTED))

    # ------------------------------------------------------------------ #
    def _safe(self, active: int, evicted: int) -> bool:
        """The quorum-safety guard, on the changes a transition would make to
        the active and the evicted count."""
        evicted += len(self.excluded(EVICTED))
        if evicted > self.declared_f:
            return False
        floor = max(self.floor, self.gar_cls.minimum_inputs(self.declared_f - evicted))
        return len(self.roster) - len(self._out) + active - self.slack >= floor

    def exclude(self, name: str, cause: str) -> bool:
        """Take ``name`` out of the pull set; False (and no change) when refused."""
        if self.cause(name) is not None or not self._safe(-1, cause == EVICTED):
            return False
        self._out[name] = cause
        return True

    def readmit(self, name: str) -> bool:
        """Return an evicted ``name`` to the pull set; the dead stay out."""
        if self.cause(name) != EVICTED or not self._safe(+1, -1):
            return False
        del self._out[name]
        return True
