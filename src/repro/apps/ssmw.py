"""SSMW — Single Server, Multiple Workers (Section 5.1, Listing 1).

The classic Byzantine-worker setup: one trusted parameter server replaces the
averaging step with a statistically robust GAR.  The network is assumed
synchronous, so the server waits for all ``n_w`` workers by default; the
asynchronous flag lowers the quorum to ``n_w - f_w``.

Byzantine tolerance: up to ``f_w`` Byzantine *workers*, bounded by the
configured gradient GAR's precondition (e.g. ``n_w >= 2 f_w + 3`` for
Multi-Krum); the single parameter server is trusted (``f_ps = 0``).  Each
``get_gradients`` fan-out runs on the deployment's execution engine, so with
the threaded executor the workers are serviced concurrently and a straggler
delays the round by at most its own service time instead of serializing
behind every other worker.

The strategy is backend-agnostic: under ``executor="process"`` every worker
is a separate OS subprocess reached over TCP (:mod:`repro.network.rpc`) and
the same fixed seed reproduces the same canonical trace — the determinism
contract of :mod:`repro.core.executor`.
"""

from __future__ import annotations

from repro.core.session import RoundStrategy, register_application


@register_application("ssmw")
class SSMWStrategy(RoundStrategy):
    """Listing 1 verbatim: the base scatter → aggregate → apply round.

    ``scatter`` pulls a robust gradient quorum into the server's round buffer
    (zero-copy ``(q, d)`` view), ``aggregate`` runs the configured gradient
    GAR with the declared ``f_w``, ``apply`` takes one SGD step — exactly the
    defaults of :class:`~repro.core.session.RoundStrategy`.
    """
