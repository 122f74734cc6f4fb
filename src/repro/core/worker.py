"""The Worker object.

Workers are passive (Section 3.2): they own a data shard and a loss function
and only ever respond to server pull requests by computing a gradient estimate
on the model state included in the request.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.node import Node
from repro.datasets.loader import DataLoader
from repro.datasets.synthetic import Dataset
from repro.network.cost import CPU, CostModel, Device, TENSORFLOW, FrameworkProfile
from repro.network.message import RequestContext
from repro.network.transport import Transport
from repro.nn.layers import Module
from repro.nn.losses import CrossEntropyLoss
from repro.nn.tensor import Tensor


class Worker(Node):
    """Computes gradient estimates on request.

    Parameters
    ----------
    node_id:
        Unique identifier, e.g. ``"worker-3"``.
    transport:
        The shared :class:`~repro.network.transport.Transport`.
    model:
        The worker's local replica of the model being trained (the
        independent replicated graph of Section 4.1).
    dataset:
        This worker's data shard.
    batch_size:
        Mini-batch size ``b / n`` used for each gradient estimate.
    """

    def __init__(
        self,
        node_id: str,
        transport: Transport,
        model: Module,
        dataset: Dataset,
        batch_size: int = 32,
        device: Device = CPU,
        framework: FrameworkProfile = TENSORFLOW,
        loss: Optional[CrossEntropyLoss] = None,
        seed: int = 0,
        cost_model: Optional[CostModel] = None,
        cache_gradients: bool = True,
        momentum: float = 0.0,
    ) -> None:
        super().__init__(node_id, transport, device=device, framework=framework, cost_model=cost_model)
        self.model = model
        # Contiguous flat parameter/gradient storage: loading the requested
        # model state is one vectorized copy and the served gradient is a
        # read-only view of the flat gradient buffer (no per-layer gather).
        self.flat_view()
        self.loader = DataLoader(dataset, batch_size=batch_size, seed=seed)
        self.batch_size = batch_size
        self.loss_fn = loss or CrossEntropyLoss()
        self.last_loss: Optional[float] = None
        self.gradients_computed = 0
        self.compute_time = 0.0
        # One gradient is computed per training iteration and shared with every
        # replica that asks for it (push semantics of the paper's protocols);
        # the cache below implements that on top of the pull-based transport.
        # Disabling it models asynchronous deployments in which different
        # server replicas observe different gradient estimates.
        self.cache_gradients = cache_gradients
        self._cached_iteration: Optional[int] = None
        self._cached_gradient: Optional[np.ndarray] = None
        # Worker-side (distributed) momentum — the variance-reduction technique
        # the paper's concluding remarks point to; it only changes what the
        # worker sends, so it composes with every GAR unchanged.
        if not 0.0 <= momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        self.momentum = momentum
        self._velocity: Optional[np.ndarray] = None

    def handlers(self):
        return {"gradient": self._serve_gradient}

    # ------------------------------------------------------------------ #
    def _estimate_gradient(self, flat_model: np.ndarray) -> np.ndarray:
        """One gradient estimate as a **read-only zero-copy view**.

        The returned vector aliases this worker's flat gradient buffer (or
        its momentum buffer) and is overwritten by the next estimate; it is
        what the serve path hands to the transport, which copies it exactly
        once — into the requester's round buffer.  External callers wanting
        an owned array use :meth:`compute_gradient`.
        """
        view = self.flat_view()
        view.set_parameters(flat_model)
        self.model.train()
        self.model.zero_grad()
        images, labels = self.loader.next_batch()
        logits = self.model(Tensor(images))
        loss = self.loss_fn(logits, labels)
        loss.backward()
        self.last_loss = loss.item()
        self.gradients_computed += 1
        self.compute_time += self.cost_model.compute_time(
            self.model.num_parameters(), self.batch_size
        )
        gradient = view.gradient_vector()
        if self.momentum > 0.0:
            if self._velocity is None:
                self._velocity = np.zeros_like(gradient)
            # In-place v = momentum * v + g, element-wise identical to the
            # allocating form it replaces.
            self._velocity *= self.momentum
            self._velocity += gradient
            gradient = self._velocity.view()
            gradient.setflags(write=False)
        return gradient

    def compute_gradient(self, flat_model: np.ndarray) -> np.ndarray:
        """Estimate a gradient at ``flat_model`` using the next local mini-batch.

        The caller owns the returned array (snapshot semantics).
        """
        return np.array(self._estimate_gradient(flat_model))

    # ------------------------------------------------------------------ #
    def _serve_gradient(self, context: RequestContext) -> Optional[np.ndarray]:
        """Transport handler: the server pulls a gradient, sending its model state.

        When several server replicas request the same iteration, the gradient
        computed for the first request is reused, matching the behaviour of
        workers that broadcast one gradient per step to all replicas.
        """
        with self._serve_lock:
            if (
                self.cache_gradients
                and context.iteration == self._cached_iteration
                and self._cached_gradient is not None
            ):
                return self._cached_gradient
            flat_model = np.asarray(context.payload, dtype=np.float64)
            gradient = self._estimate_gradient(flat_model)
            self._cached_iteration = context.iteration
            self._cached_gradient = gradient
            return gradient
