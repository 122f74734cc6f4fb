"""What a CNN step allocates, and evaluation in image blocks.

``repro.nn.functional`` gives a convolution's large buffers (``cols`` and
``dcols``) a per-thread arena: a forward takes one of its shape and the
backward gives it back.  ``Tensor._accumulate`` adopts a first gradient that
its producer hands over fresh.  Without a graph a convolution walks the
batch in image blocks.  The tests here pin the three:

* after two warm-up steps an ``mnist_cnn`` step at batch 8 allocates no
  block of 1 MB or more (each Python line's traced allocation is read with
  ``tracemalloc``);
* two graphs alive on one thread give the gradients of two sequential steps,
  whichever is back-propagated first;
* a step copies only the first gradients that are shared or broadcast, and
  its gradients are byte-identical to copying every one;
* every bundled convolutional model's blocked logits equal its one-block
  forward byte for byte, below one block, at one block and at several blocks
  plus a remainder, in a child interpreter pinned to 1 and to 2 OpenBLAS
  threads (GEMM's last bits may depend on the count, which is read once,
  when OpenBLAS loads).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from repro.nn import functional as F
from repro.nn.losses import CrossEntropyLoss
from repro.nn.models import CifarNet, InceptionLite, MnistCnn, ResNetLite, VggLite
from repro.nn.tensor import Tensor, no_grad

MB = 1 << 20
BATCH = 8
CONV_MODELS = {
    "MnistCnn": (MnistCnn, (1, 28, 28)),
    "CifarNet": (CifarNet, (3, 32, 32)),
    "InceptionLite": (InceptionLite, (3, 32, 32)),
    "ResNetLite": (ResNetLite, (3, 32, 32)),
    "VggLite": (VggLite, (3, 32, 32)),
}


def _batch(seed: int):
    """An ``mnist_cnn`` training batch: images and labels."""
    rng = np.random.default_rng(seed)
    return rng.normal(size=(BATCH, 1, 28, 28)), rng.integers(0, 10, size=BATCH)


def _step(model, images, labels):
    model.zero_grad()
    CrossEntropyLoss()(model(Tensor(images)), labels).backward()
    return [parameter.grad.tobytes() for parameter in model.parameters()]


def largest_line_allocation(run) -> int:
    """The most traced bytes ``run()`` allocated between two Python trace events.

    Each line (and each call and return) resets ``tracemalloc``'s peak, so a
    block of ``B`` bytes shows as at least ``B`` on the line that made it,
    even if the same line frees it again.
    """
    largest = 0
    last = 0

    def trace(frame, event, arg):
        nonlocal largest, last
        current, peak = tracemalloc.get_traced_memory()
        largest = max(largest, peak - last)
        tracemalloc.reset_peak()
        last = current
        return trace

    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        run()
    finally:
        sys.settrace(previous)
        if started:
            tracemalloc.stop()
    return largest


def test_a_warm_step_allocates_no_large_block():
    model = MnistCnn()
    model.train()
    for seed in (1, 2):
        _step(model, *_batch(seed))
    images, labels = _batch(3)
    largest = largest_line_allocation(lambda: _step(model, images, labels))
    assert largest < MB, largest


def test_the_probe_sees_a_large_block():
    assert largest_line_allocation(lambda: np.ones(MB // 8)) >= MB


@pytest.mark.parametrize("first", [0, 1])
def test_two_live_graphs_give_the_gradients_of_two_sequential_steps(first):
    model = MnistCnn()
    model.train()
    batches = [_batch(seed) for seed in (4, 5)]
    sequential = [_step(model, *batch) for batch in batches]

    losses = [CrossEntropyLoss()(model(Tensor(images)), labels) for images, labels in batches]
    for which in (first, 1 - first):
        model.zero_grad()
        losses[which].backward()
        assert [parameter.grad.tobytes() for parameter in model.parameters()] == sequential[which]


def test_a_second_backward_through_a_convolution_says_why_it_fails():
    """Its ``cols`` went back to the arena; reading another graph's would be silent."""
    x = Tensor(np.ones((1, 1, 4, 4)), requires_grad=True)
    w = Tensor(np.ones((1, 1, 3, 3)), requires_grad=True)
    out = F.conv2d(x, w, Tensor(np.zeros(1), requires_grad=True))
    loss = out.sum()
    loss.backward()
    grads = [x.grad.copy(), w.grad.copy()]
    with pytest.raises(RuntimeError, match="second backward"):
        loss.backward()
    assert [x.grad.tobytes(), w.grad.tobytes()] == [g.tobytes() for g in grads]

    model = MnistCnn()
    loss = CrossEntropyLoss()(model(Tensor(_batch(7)[0])), _batch(7)[1])
    loss.backward()
    with pytest.raises(RuntimeError, match="second backward"):
        loss.backward()


def test_a_step_copies_only_shared_first_gradients(monkeypatch):
    """Five first gradients of an ``mnist_cnn`` step are shared or broadcast:
    the loss's seed, ``sum``'s broadcast, the two matmul products under a bias
    ``+`` and ``Flatten``'s ``reshape``.  Every other one is adopted."""
    images, labels = _batch(6)
    original = Tensor._accumulate
    copies = []

    def counting(self, grad, owned=False):
        first = self.requires_grad and self.grad is None
        original(self, grad, owned)
        if first and isinstance(grad, np.ndarray) and grad.shape == self.shape:
            copies.append(not np.shares_memory(self.grad, grad))

    monkeypatch.setattr(Tensor, "_accumulate", counting)
    adopted = _step(MnistCnn(), images, labels)
    assert sum(copies) == 5 and len(copies) > 15

    # Copying every first gradient (in its own layout, as before adoption)
    # gives the same bytes.
    monkeypatch.setattr(
        Tensor, "_accumulate", lambda self, grad, owned=False: original(self, np.array(grad, order="K"))
    )
    assert _step(MnistCnn(), images, labels) == adopted


# ---------------------------------------------------------------------- #
# Evaluation in image blocks
# ---------------------------------------------------------------------- #
def _blocks(model, shape):
    """Images per block of each of ``model``'s convolutions, traced on one image."""
    blocks = []
    original = F._im2col

    def spy(x, kernel, stride, padding):
        cols = original(x, kernel, stride, padding)
        groups = F.BLOCK_BYTES // cols.nbytes // F.BLOCK_ALIGN
        blocks.append(max(1, groups) * F.BLOCK_ALIGN)
        return cols

    F._im2col = spy
    try:
        with no_grad():
            model(Tensor(np.zeros((1,) + shape)))
    finally:
        F._im2col = original
    return blocks


def compare_blocked() -> dict:
    """Per model and test-set size: whether blocked logits equal the one-block forward.

    The sizes run from below the smallest block through one block to several
    blocks plus a remainder, short (it joins the block before it) or not,
    odd or even.
    """
    results = {}
    for name, (build, shape) in CONV_MODELS.items():
        model = build()
        model.eval()
        blocks = _blocks(model, shape)
        smallest, largest = min(blocks), max(blocks)
        sizes = {smallest - 1, smallest, smallest + 1, largest, 2 * largest + 1, 2 * largest + F.BLOCK_ALIGN + 3}
        rng = np.random.default_rng(7)
        for size in sorted(sizes):
            images = rng.normal(size=(size,) + shape)
            one_block = model(Tensor(images)).data  # parameters record a graph: one block
            with no_grad():
                blocked = model(Tensor(images)).data
            results[f"{name}@{size}"] = blocked.tobytes() == one_block.tobytes()
    return results


def compare_pinned(blas_threads: int) -> dict:
    """:func:`compare_blocked` in a child interpreter whose OpenBLAS runs ``blas_threads`` threads."""
    src = str(Path(__file__).resolve().parents[2] / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(
        os.environ,
        OPENBLAS_NUM_THREADS=str(blas_threads),
        PYTHONPATH=src + (os.pathsep + path if path else ""),
    )
    done = subprocess.run(
        [sys.executable, __file__, "--print"], env=env, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr[-2000:]
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("blas_threads", [1, 2])
def test_blocked_evaluation_is_bit_identical_to_one_block(blas_threads):
    results = compare_pinned(blas_threads)
    assert len(results) >= 3 * len(CONV_MODELS)
    assert all(results.values()), [key for key, same in results.items() if not same]


def test_a_graph_keeps_one_block(monkeypatch):
    calls = []
    original = F._im2col
    monkeypatch.setattr(F, "_im2col", lambda *args: calls.append(args[0].shape[0]) or original(*args))
    monkeypatch.setattr(F, "BLOCK_BYTES", 1)
    model = MnistCnn()
    images = np.zeros((20, 1, 28, 28))
    model(Tensor(images))
    assert calls == [20, 20]
    calls.clear()
    with no_grad():
        model(Tensor(images))
    # Blocks of BLOCK_ALIGN images; the short remainder joins the last one.
    assert calls == [8, 12, 8, 12]


if __name__ == "__main__":
    if sys.argv[1:] == ["--print"]:
        print(json.dumps(compare_blocked()))
