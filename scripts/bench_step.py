#!/usr/bin/env python3
"""The stand-alone ``mnist_cnn`` step under three glibc allocator settings.

    python3 scripts/bench_step.py [--tree DIR]
    make bench-step

Each setting runs in a fresh child interpreter with one OpenBLAS thread.
The child synthesizes ``ssmw-cnn-serial``'s dataset (600 MNIST-shaped
examples, noise 0.8, seed 1), builds ``mnist_cnn`` and times 300
steps at batch 8 — forward, cross-entropy and backward, no evaluation in
between — and prints the median in ms.  The settings:

- ``unset``: glibc's own dynamic mmap threshold, which every free of an
  mmapped block of up to 32 MB raises;
- ``pinned low``: ``MALLOC_MMAP_THRESHOLD_=131072``, so every block of
  128 KB or more is mmapped, faulted in and unmapped again;
- ``pinned high``: ``MALLOC_MMAP_THRESHOLD_=33554432
  MALLOC_TRIM_THRESHOLD_=67108864``, so such blocks come from the heap and
  stay resident between uses.

A step that allocates no large block reads about the same under the two
pinned settings.  The variables are set only in the children's
environment.  ``--tree`` measures another checkout (for instance a parent
revision unpacked with ``git archive``).  Linux with glibc only.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETTINGS = {
    "unset": {},
    "pinned low": {"MALLOC_MMAP_THRESHOLD_": "131072"},
    "pinned high": {"MALLOC_MMAP_THRESHOLD_": "33554432", "MALLOC_TRIM_THRESHOLD_": "67108864"},
}
BATCH = 8
STEPS = 300


def child() -> None:
    """Time ``STEPS`` steps in this interpreter; print the median step in ms."""
    import numpy as np

    from repro.datasets.synthetic import make_synthetic_mnist
    from repro.nn.losses import CrossEntropyLoss
    from repro.nn.models import build_model
    from repro.nn.tensor import Tensor

    dataset = make_synthetic_mnist(600, noise=0.8, seed=1)
    model = build_model("mnist_cnn")
    model.train()
    loss_fn = CrossEntropyLoss()
    order = np.random.default_rng(1).integers(0, len(dataset) - BATCH, size=STEPS)
    times = []
    for start in order:
        began = time.perf_counter()
        model.zero_grad()
        logits = model(Tensor(dataset.images[start : start + BATCH]))
        loss_fn(logits, dataset.labels[start : start + BATCH]).backward()
        times.append(time.perf_counter() - began)
    print(f"{1000 * statistics.median(times):.3f}")


def measure(tree: Path, setting: dict) -> float:
    env = {key: value for key, value in os.environ.items() if not key.startswith("MALLOC_")}
    env.update(setting, OPENBLAS_NUM_THREADS="1", PYTHONPATH=str(tree / "src"))
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--child"],
        capture_output=True,
        text=True,
        env=env,
    )
    if done.returncode != 0:
        raise SystemExit(f"child failed\n{done.stderr}")
    return float(done.stdout.split()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tree", type=Path, default=ROOT, help="the checkout to measure (default: this one)")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        child()
        return 0
    tree = args.tree.resolve()
    print(f"tree {tree}, {STEPS} mnist_cnn steps at batch {BATCH}, one BLAS thread")
    for name, setting in SETTINGS.items():
        print(f"{name:>12}: median step {measure(tree, setting):.2f} ms", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
