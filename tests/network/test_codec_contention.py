"""Regression guards for the int8 codec's behaviour under threads.

The narrow-format path runs on executor pool threads.  Every NumPy call on
more than a few hundred elements drops the GIL and has to win it back, and
on a contended interpreter each of those hand-offs costs tens of
microseconds — more than the arithmetic of a 4096-element chunk.  A codec
that walks the vector chunk by chunk in Python therefore scales its
hand-offs with the vector length; the kernels in
``repro.network.serialization`` make a fixed number of whole-vector calls.

Two guards:

* a deterministic one — the number of Python lines the codec executes does
  not depend on how many chunks the vector has, so a per-chunk loop cannot
  come back unnoticed;
* a wall-clock one — the same number of ``int8+delta`` round trips split
  over two threads must not take much longer than running them on one.  On
  the shared two-core reference VM a hand-off costs 30 - 80 us, so the test
  runs at a dimension whose whole-vector passes are long enough to amortise
  it: there the kernels overlap (0.55 - 0.8 of the one-thread time, about
  1.0 while the scheduler keeps both threads on one core) where a per-chunk
  loop, whose passes stay chunk-sized however long the vector, convoys
  (1.4 - 2.5).  The box's mood moves both figures, hence the loose bound:
  the deterministic guard is the one that names the regression.
"""

from __future__ import annotations

import os
import sys
import threading
import time

import numpy as np
import pytest

from repro.network import serialization
from repro.network.serialization import INT8_CHUNK_ELEMENTS, serialize_with_reconstruction

#: 74 chunks: long enough passes for two threads to overlap (see above).
DIMENSION = 300_000

#: Two-thread wall time may exceed one-thread wall time by this factor.
MAX_TWO_THREAD_RATIO = 1.5


def stream(dimension: int, seed: int = 0):
    rng = np.random.default_rng(seed)
    reference = rng.normal(size=dimension)
    vector = reference + 0.01 * rng.normal(size=dimension)
    vector.setflags(write=False)
    return vector, reference


def codec_lines_executed(dimension: int) -> int:
    """Python lines run inside ``serialization.py`` for one round trip."""
    vector, reference = stream(dimension)
    count = 0

    def tracer(frame, event, arg):
        nonlocal count
        if frame.f_code.co_filename != serialization.__file__:
            return None
        if event == "line":
            count += 1
        return tracer

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        serialize_with_reconstruction(vector, "int8+delta", reference=reference)
    finally:
        sys.settrace(previous)
    return count


def test_codec_python_work_does_not_grow_with_the_chunk_count():
    two_chunks = codec_lines_executed(INT8_CHUNK_ELEMENTS + 7)
    many_chunks = codec_lines_executed(40 * INT8_CHUNK_ELEMENTS + 7)
    assert two_chunks > 0
    assert many_chunks == two_chunks


def round_trips(count: int) -> None:
    vector, reference = stream(DIMENSION)
    for _ in range(count):
        serialize_with_reconstruction(vector, "int8+delta", reference=reference)


def timed(threads: int, count: int) -> float:
    workers = [
        threading.Thread(target=round_trips, args=(count // threads,)) for _ in range(threads)
    ]
    started = time.perf_counter()
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join(timeout=60)
    elapsed = time.perf_counter() - started
    assert not any(worker.is_alive() for worker in workers)
    return elapsed


@pytest.mark.skipif(
    len(os.sched_getaffinity(0)) < 2, reason="needs two cores for the threads to overlap on"
)
def test_two_threads_do_not_convoy_on_the_codec():
    count = 40
    round_trips(4)  # allocator and import warm-up
    timed(2, count)  # lets the scheduler spread the threads over the cores
    # The box is shared: take the quietest of a few repeats on both sides.
    one = min(timed(1, count) for _ in range(4))
    two = min(timed(2, count) for _ in range(4))
    assert two <= MAX_TWO_THREAD_RATIO * one, (one, two)
