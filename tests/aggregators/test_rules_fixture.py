"""The robust rules reproduce their recorded outputs to the last bit.

``rules_fixture.json`` holds, per (rule, f, d), the SHA-256 of the outputs of
the four distance rules and of MeaMed (which shares Bulyan's second stage)
over five seeded matrices at ``minimum_inputs(f) + 2`` rows — one of small
integers and one with a duplicated row, so exact ties in the distances are
exercised — through ``aggregate_matrix`` and through the paper's functional
form ``gar(gradients=list(M), f=f)`` on an instance built for ``f = 0`` (so
``f > 0`` re-sizes the rule).  Goldens, benchmark quality numbers and the
sharded/unsharded equality all rest on these functions not moving.

Run this file as a script to regenerate the fixture — against the source whose
arithmetic is the reference, and only when the arithmetic is meant to change.
It prints the keys whose hash moved before it rewrites the file.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.aggregators import init

FIXTURE = Path(__file__).with_name("rules_fixture.json")
RULES = ("krum", "multi-krum", "mda", "bulyan", "meamed")
FS = (0, 1, 2)
DIMENSIONS = (1, 2, 37, 1000)
SEEDS = range(5)


def matrices(rows: int, dimension: int):
    for seed in SEEDS:
        matrix = np.random.default_rng([seed, rows, dimension]).standard_normal((rows, dimension))
        if seed == 3:
            matrix = np.rint(2.0 * matrix)
        if seed == 4:
            matrix[rows - 2] = matrix[1]
        yield matrix


def digest(name: str, f: int, dimension: int) -> str:
    rows = init(name, n=64, f=f).minimum_inputs(f) + 2
    sized, functional = init(name, n=rows, f=f), init(name, n=rows, f=0)
    sha = hashlib.sha256()
    for matrix in matrices(rows, dimension):
        for output in (sized.aggregate_matrix(matrix), functional(gradients=list(matrix), f=f)):
            assert output.shape == (dimension,) and output.dtype == np.float64
            sha.update(np.ascontiguousarray(output).tobytes())
    return sha.hexdigest()


def record() -> dict:
    return {
        f"{name}/f={f}/d={dimension}": digest(name, f, dimension)
        for name in RULES
        for f in FS
        for dimension in DIMENSIONS
    }


@pytest.mark.parametrize("name", RULES)
def test_rule_outputs_match_the_recorded_hashes(name):
    recorded = json.loads(FIXTURE.read_text(encoding="utf-8"))
    for f in FS:
        for dimension in DIMENSIONS:
            key = f"{name}/f={f}/d={dimension}"
            assert digest(name, f, dimension) == recorded[key], key


if __name__ == "__main__":
    previous = json.loads(FIXTURE.read_text(encoding="utf-8")) if FIXTURE.exists() else {}
    current = record()
    moved = [key for key in current if previous.get(key) != current[key]]
    print(f"{len(moved)} of {len(current)} keys moved" + "".join(f"\n  {key}" for key in moved))
    FIXTURE.write_text(json.dumps(current, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {FIXTURE}")
