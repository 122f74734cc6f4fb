"""Golden-trace regression suite for the bundled chaos scenarios.

Every bundled scenario (:data:`repro.core.scenario.SCENARIO_LIBRARY`) is run
end to end under **all three** execution backends at its pinned seed — the
serial and threaded in-process engines and the multi-process socket backend
(one OS subprocess per node, ``executor="process"``).  The resulting
:class:`~repro.core.metrics.Trace` must be byte-identical to the checked-in
golden trace under ``tests/integration/golden/`` for every backend: since all
backends are compared against the same file, this also pins the
cross-backend equivalence claim (a fixed seed yields the *same canonical
trace JSON* no matter where the handlers physically run).

The process-backend leg is skipped gracefully — with the probe's reason in
the skip message — in sandboxes that forbid subprocesses or sockets; see
``require_process_backend`` in ``tests/conftest.py``.

Golden traces are re-blessed *explicitly* and never silently::

    python -m pytest tests/integration/test_scenarios_golden.py --update-golden
    # or: make update-golden

after which the diff of the ``.json`` files is reviewed like any code change.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.core import Controller, available_scenarios, config_for_scenario
from repro.core.metrics import Trace

GOLDEN_DIR = Path(__file__).parent / "golden"

#: One parameter per backend; the process leg is filterable via ``--backend``
#: and marked slow (it spawns one subprocess per node of every scenario).
BACKEND_PARAMS = [
    pytest.param("serial", marks=pytest.mark.backend("serial")),
    pytest.param("threaded", marks=pytest.mark.backend("threaded")),
    pytest.param(
        "process", marks=[pytest.mark.backend("process"), pytest.mark.slow]
    ),
]


def run_scenario(name: str, executor: str, **overrides) -> Trace:
    config = config_for_scenario(name, executor=executor, **overrides)
    result = Controller(config).run()
    assert result.trace is not None
    return result.trace


class TestGoldenTraces:
    @pytest.mark.parametrize("name", available_scenarios())
    @pytest.mark.parametrize("executor", BACKEND_PARAMS)
    def test_trace_matches_golden_on_every_backend(
        self, name, executor, update_golden, require_process_backend
    ):
        """Each backend reproduces the exact golden trace, byte for byte."""
        if update_golden and executor != "serial":
            pytest.skip("golden traces are re-blessed from the serial backend only")
        if executor == "process":
            require_process_backend()
        trace = run_scenario(name, executor)

        path = GOLDEN_DIR / f"{name}.json"
        if update_golden:
            GOLDEN_DIR.mkdir(exist_ok=True)
            path.write_text(trace.to_json(), encoding="utf-8")
            return
        assert path.is_file(), (
            f"missing golden trace {path}; bless it explicitly with "
            "'make update-golden'"
        )
        assert trace.to_json() == path.read_text(encoding="utf-8"), (
            f"scenario '{name}' no longer reproduces its golden trace under the "
            f"'{executor}' backend; if the change is intentional, re-bless with "
            "'make update-golden' and review the diff — if only this backend "
            "diverges, the cross-backend determinism contract is broken"
        )

    def test_every_bundled_scenario_has_a_golden_trace(self, update_golden):
        if update_golden:
            pytest.skip("golden traces are being re-blessed")
        stored = {path.stem for path in GOLDEN_DIR.glob("*.json")}
        assert stored == set(available_scenarios())


#: (wire format, scenario) pairs every backend must agree on.  The delta format
#: runs where streams restart (crash, partition, churn); the stateless ones on
#: a calm run and on one with a crash and recover.
STREAM_CASES = [
    ("int8+delta", "calm_baseline"),
    ("int8+delta", "partition_heal"),
    ("int8+delta", "crash_quorum_edge"),
    ("int8+delta", "churn_at_f_bound"),
    *[
        (wire_format, name)
        for wire_format in ("float16", "int8", "float32")
        for name in ("calm_baseline", "crash_quorum_edge")
    ],
]


class TestDeltaStreamsAcrossBackends:
    """A reply vector crosses every backend through the same ``VectorStream``,
    so each wire format must leave the same trace wherever the handlers run.

    ``int8+delta`` is stream-stateful on top: every backend must restart a
    stream at the same round.  A crashed node's host comes back without the
    references it was encoding against, so the in-process backend has to drop
    its sender ends on the crash event too — otherwise it keeps shipping
    deltas where the socket backend ships absolute blobs, and the quantized
    payloads (hence the traces) part ways from the first post-recovery pull on."""

    @pytest.mark.parametrize("wire_format, name", STREAM_CASES)
    @pytest.mark.parametrize("executor", BACKEND_PARAMS[1:])
    def test_trace_matches_the_serial_backend(
        self, wire_format, name, executor, require_process_backend
    ):
        if executor == "process":
            require_process_backend()
        reference = run_scenario(name, "serial", wire_format=wire_format)
        trace = run_scenario(name, executor, wire_format=wire_format)
        assert trace.to_json() == reference.to_json()


class TestGoldenTraceContents:
    """Sanity constraints every golden file must keep satisfying."""

    @pytest.mark.parametrize("name", available_scenarios())
    def test_golden_covers_all_rounds_and_events(self, name, update_golden):
        if update_golden:
            pytest.skip("golden traces are being re-blessed")
        data = json.loads((GOLDEN_DIR / f"{name}.json").read_text(encoding="utf-8"))
        trace = Trace.from_dict(data)
        assert trace.scenario == name
        iterations = config_for_scenario(name).num_iterations
        assert [entry["round"] for entry in trace.rounds] == list(range(iterations))
        from repro.core.scenario import SCENARIO_LIBRARY

        expected_events = [event.to_dict() for event in SCENARIO_LIBRARY[name].events]
        recorded_events = [event for entry in trace.rounds for event in entry["events"]]
        assert recorded_events == expected_events
        # Every round applied an update and observed a full quorum.
        for entry in trace.rounds:
            assert entry["quorum"] >= 1
            assert len(entry["gradient_sources"]) == entry["quorum"]
            assert entry["update_norm"] is not None and entry["update_norm"] >= 0.0


class TestScenarioCLI:
    @pytest.mark.parametrize("name", available_scenarios())
    def test_run_via_cli(self, name, capsys, tmp_path):
        trace_path = tmp_path / "trace.json"
        assert main(["run", "--scenario", name, "--trace-output", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert f"scenario '{name}' trace fingerprint" in out
        stored = Trace.load(trace_path)
        assert stored.scenario == name
        golden = GOLDEN_DIR / f"{name}.json"
        if golden.is_file():
            # The CLI run must reproduce the exact golden trace as well.
            assert stored.to_json() == golden.read_text(encoding="utf-8")

    @pytest.mark.backend("process")
    @pytest.mark.slow
    def test_run_process_executor_via_cli(
        self, capsys, tmp_path, require_process_backend
    ):
        """``repro run --executor process`` reproduces the golden trace too."""
        require_process_backend()
        trace_path = tmp_path / "trace.json"
        code = main(
            [
                "run",
                "--scenario",
                "calm_baseline",
                "--executor",
                "process",
                "--trace-output",
                str(trace_path),
            ]
        )
        assert code == 0
        stored = Trace.load(trace_path)
        golden = GOLDEN_DIR / "calm_baseline.json"
        assert stored.to_json() == golden.read_text(encoding="utf-8")
