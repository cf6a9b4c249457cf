"""Golden-result parity: the simulator must match its pre-SoA self.

``tests/data/golden_reference_results_v5.json`` holds the six reference
configurations' full results, captured from the simulator immediately
before the struct-of-arrays core refactor (and serialized with codec
schema 5 — the file doubles as the v5 compat-shim regression snapshot).
Every refactor of the hot path must keep the simulator bit-identical to
these: same power series, same energy integral, same latency lists,
same robustness counters.
"""

import json
from pathlib import Path

import pytest

from repro.cluster.core import EVENT_HANDLERS
from repro.exec.codec import result_from_dict, result_to_dict
from repro.obs import MemoryRecorder

from .test_obs import REFERENCE_CONFIGS, run_reference

GOLDEN_PATH = (
    Path(__file__).parent / "data" / "golden_reference_results_v5.json"
)


@pytest.fixture(scope="module")
def goldens():
    with GOLDEN_PATH.open() as fh:
        return json.load(fh)


def _comparable(payload):
    """Strip fields allowed to drift across schema bumps.

    ``schema`` tracks the codec, not the simulation; ``observability``
    only exists when recording (and is None in the bare-run goldens).
    """
    out = dict(payload)
    out.pop("schema")
    out.pop("observability")
    return out


@pytest.mark.parametrize(
    "name, kernel_timers",
    [pytest.param(name, False, id=name) for name in sorted(REFERENCE_CONFIGS)]
    + [
        pytest.param(name, True, id=f"{name}-timed")
        for name in sorted(REFERENCE_CONFIGS)
    ],
)
def test_bare_run_matches_golden(name, kernel_timers, goldens):
    """Untimed and timed runs both match; timing adds only counters."""
    result = run_reference(name, kernel_timers=kernel_timers)
    assert _comparable(result_to_dict(result)) == _comparable(goldens[name])
    if kernel_timers:
        timers = result.observability["sim_core"]["kernel_timers"]
        assert timers
        assert set(timers) <= set(EVENT_HANDLERS)
        assert all(cell["calls"] > 0 for cell in timers.values())
    else:
        assert result.observability is None


@pytest.mark.parametrize("name", sorted(REFERENCE_CONFIGS))
def test_recorded_run_matches_golden(name, goldens):
    result = run_reference(name, recorder=MemoryRecorder())
    assert _comparable(result_to_dict(result)) == _comparable(goldens[name])
    assert result.observability is not None


@pytest.mark.parametrize("name", sorted(REFERENCE_CONFIGS))
def test_goldens_decode_under_v5_compat(name, goldens):
    """The checked-in schema-5 snapshots stay loadable after bumps."""
    assert goldens[name]["schema"] == 5
    decoded = result_from_dict(goldens[name])
    assert _comparable(result_to_dict(decoded)) == _comparable(goldens[name])
