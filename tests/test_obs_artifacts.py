"""Committed digests of every artifact ``repro.obs`` derives from a trace.

The other obs tests check that a render is stable against itself; this
file pins the renders to committed sha256 values, so a refactor of the
analysis layer (alert rules, timeline replays, span stamping, exports)
cannot change an artifact without changing a digest here. Runs: the six
reference configurations of ``tests/test_obs.py`` plus one protected row
whose emergency shedding defers requests.
"""

import dataclasses
import hashlib
import json
from dataclasses import replace

import pytest

from repro.cluster.simulator import ClusterSimulator
from repro.core.policy import DualThresholdPolicy
from repro.obs import (
    AlertEngine,
    MemoryRecorder,
    brake_timeline,
    build_spans,
    cap_timeline,
    cross_check,
    default_rules,
    fallback_windows,
    render_chrome_trace,
    render_span_tree,
    summarize_trace,
)
from repro.obs.alerts import RateRule, SloViolationRule, ThresholdRule
from repro.powerfail import EmergencyConfig
from tests.test_exec_incremental import tripping_config
from tests.test_obs import REFERENCE_CONFIGS, make_requests, run_reference

DURATION_S = 240.0

#: name -> artifact -> sha256 of its canonical text.
PINNED = {
    "nocap-power-scaled": {
        "alerts": (
            "8cdd189552b81890d7dd11e6449d2b4f"
            "c297d392c4a30dcd422b7c0ae69b9e01"
        ),
        "alerts_tight": (
            "63feef7b4700b7d81862eb9c57e26083"
            "29d27d2466a3c9d3f689744b36acd495"
        ),
        "summary": (
            "70815da22a4bd279dabc9e3115863fee"
            "9d691743387d6230cfbab740d4b54856"
        ),
        "chrome": (
            "6c3884e64bbb0cd61c4d3fce028d4631"
            "ffb3ec60bb9a9418239d272c0a3e8b52"
        ),
        "timelines": (
            "beeecba5ac12cf7fa90e0499b7171b09"
            "3e4f299286107319ee321d000193856b"
        ),
        "cross_check": (
            "93e8a4d1ad43629cb5b0db3184a80ccb"
            "c9bef9a206a95a4876a81308f72a761c"
        ),
        "span_trees": (
            "09e5452943e7a21cc23c70368d58e63e"
            "b023c70d40d8c13463258522b5154431"
        ),
    },
    "nocap-stale-telemetry": {
        "alerts": (
            "5cf0c3390e1d72d58c69403903cf7796"
            "9078150c7e79edc08f2f7c9e745c939d"
        ),
        "alerts_tight": (
            "b64fcfcf1c77497be0f9365c67d9ec40"
            "65c60f83007851370f21f27b0f118da3"
        ),
        "summary": (
            "554490357cd655df15776b0329a04720"
            "9aa4cc366c0d31f9a5d5ac31b219981c"
        ),
        "chrome": (
            "3fa973dda97147765534ec69b900ae69"
            "ae36fb7c66ef9b01eaad7855182b01c3"
        ),
        "timelines": (
            "fe1c2f7e45dde4a28cf5ae6f888f0673"
            "ce154044845eadf4a9f53d235f11a0a7"
        ),
        "cross_check": (
            "b580848dc52e1857a22590239b1f2b40"
            "9d2a3acf198c7cf2741b889e352f1f56"
        ),
        "span_trees": (
            "48789f9ad4dd821c246c1ff1b1257971"
            "7cdda4eff21cdfb3382343853fea7244"
        ),
    },
    "polca-adversarial": {
        "alerts": (
            "8cdd189552b81890d7dd11e6449d2b4f"
            "c297d392c4a30dcd422b7c0ae69b9e01"
        ),
        "alerts_tight": (
            "9e51815aca1c654321b004617c92cba3"
            "a506d42f67879e45dec89bc99b0255c4"
        ),
        "summary": (
            "ef08350d5e231a99078b24e1f923bfef"
            "f5e30625a3c5b5dbfc65fe439e67d2a1"
        ),
        "chrome": (
            "24b76c57afefc34b4d6ac34c2cd6535e"
            "330fe20081a4f1c03d6ecc0ac989cbac"
        ),
        "timelines": (
            "e960de676f2b659939b5c2fca6a9687c"
            "1ba98dacd79f2a58e8bbb7f0a443e787"
        ),
        "cross_check": (
            "1ecb816dd1f8f6dedd93aa1dab232553"
            "a13ce89d05f1860bbb488972f3c1cce8"
        ),
        "span_trees": (
            "c309aa483845791c613ef64ca785fcee"
            "76f5b0d6dba8e4555a6a6547e791eb7b"
        ),
    },
    "polca-default": {
        "alerts": (
            "8cdd189552b81890d7dd11e6449d2b4f"
            "c297d392c4a30dcd422b7c0ae69b9e01"
        ),
        "alerts_tight": (
            "8d13310db9de4af7e3f3dbb3201dd4ff"
            "20c8a42b595092646b264e77139efc8b"
        ),
        "summary": (
            "fd4a1bd1f6a31182ff1b2d2d1ae14f30"
            "3416667b8cb292c80a74f620f908ca81"
        ),
        "chrome": (
            "dd365993230b9c4057365d4c5ba7e3f1"
            "b7bb73424f87dff9d7a418086dd8f275"
        ),
        "timelines": (
            "658cd31d306e2115830bef399685e161"
            "31be9e74b79a49214d24bd992f453e9d"
        ),
        "cross_check": (
            "c70f6ae85a83ae2ac0f5daef8c21dd09"
            "c41d4130f3b5af1f91f9e8c170943ea0"
        ),
        "span_trees": (
            "0d120c2edbbb1cb82c2cbf512578f4c1"
            "ab8ca725e8d0bf18a1312667c44d3170"
        ),
    },
    "polca-oversubscribed": {
        "alerts": (
            "7f4dd5f6d3591b5db040c90881a20c7d"
            "ce4ea8eb9273d60c6301089c46e6130a"
        ),
        "alerts_tight": (
            "b0d60b909839064dba07254594182ff6"
            "f5bbafeca2600b5aada4f8123bd2ade6"
        ),
        "summary": (
            "fdbf19e681f564ccaf18a38fbac3c1da"
            "a4356855942cc9b5b53a443f884d9297"
        ),
        "chrome": (
            "3cf656625301e2cb4221b28b2e93d10e"
            "9c00fa4ff05a0f9e3e1e82e681b10549"
        ),
        "timelines": (
            "5c750dc128da3ffa0fbb08299b1443a5"
            "291ff4d0266da06dbbf392205aa619ae"
        ),
        "cross_check": (
            "6ff3341fbd847f2eaf0d0d80089ad780"
            "52990945e207d5239c7e02dffd7cc4db"
        ),
        "span_trees": (
            "a886553f5ec591cc98af923bbd0cf51f"
            "517dc77397510b8912e823ea9a9bd4d3"
        ),
    },
    "single-thresh-lp-heavy": {
        "alerts": (
            "8cdd189552b81890d7dd11e6449d2b4f"
            "c297d392c4a30dcd422b7c0ae69b9e01"
        ),
        "alerts_tight": (
            "206258356be176cd04029517e7532fe3"
            "ac334a8a1c0f4373d68f363cc2d4f698"
        ),
        "summary": (
            "f16c2b5c7464f3168e44a8f86939dc13"
            "51cf1ff8ca49399fd8293d753f29e417"
        ),
        "chrome": (
            "6d21faf126efcbdfe55a0ed8e21fca39"
            "7c0d3e446a4445dae287fd50f263c237"
        ),
        "timelines": (
            "3badb1addab31869194bc5e0edb56730"
            "af8e0a97f2f8b1b7e0b185262af15051"
        ),
        "cross_check": (
            "3358323360d66011a18ae9dac9b17725"
            "033ab2e7358658857bd7aee7b02efa8f"
        ),
        "span_trees": (
            "4ab0749b7d4652433b2d0f58502c6e68"
            "014a8b6860ceac9bd1de4aa6da574365"
        ),
    },
    "protected-shedding": {
        "alerts": (
            "3bd1ef0da0093f133061859b7f015fb5"
            "97963ca3f417cbe19e28f6f71bf0c7fd"
        ),
        "alerts_tight": (
            "40dbf6096ad159132a1acd4dbc3902bd"
            "126ce8f2e1bd7c983f88060a0ff8f3a2"
        ),
        "summary": (
            "3266d89ff29d23af51d5ce93ae61dc62"
            "f6f95e4718602465b3422df5cf966700"
        ),
        "chrome": (
            "86ed6ad6b7ba4248f5bc56d159c0c565"
            "1d995453c6ef10cdb8ab003f911fdd1e"
        ),
        "timelines": (
            "b737e456adbabe2cbbb33c0ec87d7cb8"
            "3f7558f84f952a97ed74d5c959cff683"
        ),
        "cross_check": (
            "df99dc144086e65647545ab99e7c5342"
            "83aa828a67c06f243d40d817a499b87b"
        ),
        "span_trees": (
            "05ccb7b8fb9795a704e6e18769e94725"
            "32257ff3c396781c469c49868bda825f"
        ),
    },
}


def recorded_run(name):
    recorder = MemoryRecorder()
    if name in REFERENCE_CONFIGS:
        result = run_reference(name, recorder=recorder)
        return recorder.events, result
    tripping = tripping_config(seed=1)
    config = replace(tripping, protection=replace(
        tripping.protection,
        emergency=EmergencyConfig(shed_priorities=("low", "high")),
    ))
    requests = make_requests(6.0, DURATION_S, seed=1)
    result = ClusterSimulator(
        config, DualThresholdPolicy(), recorder=recorder
    ).run(requests, DURATION_S)
    return recorder.events, result


def tight_rules():
    """Rules sensitive enough that every rule family fires somewhere."""
    return [
        ThresholdRule("hot", kind="control", field="utilization",
                      above=0.6, for_s=5.0, clear_below=0.5),
        RateRule("caps", kind="cap_issue", window_s=30.0, max_count=1),
        RateRule("reissues", kind="cap_reissue", window_s=60.0,
                 max_count=0),
        RateRule("fallbacks", kind="fallback_enter", window_s=60.0,
                 max_count=0),
        SloViolationRule("slo-high", slo_latency_s=8.0, window_s=60.0,
                         max_fraction=0.1, clear_fraction=0.05,
                         min_samples=3, priority="high"),
        SloViolationRule("slo-all", slo_latency_s=20.0, window_s=30.0,
                         max_fraction=0.05, min_samples=5, for_s=2.0),
    ]


def alert_snapshot(rules, events):
    engine = AlertEngine(rules).replay(events)
    engine.finalize(DURATION_S)
    return json.dumps(engine.observability_snapshot(), sort_keys=True)


def artifacts(events, result):
    """Canonical text of each artifact, keyed as in :data:`PINNED`."""
    timelines = {
        "brakes": [dataclasses.asdict(s) for s in brake_timeline(events)],
        "caps": [dataclasses.asdict(c) for c in cap_timeline(events)],
        "fallback": fallback_windows(events),
    }
    span_lines = []
    for span in build_spans(events):
        span_lines.extend(render_span_tree(span))
    return {
        "alerts": alert_snapshot(default_rules(), events),
        "alerts_tight": alert_snapshot(tight_rules(), events),
        "summary": "\n".join(summarize_trace(events)),
        "chrome": json.dumps(render_chrome_trace(events), sort_keys=True),
        "timelines": json.dumps(timelines, sort_keys=True),
        "cross_check": "\n".join(
            cross_check(events, result).summary_lines()
        ),
        "span_trees": "\n".join(span_lines),
    }


def digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name", sorted(PINNED))
def test_artifacts_match_committed_digests(name):
    events, result = recorded_run(name)
    rendered = artifacts(events, result)
    assert {key: digest(text) for key, text in rendered.items()} \
        == PINNED[name]


def test_protected_run_defers_requests():
    """The protected pin covers the shed-deferral path of the replays."""
    events, result = recorded_run("protected-shedding")
    assert result.powerfail.requests_deferred > 0
    assert any(e.get("kind") == "shed_defer" for e in events)
    assert cross_check(events, result).ok
