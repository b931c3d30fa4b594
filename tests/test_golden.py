"""Golden SHA-256 digests of the default 8 s snow launch.

`golden/snow_launch.sha256` pins the bytes of the `simulate` trace CSV
for mfc, src and mtte with the estimator off and oracle, and of the
`compare` table over the same six runs.  The digests were taken once,
before any refactor of the code they cover; a change that alters one
alters behaviour and must say so, not regenerate the file.
"""

import hashlib
import os
from dataclasses import replace

import pytest

import arte_tcs.harness as harness
from arte_tcs.harness import (ScenarioConfig, compare, compare_lines,
                              run_scenario, write_trace_csv)

GOLDEN = os.path.join(os.path.dirname(__file__), "golden",
                      "snow_launch.sha256")
CONTROLLERS = ("mfc", "src", "mtte")
MODES = ("off", "oracle")


def golden(name):
    with open(GOLDEN) as fh:
        table = dict(reversed(line.split()) for line in fh if line.strip())
    return table[name]


@pytest.fixture(scope="module")
def traces():
    base = ScenarioConfig()
    return {(tag, mode): run_scenario(replace(base, controller=tag,
                                              arte_mode=mode))
            for tag in CONTROLLERS for mode in MODES}


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("tag", CONTROLLERS)
def test_trace_csv_digest(traces, tmp_path, tag, mode):
    path = tmp_path / "trace.csv"
    write_trace_csv(str(path), traces[(tag, mode)])
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == golden("trace_%s_%s.csv" % (tag, mode))


def test_compare_table_digest(traces, monkeypatch):
    # compare() runs the six scenarios pinned above; serving them from the
    # fixture leaves only the metrics, the gap and the formatting to check
    monkeypatch.setattr(harness, "run_scenario",
                        lambda cfg: traces[(cfg.controller, cfg.arte_mode)])
    rows = compare(CONTROLLERS, MODES, ScenarioConfig())
    text = "\n".join(compare_lines(rows)) + "\n"
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == golden("compare.csv")
