"""Golden pins of the bundled capture bytes of one small training run.

A ``--save-run`` bundle's run id digests its four deterministic captures
(telemetry, trace, events, timeseries). These tests hash each capture's
text for ``train lr-higgs --budget 2.0 --seed 0``, once fault-free and
once under ``examples/fault_plan.json``, against constants recorded
before the per-worker trace spans became one columnar block per epoch.
The two telemetry pins were re-recorded when the run summary's peaks
lost ``storage_bandwidth_mb_s``, a high-water mark that read 0 in every
run; nothing else in those captures moved. The two events pins were
re-recorded when ``epoch_done`` rows gained the epoch's ``EpochRecord``
fields; dropping those keys gives the earlier bytes. The events and
telemetry pins were re-recorded again when the always-zero queue wait
went: adding back each ``epoch_done`` row's ``queue_wait_s`` and the
``repro_faas_queue_wait_seconds`` family gives the earlier bytes. The two
telemetry pins were re-recorded once more when the breakdown's peaks
became platform gauges: dropping the ``repro_faas_warm_pool_peak`` family
and adding back ``run.peaks`` (``concurrency`` and ``warm_pool``, the two
peak gauges' values) gives the earlier bytes. The faulted run also pins
its fault report, the capture a change in the order of the fault draws
would move first; it was recorded before a gang's fault sites came to be
seeded in array passes. Any change to a capture's rendering, its row
order or a float's last digit moves a hash.
"""

import contextlib
import hashlib
import io
from pathlib import Path

import pytest

from repro.cli import main
from repro.runs import BUNDLE_KINDS, RunStore

FAULT_PLAN = Path(__file__).resolve().parents[2] / "examples" / "fault_plan.json"

BUNDLE_PINS = {
    "clean": {
        "events": "f7fadb1eb7d344a0152ec6e2b2c46704a296e9397df39e6d954df80018c39911",
        "telemetry": "ac399268677100b5f7bebd7f76b2de40e928eb1f2ca7ec6ff436916184d2d840",
        "timeseries": "507e94ccd9d9ed44dfbe41664968b23e96ec703f855979bdd4aa4aff122bb208",
        "trace": "d5b4db0ba7648570a012236bbd1a6f2648fb054e5c62c3310b77be1dfadc2987",
    },
    "faulted": {
        "events": "a74c634f8c263fa776df3e8c83981ac64bf2098f1da21cc7b0e55f2c8137b9b8",
        "telemetry": "7018b626ae3eb97cff09e2cd88f419acc723f72d2cd9ecb3ea3b00da1a3af15f",
        "timeseries": "9f7218a911552167b9e1c84fed8f552870038f969af70a7419becc31d387fe30",
        "trace": "26f470ca3a72f075baf2c8cb397376c9e8b1d91c02351ffa0a99e151c6b2e08d",
        "faults": "c7e62b8a9a6c3f4b8fe9dd47d35d1f305fc5c56f07fea6e5c3d8afd1573881d6",
    },
}


@pytest.mark.parametrize("case", sorted(BUNDLE_PINS))
def test_bundle_capture_bytes(case, tmp_path):
    argv = ["train", "lr-higgs", "--budget", "2.0", "--seed", "0",
            "--save-run", str(tmp_path)]
    if case == "faulted":
        argv += ["--faults", str(FAULT_PLAN)]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0
    store = RunStore(tmp_path)
    (run_id,) = store.run_ids()
    manifest = store.load(run_id)
    digests = {
        kind: hashlib.sha256(store.read_artifact(manifest, kind).encode()).hexdigest()
        for kind in sorted(BUNDLE_PINS[case])
    }
    assert digests == BUNDLE_PINS[case]
    assert BUNDLE_KINDS <= digests.keys()
