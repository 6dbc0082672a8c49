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
fields; dropping those keys gives the earlier bytes. Any change to a
capture's rendering, its row order or a float's last digit moves a hash.
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
        "events": "98f7219456c2a9741b5052d072dec652d4995f5be270d499b95f7223ca12e4c9",
        "telemetry": "6c7b015e31c6625c55ff1a723a4345b59a3ca452b28cd9072ad21d8d7b5a815d",
        "timeseries": "507e94ccd9d9ed44dfbe41664968b23e96ec703f855979bdd4aa4aff122bb208",
        "trace": "d5b4db0ba7648570a012236bbd1a6f2648fb054e5c62c3310b77be1dfadc2987",
    },
    "faulted": {
        "events": "85aa272390564fb184f6287e96e1ad01c565375c5b8a29be4473645b6beca3b4",
        "telemetry": "60b0589b64cfe1e8e816a5900c1b6383f245b23a651424543f901fc6f794a1a2",
        "timeseries": "9f7218a911552167b9e1c84fed8f552870038f969af70a7419becc31d387fe30",
        "trace": "26f470ca3a72f075baf2c8cb397376c9e8b1d91c02351ffa0a99e151c6b2e08d",
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
        for kind in sorted(BUNDLE_KINDS)
    }
    assert digests == BUNDLE_PINS[case]
