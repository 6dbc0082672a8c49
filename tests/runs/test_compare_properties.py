"""Properties of the one compare engine over generated documents: a
document compared with itself is identical, and swapping the two sides
swaps improved with regressed and added with removed."""

import json

from hypothesis import given, settings, strategies as st

from repro.runs.compare import STATUSES, compare, exit_code

_SWAP = {"improved": "regressed", "regressed": "improved",
         "added": "removed", "removed": "added"}

_times = st.floats(0.0, 10.0)
_paths = st.lists(st.sampled_from(["a", "b", "c"]), min_size=1, max_size=3).map(";".join)


@st.composite
def _profile(draw) -> dict:
    frames = draw(st.dictionaries(_paths, st.tuples(
        st.integers(0, 5), _times,
        st.dictionaries(st.sampled_from(["x", "y"]), st.floats(0, 100), max_size=2),
    ), max_size=6))
    return {
        "schema": "repro-profile/v1",
        "meta": {},
        "frames": [
            {"path": path, "depth": path.count(";") + 1, "n_calls": calls,
             "total_s": total, "self_s": total, "counters": counters}
            for path, (calls, total, counters) in sorted(frames.items())
        ],
        "totals": {"wall_s": 1.0, "n_frames": len(frames), "n_calls": 0},
    }


@st.composite
def _timeseries(draw) -> dict:
    series = draw(st.dictionaries(
        st.sampled_from(["p.inflight", "p.warm", "t.cost", "t.sync"]),
        st.lists(st.floats(-1e3, 1e3), max_size=5),
        max_size=4,
    ))
    entries = []
    for name, values in sorted(series.items()):
        entries.append({
            "name": name,
            "t0_s": draw(st.sampled_from([0.0, 1.0])),
            "dt_s": [draw(st.sampled_from([0.5, 1.0])) for _ in values[1:]],
            "values": values,
            "n_samples": len(values) + draw(st.integers(0, 2)),
            "dropped": 0,
            "high_water": max(values, default=0.0),
        })
    return {
        "schema": "repro-timeseries/v1",
        "meta": {},
        "series": entries,
        "markers": [],
        "totals": {"n_series": len(entries), "n_points": 0, "n_samples": 0},
    }


_summary_values = (
    st.none() | st.booleans() | st.integers(-3, 3)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from([float("nan"), float("inf"), "min_jct"])
)
_summary_keys = st.sampled_from([
    "jct_s", "cost_usd", "storage_cost_usd", "n_restarts", "converged",
    "n_epochs", "objective", "qos_s",
])


@st.composite
def _run(draw) -> dict:
    summary = draw(st.dictionaries(_summary_keys, _summary_values, max_size=6))
    if draw(st.booleans()):
        summary["peaks"] = draw(st.dictionaries(
            st.sampled_from(["concurrency", "warm_pool"]), st.floats(0, 10)))
    artifacts = {}
    if draw(st.booleans()):
        artifacts["slo"] = json.dumps({"verdict": {
            "violated": draw(st.booleans()),
            "violations": draw(st.lists(st.sampled_from(["deadline", "budget"]))),
        }})
    if draw(st.booleans()):
        by_kind = draw(st.dictionaries(
            st.sampled_from(["crash", "storage-throttle"]), st.integers(0, 4)))
        artifacts["faults"] = json.dumps({"summary": {
            "n_faults": sum(by_kind.values()), "n_recoveries": draw(st.integers(0, 4)),
            "fault_time_s": draw(_times), "recovery_time_s": draw(_times),
            "by_kind": by_kind,
        }})
    if draw(st.booleans()):
        kinds = draw(st.lists(st.sampled_from(["epoch_done", "alert"]), max_size=4))
        artifacts["events"] = "\n".join(
            [json.dumps({"schema": "repro-events/v1"})]
            + [json.dumps({"kind": kind}) for kind in kinds]
        ) + "\n"
    digests = draw(st.dictionaries(
        st.sampled_from(["telemetry", "trace", "events"]),
        st.sampled_from(["aa", "bb"]),
    ))
    manifest = {
        "schema": "repro-bundle/v1",
        "meta": {"command": "train", "workload": "lr-higgs", "seed": 0},
        "run_id": "r" + draw(st.sampled_from(["0" * 12, "1" * 12])),
        "artifacts": [
            {"kind": kind, "sha256": sha, "deterministic": True}
            for kind, sha in sorted(digests.items())
        ],
        "summary": summary,
    }
    return {"manifest": manifest, "artifacts": artifacts}


_documents = st.one_of(
    st.tuples(st.just("profile"), _profile(), _profile(),
              st.fixed_dictionaries({"threshold": st.floats(1.0, 3.0),
                                     "min_s": st.floats(0.0, 0.5)})),
    st.tuples(st.just("timeseries"), _timeseries(), _timeseries(),
              st.fixed_dictionaries({"threshold": st.floats(0.0, 1.0)})),
    st.tuples(st.just("runs"), _run(), _run(),
              st.fixed_dictionaries({"threshold": st.floats(0.0, 1.0)})),
)


def _roundtrip(doc: dict) -> dict:
    """The document as a loader would read it back from its JSON text."""
    return json.loads(json.dumps(doc))


@given(_documents)
@settings(max_examples=300, deadline=None)
def test_self_compare_is_identical(case):
    kind, doc, _, params = case
    report = compare(kind, doc, _roundtrip(doc), **params)
    assert {row["status"] for row in report["rows"]} <= {"identical"}
    assert report["counts"]["identical"] == len(report["rows"])
    assert report["verdict"] == "identical"
    assert exit_code(report) == 0


@given(_documents)
@settings(max_examples=300, deadline=None)
def test_swap_mirrors_statuses(case):
    kind, base, target, params = case
    forward = compare(kind, base, target, **params)
    backward = compare(kind, target, base, **params)
    assert [row["key"] for row in forward["rows"]] == [
        row["key"] for row in backward["rows"]
    ]
    for fwd, bwd in zip(forward["rows"], backward["rows"]):
        assert bwd["status"] == _SWAP.get(fwd["status"], fwd["status"]), fwd["key"]
    assert backward["counts"] == {
        status: forward["counts"][_SWAP.get(status, status)] for status in STATUSES
    }
