"""ProvenanceStamp: the shared who/what/how block in every capture's meta."""

from dataclasses import dataclass

from repro.common.meta import coerce_meta
from repro.config import DEFAULT_PLATFORM
from repro.runs import ProvenanceStamp, hash_config
from repro._version import __version__


@dataclass(frozen=True)
class _Cfg:
    rate: float = 1.5
    name: str = "x"


class TestHashConfig:
    def test_stable_across_calls(self):
        assert hash_config(_Cfg()) == hash_config(_Cfg())
        assert len(hash_config(_Cfg())) == 12

    def test_sensitive_to_values(self):
        assert hash_config(_Cfg(rate=2.0)) != hash_config(_Cfg())

    def test_handles_enum_keyed_platform_config(self):
        # DEFAULT_PLATFORM nests StorageKind-keyed dicts; the hash must not
        # choke on unsortable enum keys.
        digest = hash_config(DEFAULT_PLATFORM)
        assert digest == hash_config(DEFAULT_PLATFORM)

    def test_plain_dict_and_opaque_object(self):
        assert hash_config({"a": 1}) == hash_config({"a": 1})
        assert hash_config(object()) != ""


class TestStamp:
    def test_collect_fills_version_and_config_hash(self):
        stamp = ProvenanceStamp.collect("train", workload="lr-higgs", seed=3)
        assert stamp.package_version == __version__
        assert stamp.config_hash == hash_config(DEFAULT_PLATFORM)
        assert stamp.seed == 3

    def test_to_meta_keeps_legacy_keys_top_level(self):
        meta = ProvenanceStamp.collect(
            "train", workload="lr-higgs", method="adaptive", seed=7
        ).to_meta()
        assert meta["command"] == "train"
        assert meta["workload"] == "lr-higgs"
        assert meta["method"] == "adaptive"
        assert meta["seed"] == 7
        assert set(meta["provenance"]) == {
            "package_version", "config_hash", "argv", "schema_versions",
        }

    def test_identity_excludes_argv_and_schemas(self):
        a = ProvenanceStamp.collect("train", workload="w", argv=["--out", "a.json"])
        b = ProvenanceStamp.collect("train", workload="w", argv=["--out", "b.json"])
        assert a.identity() == b.identity()
        assert a.with_schemas({"trace": "x"}).identity() == a.identity()

    def test_identity_tracks_run_context(self):
        a = ProvenanceStamp.collect("train", workload="w", seed=0)
        b = ProvenanceStamp.collect("train", workload="w", seed=1)
        assert a.identity() != b.identity()


class TestCoerceMeta:
    def test_plain_dict_passes_through_unchanged(self):
        # The satellite contract: dict-meta captures stay byte-identical.
        meta = {"command": "train", "workload": "w", "seed": 0}
        assert coerce_meta(meta) == meta

    def test_none_becomes_empty(self):
        assert coerce_meta(None) == {}

    def test_stamp_expands_via_to_meta(self):
        stamp = ProvenanceStamp.collect("train", workload="w")
        assert coerce_meta(stamp) == stamp.to_meta()
