"""Table I's rows, derived from the platform's storage profiles."""

from repro.common.types import StorageKind
from repro.experiments.table1_storage_catalog import table1_rows


class TestTable1:
    def test_rows_cover_all_services(self):
        rows = table1_rows()
        assert {r["service"] for r in rows} == {k.value for k in StorageKind}

    def test_qualitative_match_with_paper(self):
        rows = {r["service"]: r for r in table1_rows()}
        assert rows["s3"]["latency"] == "High"
        assert rows["dynamodb"]["latency"] == "Medium"
        assert rows["elasticache"]["latency"] == "Low"
        assert rows["vmps"]["latency"] == "Low"
        assert rows["s3"]["elastic_scaling"] == "Auto"
        assert rows["vmps"]["elastic_scaling"] == "Manual"
        assert rows["s3"]["pricing_pattern"] == "Data request"
        assert rows["elasticache"]["pricing_pattern"] == "Execution time"
