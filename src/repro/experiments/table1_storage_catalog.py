"""Table I — qualitative comparison of external storage services."""

from __future__ import annotations

from repro.common.types import PricingPattern, StorageKind
from repro.config import DEFAULT_PLATFORM, PlatformConfig
from repro.workflow.metrics import ComparisonTable
from repro.experiments.harness import ExperimentResult

EXPERIMENT = "table1"
TITLE = "External storage service characteristics"


def table1_rows(platform: PlatformConfig = DEFAULT_PLATFORM) -> list[dict]:
    """Reproduce paper Table I: qualitative comparison of the services.

    Latency buckets: <= 2 ms low, <= 8 ms medium, else high. The cost tier
    counts dollar signs the way the paper does (request-priced cheap,
    provisioned expensive).
    """
    rows = []
    for kind in StorageKind:
        cfg = platform.storage_config(kind)
        if cfg.latency_s <= 0.002:
            latency = "Low"
        elif cfg.latency_s <= 0.008:
            latency = "Medium"
        else:
            latency = "High"
        if cfg.pricing is PricingPattern.REQUEST:
            tier = "$" if cfg.usd_per_request_per_mb == 0 else "$$"
        else:
            tier = "$$$"
        rows.append(
            {
                "service": kind.value,
                "elastic_scaling": "Auto" if cfg.elastic else "Manual",
                "latency": latency,
                "pricing_pattern": (
                    "Data request"
                    if cfg.pricing is PricingPattern.REQUEST
                    else "Execution time"
                ),
                "cost_tier": tier,
            }
        )
    return rows


def run(scale: str = "small", seed: int = 0) -> ExperimentResult:
    rows = table1_rows()
    table = ComparisonTable(
        title="Table I",
        columns=["service", "elastic_scaling", "latency", "pricing_pattern", "cost"],
    )
    for r in rows:
        table.add_row(
            r["service"], r["elastic_scaling"], r["latency"],
            r["pricing_pattern"], r["cost_tier"],
        )
    return ExperimentResult(
        experiment=EXPERIMENT,
        title=TITLE,
        tables=[table],
        series={"rows": rows},
    )


if __name__ == "__main__":
    print(run().render())
