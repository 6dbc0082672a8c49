"""Tests for the platform configuration and pricing tables."""

import pytest

from repro.common.types import PricingPattern, StorageKind
from repro.config import (
    DEFAULT_PLATFORM,
    LambdaLimits,
    LambdaPricing,
    PlatformConfig,
    default_storage_catalog,
)


class TestLambdaConfig:
    def test_aws_prices(self):
        p = LambdaPricing()
        assert p.usd_per_gb_second == pytest.approx(0.0000166667)
        assert p.usd_per_invocation == pytest.approx(0.20 / 1e6)

    def test_limits_match_paper(self):
        lim = LambdaLimits()
        assert lim.max_memory_mb == 10240  # paper §III-B.3
        assert lim.max_concurrency == 3000  # paper §III-B.3
        assert lim.full_vcpu_memory_mb == 1769

    def test_vcpu_share_linear(self):
        cfg = PlatformConfig()
        assert cfg.vcpu_share(1769) == pytest.approx(1.0)
        assert cfg.vcpu_share(3538) == pytest.approx(2.0)
        # Clamped at the maximum memory.
        assert cfg.vcpu_share(20480) == cfg.vcpu_share(10240)


class TestStorageProfiles:
    def test_all_services_present(self):
        cat = default_storage_catalog()
        assert set(cat) == set(StorageKind)

    def test_latency_ordering(self):
        cat = default_storage_catalog()
        assert (
            cat[StorageKind.VMPS].latency_s
            <= cat[StorageKind.ELASTICACHE].latency_s
            < cat[StorageKind.DYNAMODB].latency_s
            < cat[StorageKind.S3].latency_s
        )

    def test_pricing_patterns(self):
        cat = default_storage_catalog()
        assert cat[StorageKind.S3].pricing is PricingPattern.REQUEST
        assert cat[StorageKind.DYNAMODB].pricing is PricingPattern.REQUEST
        assert cat[StorageKind.ELASTICACHE].pricing is PricingPattern.RUNTIME
        assert cat[StorageKind.VMPS].pricing is PricingPattern.RUNTIME

    def test_dynamodb_object_limit_400kb(self):
        cat = default_storage_catalog()
        assert cat[StorageKind.DYNAMODB].object_limit_mb == pytest.approx(400 / 1024)

    def test_only_dynamodb_size_priced(self):
        cat = default_storage_catalog()
        assert cat[StorageKind.DYNAMODB].usd_per_request_per_mb > 0
        assert cat[StorageKind.S3].usd_per_request_per_mb == 0

    def test_request_price_grows_with_size(self):
        ddb = default_storage_catalog()[StorageKind.DYNAMODB]
        assert ddb.request_price_usd(0.3) > ddb.request_price_usd(0.001)

    def test_elasticity_flags(self):
        cat = default_storage_catalog()
        assert cat[StorageKind.S3].elastic
        assert cat[StorageKind.DYNAMODB].elastic
        assert not cat[StorageKind.ELASTICACHE].elastic
        assert not cat[StorageKind.VMPS].elastic

    def test_default_platform_shared(self):
        assert DEFAULT_PLATFORM.storage_config(StorageKind.S3).kind is StorageKind.S3
