"""External-storage substrate: simulated S3/DynamoDB/ElastiCache/VM-PS."""

from repro.storage.base import ExternalStorageService, StorageMetrics
from repro.storage.catalog import (
    StorageCatalog,
    make_service,
    table1_rows,
)
from repro.storage.kvplane import KVPlane
from repro.storage.sync import BSPSynchronizer, SyncRoundReport

__all__ = [
    "BSPSynchronizer",
    "ExternalStorageService",
    "KVPlane",
    "StorageCatalog",
    "StorageMetrics",
    "SyncRoundReport",
    "make_service",
    "table1_rows",
]
