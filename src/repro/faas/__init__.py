"""Serverless platform substrate: discrete-event simulator of AWS Lambda."""

from repro.faas.billing import BillingMeter, InvocationBill
from repro.faas.function import FunctionInstance, WarmPool
from repro.faas.noise import NoiseModel
from repro.faas.platform import EpochExecution, FaaSPlatform, InvocationResult
from repro.faas.trace import TraceEvent, TraceRecorder

__all__ = [
    "BillingMeter",
    "EpochExecution",
    "FaaSPlatform",
    "FunctionInstance",
    "InvocationBill",
    "InvocationResult",
    "NoiseModel",
    "TraceEvent",
    "TraceRecorder",
    "WarmPool",
]
