"""REP014 negative fixture: scheduling goes through the event kernel."""

from repro.kernel import EventKernel


def run_round(actions: list) -> float:
    kernel = EventKernel()
    for delay, action in actions:
        kernel.schedule(delay, action)
    return kernel.run()


def smallest(values: list, n: int) -> list:
    # Selection helpers order data, not events — not an event queue.
    import heapq

    return heapq.nsmallest(n, values)
