"""Machine-speed probe for timing on a shared, drifting host.

A shared 2-core x86-64 host like the one this benchmark was built on
changes speed by up to 1.5x within seconds (this loop takes about 2 ms
when calm and 3 ms in slow episodes of 2-6 s) and by about 2x over
minutes.  Every timed step of the end-to-end run is bracketed by the
loop, and its wall time is rescaled to a machine on which the loop takes
``PROBE_REF_S``.  A step whose two probes disagree ran while the speed
changed, so the rescaling cannot hold for it: it is timed once more.  The loop
uses no package code, so a change to the package moves the rescaled times
and not the probe.
"""

from __future__ import annotations

from time import perf_counter

PROBE_REF_S = 2e-3
PROBE_LOOPS = 10000
CALM = 1.2          # probes further apart than this ratio: speed changed
ATTEMPTS = 2


def speed_probe() -> float:
    """Seconds taken by a fixed pure-Python loop."""
    t0 = perf_counter()
    acc, d = 0.0, {}
    for i in range(PROBE_LOOPS):
        x = (i * 0.5, i + 1.0)
        acc += x[0] ** 0.5 / x[1]
        d[i & 63] = x
    return perf_counter() - t0


def rescale(before: float, after: float) -> float:
    """Factor from wall seconds to reference-speed seconds, given the
    probe times taken just before and just after a timed step."""
    return 2 * PROBE_REF_S / (before + after)


def measure(step):
    """(result, wall seconds, reference-speed seconds, attempts) of
    ``step()``, repeated up to ``ATTEMPTS`` times in all while the
    machine's speed changes during it."""
    for attempt in range(1, ATTEMPTS + 1):
        before = speed_probe()
        t0 = perf_counter()
        out = step()
        wall = perf_counter() - t0
        after = speed_probe()
        if max(before, after) <= CALM * min(before, after):
            break
    return out, wall, wall * rescale(before, after), attempt
