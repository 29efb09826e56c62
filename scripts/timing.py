"""The timing loop of ``time_episode.py``, ``time_fit.py`` and ``time_select.py``.

It imports nothing from uacal, so each script still times whichever
checkout ``PYTHONPATH`` points at.
"""

import statistics
import time


def timed(fn, calls):
    """(median, first quartile, third quartile) in ms over ``calls`` calls of
    fn, after one untimed warm-up call."""
    fn()  # warm-up: builds layouts and fills caches
    ms = []
    for _ in range(calls):
        t0 = time.perf_counter()
        fn()
        ms.append((time.perf_counter() - t0) * 1e3)
    q1, med, q3 = statistics.quantiles(ms, n=4)
    return med, q1, q3
