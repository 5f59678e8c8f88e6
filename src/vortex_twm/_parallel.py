"""Thread pool for independent sweep and figure cells.

One worker per CPU, capped by the number of cells; a single worker runs
the cells in a plain loop.  Cells are pure per-config computations
writing to disjoint directories, so results and output bytes are
identical at any worker count; the returned list follows the input order.
"""
from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor


def map_items(fn, items):
    items = list(items)
    workers = min(os.cpu_count() or 1, len(items))
    if workers <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))
