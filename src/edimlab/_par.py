"""Deterministic helpers for splitting sweeps across processes.

Workers receive contiguous blocks of the ascending list of isomorphism
classes of one census level (`experiments.class_sweep` is the only
caller) and return plain aggregates; pool.map preserves block order, so
merged results never depend on scheduling.  threads <= 1 runs everything
in-process and is the reference behaviour.
"""

import os
from collections.abc import Sequence


def item_blocks(items: Sequence, threads: int) -> list[Sequence]:
    """Split items into contiguous blocks, in order: one block for threads <= 1."""
    pieces = 1 if threads <= 1 else max(1, min(len(items), threads * 8))
    step = max(1, (len(items) + pieces - 1) // pieces)
    return [items[lo:lo + step] for lo in range(0, len(items), step)]


def run_blocks(fn, blocks, threads: int) -> list:
    # never more workers than cores or blocks, whatever --threads asks for
    workers = min(threads, os.cpu_count() or 1, len(blocks))
    if workers <= 1:
        return [fn(b) for b in blocks]
    # imported here: it pulls in sockets, pickling and threads (about 1 MB of
    # resident memory), which a run that never forks does not need
    import multiprocessing

    ctx = multiprocessing.get_context("fork")
    with ctx.Pool(processes=workers) as pool:
        return pool.map(fn, blocks)
