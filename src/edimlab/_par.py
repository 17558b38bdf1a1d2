"""Deterministic helpers for splitting mask-range sweeps across processes.

Workers receive contiguous (n, lo, hi) mask blocks and return plain
aggregates; pool.map preserves block order, so merged results never depend
on scheduling.  threads <= 1 runs everything in-process and is the
reference behaviour.
"""

import multiprocessing
import os


def mask_blocks(n: int, threads: int) -> list[tuple[int, int, int]]:
    total = 1 << (n * (n - 1) // 2)
    pieces = 1 if threads <= 1 else min(total, threads * 8)
    step = (total + pieces - 1) // pieces
    return [(n, lo, min(lo + step, total)) for lo in range(0, total, step)]


def run_blocks(fn, blocks, threads: int) -> list:
    # never more workers than cores or blocks, whatever --threads asks for
    workers = min(threads, os.cpu_count() or 1, len(blocks))
    if workers <= 1:
        return [fn(b) for b in blocks]
    ctx = multiprocessing.get_context("fork")
    with ctx.Pool(processes=workers) as pool:
        return pool.map(fn, blocks)
