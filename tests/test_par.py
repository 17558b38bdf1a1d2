import multiprocessing

import pytest

from edimlab import _par


class RecordingContext:
    """Stands in for a multiprocessing context: records the pool size, maps in-process."""

    def __init__(self):
        self.processes = []

    def Pool(self, processes):
        self.processes.append(processes)
        return self

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return [fn(x) for x in items]


@pytest.fixture
def pool_sizes(monkeypatch):
    ctx = RecordingContext()
    monkeypatch.setattr(multiprocessing, "get_context", lambda method: ctx)
    return ctx.processes


@pytest.mark.parametrize(
    "threads, cores, blocks, expected",
    [
        (10**6, 2, 16, 2),   # capped by the cores
        (10**6, 64, 3, 3),   # capped by the blocks
        (3, 64, 16, 3),      # as asked
        (8, None, 16, 1),    # unknown core count counts as one core
        (10**6, 1, 16, 1),
    ],
)
def test_worker_count_is_clamped(monkeypatch, pool_sizes, threads, cores, blocks, expected):
    monkeypatch.setattr(_par.os, "cpu_count", lambda: cores)
    out = _par.run_blocks(lambda b: b * 2, list(range(blocks)), threads)
    assert out == [b * 2 for b in range(blocks)]
    assert pool_sizes == ([] if expected == 1 else [expected])


@pytest.mark.parametrize("count, threads", [(0, 1), (5, 1), (5, 2), (112, 2), (853, 3)])
def test_item_blocks_are_contiguous_runs_in_order(count, threads):
    items = list(range(count))
    blocks = _par.item_blocks(items, threads)
    assert [x for block in blocks for x in block] == items
    assert all(blocks)
    assert len(blocks) <= (1 if threads <= 1 else threads * 8)
