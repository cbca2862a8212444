"""A recording ThreadPoolExecutor, for tests only."""

import concurrent.futures


def record_pools(monkeypatch) -> list:
    """Swap in the real ThreadPoolExecutor, recording [max_workers, tasks mapped] for each pool a run starts."""
    pools = []

    class Recording(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, max_workers):
            super().__init__(max_workers=max_workers)
            self.record = [max_workers, 0]
            pools.append(self.record)

        def map(self, fn, tasks):
            tasks = list(tasks)
            self.record[1] += len(tasks)
            return super().map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Recording)
    return pools
