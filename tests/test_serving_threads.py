"""Tests for one served index shared by threads: writes run one at a
time, and the serving counters stay exact.

Each test shortens the interpreter's switch interval, so threads
interleave between almost any two bytecodes and a lost update shows
within a second.
"""

import sys
import threading
from contextlib import contextmanager

import numpy as np
import pytest

from repro.core.lsi import LSIModel
from repro.linalg.sparse import CSRMatrix
from repro.serving import ServedIndex, ServingConfig, read_bundle

N_TERMS, RANK, N_FITTED = 200, 16, 300


@pytest.fixture
def model(rng):
    """A rank-16 LSI model over 300 random documents of 200 terms."""
    return LSIModel.fit(rng.random((N_TERMS, N_FITTED)), RANK,
                        engine="exact")


@contextmanager
def _fast_switching():
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


def _run_threads(targets) -> None:
    """Run each target in its own thread; every one must finish."""
    threads = [threading.Thread(target=target) for target in targets]
    with _fast_switching():
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    assert not any(thread.is_alive() for thread in threads)


def _same_bits(a, b) -> bool:
    return a.shape == b.shape and np.ascontiguousarray(a).tobytes() \
        == np.ascontiguousarray(b).tobytes()


class TestOneWriterAtATime:
    N_THREADS, N_BLOCKS, WIDTH = 4, 100, 5

    def _blocks(self, seed) -> list:
        """One thread's fold-in blocks, dense and CSR in turn."""
        rng = np.random.default_rng(seed)
        blocks = []
        for b in range(self.N_BLOCKS):
            dense = rng.random((N_TERMS, self.WIDTH))
            dense[dense < 0.9] = 0.0
            blocks.append(CSRMatrix.from_dense(dense) if b % 2 else dense)
        return blocks

    def test_concurrent_writes_equal_a_sequential_replay(self, model,
                                                         tmp_path):
        index = ServedIndex(model)
        blocks = [self._blocks(seed) for seed in range(self.N_THREADS)]
        folded = [[] for _ in range(self.N_THREADS)]
        removed = [[] for _ in range(self.N_THREADS)]
        path = tmp_path / "bundle"

        def writer(t):
            for b, block in enumerate(blocks[t]):
                ids = index.add_documents(block)
                folded[t].append((ids, block))
                if b % 10 == 9:
                    index.remove_documents([int(ids[0])])
                    removed[t].append(int(ids[0]))
                if b == self.N_BLOCKS // 2 and t == 0:
                    index.refit()
                if b == self.N_BLOCKS // 2 and t == 1:
                    index.save(path)

        _run_threads([lambda t=t: writer(t)
                      for t in range(self.N_THREADS)])
        assert [len(f) for f in folded] == [self.N_BLOCKS] * self.N_THREADS

        # Ids are unique and contiguous, and every fold-in, including
        # those issued while the refit ran, is still in the store.
        folds = sorted((f for per_thread in folded for f in per_thread),
                       key=lambda fold: int(fold[0][0]))
        ids = np.concatenate([fold[0] for fold in folds])
        total = self.N_THREADS * self.N_BLOCKS * self.WIDTH
        assert np.array_equal(ids, np.arange(N_FITTED, N_FITTED + total))
        assert index.n_documents == N_FITTED + total
        writer_state = index._writer
        assert writer_state.pending_columns == writer_state.n_folded
        assert writer_state.refits == 1

        # Replay the writes one at a time, in the order the lock took
        # them: fold-ins by id, the refit where the store stood then.
        replay = ServedIndex(model)
        refit_at = writer_state.n_original
        before_refit = None
        for fold_ids, block in folds:
            if int(fold_ids[0]) == refit_at:
                before_refit = replay._writer.store
                replay.refit()
            assert np.array_equal(replay.add_documents(block), fold_ids)
        replay.remove_documents(sorted(sum(removed, [])))
        assert before_refit is not None
        for got, want in zip(writer_state.store, replay._writer.store):
            assert _same_bits(got, want)
        assert _same_bits(writer_state.term_basis,
                          replay._writer.term_basis)
        assert _same_bits(writer_state.singular_values,
                          replay._writer.singular_values)
        assert index.tombstones == replay.tombstones

        # The save is one write's state: its store is a prefix of the
        # store before or after the refit, as its spectrum says.
        bundle = read_bundle(path)
        m = bundle.doc_norms.shape[0]
        saved_late = _same_bits(bundle.singular_values,
                                writer_state.singular_values)
        doc_unit, doc_norms = writer_state.store if saved_late \
            else before_refit
        assert _same_bits(bundle.doc_unit, doc_unit[:, :m])
        assert _same_bits(bundle.doc_norms, doc_norms[:m])
        assert set(bundle.tombstones) <= set(index.tombstones)
        assert all(d < m for d in bundle.tombstones)


class TestExactCounters:
    N_THREADS, N_CALLS = 8, 600

    def test_counters_are_exact_under_concurrent_callers(self, model,
                                                         rng, tmp_path):
        index = ServedIndex(model, config=ServingConfig(cache_capacity=4))
        queries = rng.random((N_TERMS, 6))
        block = queries[:, :3]

        def reader(t):
            for i in range(self.N_CALLS):
                kind = (t + i) % 3
                if kind == 0:
                    index.rank_documents(queries[:, i % 6], top_k=5)
                elif kind == 1:
                    index.rank_batch(block, top_k=5)
                else:
                    index.score(queries[:, i % 6])

        _run_threads([lambda t=t: reader(t)
                      for t in range(self.N_THREADS)])
        calls = self.N_THREADS * self.N_CALLS
        per_kind = calls // 3
        stats = index.stats()
        assert stats.batches_served == 2 * per_kind
        assert stats.queries_served == per_kind * (1 + 3 + 1)
        assert stats.cache_hits + stats.cache_misses == per_kind * (1 + 3)

        loaded = ServedIndex.load(index.save(tmp_path / "b"))
        assert loaded.stats() == stats
        loaded.rank_batch(block, top_k=5)
        loaded.score(queries[:, 0])
        again = loaded.stats()
        assert again.queries_served == stats.queries_served + 4
        assert again.batches_served == stats.batches_served + 1
