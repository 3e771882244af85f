"""Tests for the serving precision and the mmap cold start.

Each carries a correctness contract this file pins down:

- the engine scores in float64 only, through reused scratch buffers;
- a manifest written when a float32 mode existed loads and ranks
  exactly like the float64 index that was saved;
- mmap-loaded indexes rank bit-identically to eager loads, mutate
  over the maps without copying them, and keep their rankings when
  another index saves over the bundle they map.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.lsi import LSIModel
from repro.linalg.dense import normalize_columns
from repro.serving import (
    BatchQueryEngine,
    ServedIndex,
    ServingConfig,
    read_bundle,
    read_manifest,
)

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def dense_matrix(rng):
    matrix = rng.random((60, 45))
    matrix[matrix < 0.4] = 0.0
    return matrix


@pytest.fixture
def model(dense_matrix):
    return LSIModel.fit(dense_matrix, 6, engine="exact")


@pytest.fixture
def queries(rng):
    return rng.random((60, 10))


class TestFloat64Engine:
    def test_scores_are_float64(self, model, queries):
        engine = BatchQueryEngine(
            model.svd.u, *normalize_columns(model.document_vectors()))
        assert engine.score_batch(queries).dtype == np.float64

    def test_scratch_reuse_does_not_leak_between_batches(
            self, model, queries):
        # Same engine, different batches: preallocated scratch must
        # not let one batch's scores contaminate the next.
        engine = BatchQueryEngine(
            model.svd.u, *normalize_columns(model.document_vectors()))
        first = engine.score_batch(queries).copy()
        engine.score_batch(queries[:, ::-1].copy())
        again = engine.score_batch(queries)
        assert np.array_equal(first, again)

    def test_varying_batch_width_reallocates(self, model, queries):
        engine = BatchQueryEngine(
            model.svd.u, *normalize_columns(model.document_vectors()))
        wide = engine.score_batch(queries)
        narrow = engine.score_batch(queries[:, :3])
        assert wide.shape[0] == queries.shape[1]
        assert narrow.shape[0] == 3
        assert np.array_equal(narrow, wide[:3])


class TestOnePrecision:
    def test_float32_manifest_ranks_like_the_saved_float64_index(
            self, model, queries, tmp_path):
        # A manifest from when a float32 mode existed: its arrays were
        # always float64, so the precision keys are ignored and the
        # index scores the saved bits, eager and mapped.
        saved = ServedIndex(model)
        path = saved.save(tmp_path / "b")
        manifest_path = path / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        assert "compute_dtype" not in manifest
        assert "dtype" not in manifest["stats"]
        manifest["compute_dtype"] = "float32"
        manifest["stats"]["dtype"] = "float32"
        manifest_path.write_text(json.dumps(manifest))
        for mmap in (False, True):
            loaded = ServedIndex.load(path,
                                      config=ServingConfig(mmap=mmap))
            assert loaded.mmapped == mmap
            assert np.array_equal(loaded.rank_batch(queries),
                                  saved.rank_batch(queries))
            assert loaded.score(queries[:, 0]).tobytes() \
                == saved.score(queries[:, 0]).tobytes()


class TestMmapLoad:
    def test_mmap_rankings_bit_identical_to_eager(self, model,
                                                  queries, tmp_path):
        path = ServedIndex(model).save(tmp_path / "b")
        eager = ServedIndex.load(path)
        lazy = ServedIndex.load(path,
                                config=ServingConfig(mmap=True))
        assert lazy.mmapped and not eager.mmapped
        assert np.array_equal(eager.rank_batch(queries, top_k=7),
                              lazy.rank_batch(queries, top_k=7))
        assert np.array_equal(
            eager.rank_batch(queries, top_k=model.n_documents),
            lazy.rank_batch(queries, top_k=model.n_documents))

    def test_mmap_bundle_arrays_are_readonly_maps(self, model,
                                                  tmp_path):
        path = ServedIndex(model).save(tmp_path / "b")
        bundle = read_bundle(path, mmap=True)
        assert isinstance(bundle.u, np.memmap)
        assert not bundle.u.flags.writeable
        assert isinstance(bundle.doc_unit, np.memmap)

    def test_mmap_properties_work_without_materialising(self, model,
                                                        tmp_path):
        path = ServedIndex(model).save(tmp_path / "b")
        lazy = ServedIndex.load(path,
                                config=ServingConfig(mmap=True))
        assert lazy.rank == model.rank
        assert lazy.n_documents == model.n_documents
        assert 0.0 <= lazy.drift <= 1.0
        assert lazy.mmapped  # still lazy after metadata reads

    def test_mutation_materialises_then_behaves(self, model, rng,
                                                tmp_path):
        path = ServedIndex(model).save(tmp_path / "b")
        lazy = ServedIndex.load(path,
                                config=ServingConfig(mmap=True))
        lazy.add_documents(rng.random((model.n_terms, 2)))
        assert not lazy.mmapped
        assert lazy.n_documents == model.n_documents + 2

    def test_materialised_index_saves_over_own_bundle(self, model,
                                                      rng, tmp_path):
        # Saving over the same directory the mmap reads from must not
        # corrupt anything: write_bundle renames new files over the
        # mapped ones instead of truncating them.
        path = ServedIndex(model).save(tmp_path / "b")
        lazy = ServedIndex.load(path,
                                config=ServingConfig(mmap=True))
        lazy.add_documents(rng.random((model.n_terms, 1)))
        lazy.save(path)
        reloaded = ServedIndex.load(path)
        assert reloaded.n_documents == model.n_documents + 1

    def test_mutation_keeps_the_mapped_factors(self, model, rng,
                                               tmp_path):
        # The writer adopts the bundle's maps as they are; a fold-in
        # concatenates onto the store and copies nothing.
        path = ServedIndex(model).save(tmp_path / "b")
        mapped = ServedIndex.load(path,
                                  config=ServingConfig(mmap=True))
        mapped.add_documents(rng.random((model.n_terms, 3)))
        assert isinstance(mapped.model.term_basis, np.memmap)
        assert not mapped.model.term_basis.flags.writeable

    def test_save_by_another_index_keeps_mapped_rankings(
            self, model, rng, queries, tmp_path):
        # A second index loads the same bundle, writes into it, and
        # saves over it; the first keeps the bytes it mapped.
        path = ServedIndex(model).save(tmp_path / "b")
        uncached = ServingConfig(mmap=True, cache_capacity=0)
        mapped = ServedIndex.load(path, config=uncached)
        before = mapped.rank_batch(queries, top_k=10)
        other = ServedIndex.load(path, config=ServingConfig(mmap=True))
        other.add_documents(rng.random((model.n_terms, 25)))
        other.refit()
        other.save(path)
        assert ServedIndex.load(path).n_documents \
            == model.n_documents + 25
        assert np.array_equal(mapped.rank_batch(queries, top_k=10),
                              before)

    def test_save_publishes_every_file_by_rename(self, model,
                                                 tmp_path):
        path = ServedIndex(model).save(tmp_path / "b")
        inodes = {f.name: f.stat().st_ino for f in path.iterdir()}
        ServedIndex.load(path).save(path)
        # Renamed, not rewritten in place: every file is a new inode,
        # and no staging file is left beside the seven bundle files.
        names = sorted(f.name for f in path.iterdir())
        assert names == sorted([*read_manifest(path)["checksums"],
                                "manifest.json"])
        assert len(names) == 7
        assert all(f.stat().st_ino != inodes[f.name]
                   for f in path.iterdir())


class TestColdStartRss:
    def test_mmap_peak_rss_well_below_eager(self, tmp_path):
        # Regression guard for the O(manifest) cold start: on a
        # moderate bundle (~37 MB of arrays) the growth of the mmap
        # child's peak RSS during the load must stay under a quarter
        # of the eager child's, the scale bench's own claim.  Growth,
        # not the whole peak: the interpreter and numpy alone hold
        # ~36 MB, about what an eager load adds, so whole peaks sit
        # near a ratio of 0.5 whatever the mmap load does.  A mapped
        # load grows the peak by ~1 MB against ~38 MB eager, so a
        # quarter is still noise-proof.  Fresh subprocesses because
        # peak RSS is a process-lifetime high-water mark, and VmHWM
        # (not ru_maxrss) because the rusage counter survives
        # fork+exec and would report the parent's peak.
        rng = np.random.default_rng(0)
        basis, _ = np.linalg.qr(rng.standard_normal((512, 32)))
        from repro.linalg.svd import SVDResult

        singular = np.sort(rng.uniform(1.0, 10.0, 32))[::-1].copy()
        vt = rng.standard_normal((32, 50_000)) / np.sqrt(32.0)
        frob = float(np.sum(singular**2) * 1.25)
        model = LSIModel(SVDResult(np.ascontiguousarray(basis),
                                   singular, vt, frob))
        path = ServedIndex(model).save(tmp_path / "b")

        child = r"""
import resource, sys
from repro.serving import ServedIndex, ServingConfig


def peak_rss_kb():
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


before = peak_rss_kb()
index = ServedIndex.load(
    sys.argv[1], config=ServingConfig(mmap=(sys.argv[2] == "mmap")))
print(peak_rss_kb() - before)
"""
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep \
            + env.get("PYTHONPATH", "")
        growth = {}
        for mode in ("eager", "mmap"):
            proc = subprocess.run(
                [sys.executable, "-c", child, str(path), mode],
                capture_output=True, text=True, env=env)
            assert proc.returncode == 0, proc.stderr
            growth[mode] = int(proc.stdout.strip())
        assert growth["mmap"] < 0.25 * growth["eager"], growth
