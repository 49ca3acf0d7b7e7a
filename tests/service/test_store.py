"""Tests for the crash-safe persistent store."""

import json
import os
import sys
import threading

import pytest

from repro.analysis.instances import InstanceSpec
from repro.service.store import (
    KilledWriter,
    PersistentStore,
    QUARANTINE_DIR,
    STORE_SCHEMA,
    StoreStats,
    _Hooks,
    spec_key,
)

SPEC = InstanceSpec("grid", (5, 5), partition=("voronoi", 5, 1))


@pytest.fixture
def store(tmp_path):
    return PersistentStore(tmp_path / "store")


def test_put_get_roundtrip(store):
    key = spec_key("mst", SPEC, seed=0)
    payload = {"weight": 42, "edges": [1, 2, 3]}
    assert store.put(key, payload)
    assert store.get(key) == payload
    assert store.stats.writes == 1


def test_miss_returns_none(store):
    assert store.get(spec_key("mst", SPEC, seed=1)) is None
    assert store.stats.misses == 1


def test_entry_file_layout(store):
    key = spec_key("mst", SPEC)
    store.put(key, {"x": 1})
    path = store.path_for(key)
    assert path.exists()
    assert path.parent.name == key[:2]
    envelope = json.loads(path.read_text())
    assert envelope["schema"] == STORE_SCHEMA
    assert envelope["key"] == key
    assert set(envelope) == {"schema", "key", "sha256", "payload"}


def test_disk_survives_process_restart(tmp_path, store):
    key = spec_key("mst", SPEC)
    store.put(key, {"x": 1})
    reopened = PersistentStore(store.root)
    assert reopened.get(key) == {"x": 1}
    assert reopened.stats.hits_disk == 1


def test_memory_layer_serves_repeat_reads(store):
    key = spec_key("mst", SPEC)
    store.put(key, {"x": 1})
    assert store.get(key) == {"x": 1}
    assert store.stats.hits_memory == 1
    assert store.stats.hits_disk == 0


def test_memory_layer_is_lru_bounded(tmp_path):
    store = PersistentStore(tmp_path / "s", memory_entries=2)
    keys = [spec_key("mst", SPEC, seed=i) for i in range(3)]
    for i, key in enumerate(keys):
        store.put(key, {"i": i})
    assert store.stats.evictions == 1
    # The evicted (oldest) key falls through to disk, the rest stay hot.
    store.get(keys[0])
    assert store.stats.hits_disk == 1
    store.get(keys[2])
    assert store.stats.hits_memory == 1


@pytest.mark.parametrize(
    "damage",
    [
        lambda raw: raw[: len(raw) // 2],  # truncation
        lambda raw: b"",  # emptied
        lambda raw: b"not json at all",  # garbage
        lambda raw: raw.replace(b'"payload"', b'"hijack!"'),  # structure
    ],
)
def test_corruption_quarantines_and_misses(store, damage):
    key = spec_key("mst", SPEC)
    store.put(key, {"x": 1})
    path = store.path_for(key)
    path.write_bytes(damage(path.read_bytes()))
    store.forget_memory()
    assert store.get(key) is None
    assert store.stats.quarantined == 1
    assert not path.exists()
    assert list((store.root / QUARANTINE_DIR).iterdir())
    # Recompute-and-repopulate works after quarantine.
    assert store.put(key, {"x": 2})
    store.forget_memory()
    assert store.get(key) == {"x": 2}


def test_checksum_mismatch_is_corruption(store):
    key = spec_key("mst", SPEC)
    store.put(key, {"x": 1})
    path = store.path_for(key)
    envelope = json.loads(path.read_text())
    envelope["payload"] = {"x": 999}  # checksum no longer matches
    path.write_text(json.dumps(envelope))
    store.forget_memory()
    assert store.get(key) is None
    assert store.stats.quarantined == 1


def test_key_mismatch_is_corruption(store):
    a = spec_key("mst", SPEC, seed=0)
    b = spec_key("mst", SPEC, seed=1)
    store.put(a, {"x": 1})
    # Simulate an entry landing under the wrong name.
    target = store.path_for(b)
    target.parent.mkdir(parents=True, exist_ok=True)
    os.replace(store.path_for(a), target)
    store.forget_memory()
    assert store.get(b) is None
    assert store.stats.quarantined == 1


def test_killed_writer_leaves_old_entry_intact(tmp_path):
    state = {"kill": False}

    def during_commit(key, tmp):
        if state["kill"]:
            raise KilledWriter("boom")

    store = PersistentStore(
        tmp_path / "s", hooks=_Hooks(during_commit=during_commit)
    )
    key = spec_key("mst", SPEC)
    store.put(key, {"x": "old"})
    before = store.path_for(key).read_bytes()
    state["kill"] = True
    with pytest.raises(KilledWriter):
        store.put(key, {"x": "new"})
    assert store.path_for(key).read_bytes() == before
    # The orphan temp file is swept by the next open (restart).
    assert list(store.root.glob("*/*.tmp"))
    reopened = PersistentStore(store.root)
    assert reopened.stats.swept_tmp == 1
    assert not list(store.root.glob("*/*.tmp"))
    assert reopened.get(key) == {"x": "old"}


def test_io_error_on_read_is_a_miss(tmp_path):
    def before_read(key, path):
        raise OSError("injected")

    store = PersistentStore(tmp_path / "s", hooks=_Hooks(before_read=before_read))
    key = spec_key("mst", SPEC)
    store.put(key, {"x": 1})
    store.forget_memory()
    assert store.get(key) is None
    assert store.stats.io_errors == 1
    # The entry itself is untouched — not quarantined.
    assert store.stats.quarantined == 0
    assert store.path_for(key).exists()


def test_io_error_on_write_returns_false(tmp_path):
    def before_write(key, path):
        raise OSError("injected")

    store = PersistentStore(tmp_path / "s", hooks=_Hooks(before_write=before_write))
    key = spec_key("mst", SPEC)
    assert store.put(key, {"x": 1}) is False
    assert store.stats.io_errors == 1
    assert not store.path_for(key).exists()


def test_verify_scans_and_quarantines(store):
    keys = [spec_key("mst", SPEC, seed=i) for i in range(3)]
    for i, key in enumerate(keys):
        store.put(key, {"i": i})
    store.path_for(keys[1]).write_bytes(b"damaged")
    intact, quarantined = store.verify()
    assert intact == 2
    assert quarantined == 1
    assert store.entry_count() == 2


def test_spec_key_is_content_addressed():
    base = spec_key("mst", SPEC, seed=0)
    assert base == spec_key("mst", InstanceSpec("grid", (5, 5), partition=("voronoi", 5, 1)), seed=0)
    assert base != spec_key("mincut", SPEC, seed=0)
    assert base != spec_key("mst", SPEC, seed=1)
    assert base != spec_key(
        "mst", InstanceSpec("grid", (5, 5), partition=("voronoi", 5, 2)), seed=0
    )
    assert base != spec_key(
        "mst",
        InstanceSpec("grid", (5, 5), weights=("unique", 1), partition=("voronoi", 5, 1)),
        seed=0,
    )
    # Keyword order does not matter; values do.
    assert spec_key("q", SPEC, a=1, b=2) == spec_key("q", SPEC, b=2, a=1)
    assert len(base) == 64 and all(c in "0123456789abcdef" for c in base)


def test_store_stats_do_not_lose_updates_under_threads():
    stats = StoreStats()
    threads = [
        threading.Thread(
            target=lambda: [stats.bump("hits_memory") for _ in range(50_000)]
        )
        for _ in range(8)
    ]
    # Switch threads as often as the interpreter allows, so an unlocked
    # read-modify-write would drop updates.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert stats.as_dict()["hits_memory"] == 8 * 50_000
    assert "_lock" not in stats.as_dict()
    stats.bump("swept_tmp", 3)
    assert stats.swept_tmp == 3
