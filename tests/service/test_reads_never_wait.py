"""Barrier tests of the publication's read/ingest invariant.

An ingest holds one mutex that no reader takes and, before releasing
it, replaces the publication's acknowledged head in one assignment.  So
a read never waits for an ingest and reports the last acknowledged
version; an ingest never waits for a snapshot build; and a query issued
after an ingest's ack reports that version or a later one.

Each test holds one side at a known point with events, never sleeps,
and joins every thread with a timeout, so a read that blocks fails the
test instead of hanging it.
"""

from __future__ import annotations

import queue
import threading

import pytest

from repro.exceptions import ReproError
from repro.query.predicates import CountQuery
from repro.service import registry as registry_module
from repro.service.frontend import QueryFrontend
from repro.service.registry import PublicationRegistry

from tests.service.conftest import make_rows

L = 4
TIMEOUT = 10


def start(target, *args) -> tuple[threading.Thread, list]:
    """Run ``target`` on a daemon thread; its result or exception lands
    in the returned list."""
    out: list = []

    def run():
        try:
            out.append(target(*args))
        except BaseException as exc:  # noqa: BLE001 - asserted below
            out.append(exc)
    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    return thread, out


def joined(thread: threading.Thread, out: list):
    thread.join(timeout=TIMEOUT)
    assert not thread.is_alive(), "thread still blocked"
    assert not isinstance(out[0], BaseException), out[0]
    return out[0]


@pytest.fixture()
def served(schema):
    registry = PublicationRegistry()
    publication = registry.create("p", schema, l=L)
    publication.ingest(make_rows(40))
    frontend = QueryFrontend(registry)
    yield publication, frontend
    frontend.close()


def test_reads_answer_the_previous_version_during_an_ingest(
        served, schema, monkeypatch):
    """The ingest is held after its groups sealed but before it acks:
    the anatomizer has run ahead, yet every read reports (and builds)
    the acknowledged version, without waiting for the ingest."""
    publication, frontend = served
    before = publication.version
    anatomizer = publication._anatomizer
    insert, sealed, release = (anatomizer.insert_codes,
                               threading.Event(), threading.Event())

    def held_insert(rows):
        count = insert(rows)
        sealed.set()
        release.wait(TIMEOUT)
        return count

    monkeypatch.setattr(anatomizer, "insert_codes", held_insert)
    query = CountQuery(schema, {"A": range(25)}, list(range(10)))

    def reads():
        return (publication.snapshot().version,
                publication.stats()["version"],
                frontend.query("p", query, timeout=TIMEOUT).version,
                publication.ground_truth_table().n)

    ingest = start(publication.ingest, make_rows(40, start=40))
    try:
        assert sealed.wait(TIMEOUT)
        assert anatomizer.version > before
        versions = joined(*start(reads))
        with pytest.raises(ReproError, match="no release at version"):
            publication.release_at(before + 1)
    finally:
        release.set()
    assert versions == (before, before, before, before * L)
    acked = joined(*ingest)["version"]
    assert acked == anatomizer.version > before
    assert publication.snapshot().version == acked


def test_ingest_acks_while_a_snapshot_build_is_held(served,
                                                    monkeypatch):
    publication, _ = served
    before = publication.version
    audit, building, release = (registry_module.audit_publication,
                                threading.Event(), threading.Event())

    def held_audit(*args, **kwargs):
        building.set()
        release.wait(TIMEOUT)
        return audit(*args, **kwargs)

    monkeypatch.setattr(registry_module, "audit_publication",
                        held_audit)
    build = start(publication.snapshot)
    try:
        assert building.wait(TIMEOUT)
        acked = joined(*start(publication.ingest,
                              make_rows(40, start=40)))
        assert publication.stats()["version"] == acked["version"] \
            > before
    finally:
        release.set()
    assert joined(*build).version == before
    assert publication.snapshot().version == acked["version"]


def test_query_after_ack_reports_that_version_or_later(served, schema):
    """A writer hands each acknowledged version to readers that query
    right after it, while other readers keep building older
    snapshots."""
    publication, frontend = served
    query = CountQuery(schema, {"A": range(25)}, list(range(10)))
    inboxes = [queue.Queue() for _ in range(3)]
    stop = threading.Event()

    def after_ack(inbox):
        seen = []
        while (acked := inbox.get(timeout=TIMEOUT)) is not None:
            seen.append((acked, frontend.query("p", query,
                                               timeout=TIMEOUT).version))
        return seen

    def background():
        count = 0
        while not stop.is_set():
            frontend.query("p", query, timeout=TIMEOUT)
            count += 1
        return count

    readers = [start(after_ack, inbox) for inbox in inboxes]
    noise = [start(background) for _ in range(2)]
    try:
        for wave in range(12):
            acked = publication.ingest(
                make_rows(24, start=100 + 24 * wave))["version"]
            for inbox in inboxes:
                inbox.put(acked)
    finally:
        for inbox in inboxes:
            inbox.put(None)
        stop.set()
    for reader in readers:
        seen = joined(*reader)
        assert len(seen) == 12
        assert all(served_at >= acked for acked, served_at in seen)
    for thread in noise:
        joined(*thread)
