"""The ``with``-scopes of the reader--writer lock.

``read_locked()`` and ``write_locked()`` hand out one slotted scope per
side, built with the lock.  The scope keeps no state of its own -- the
lock tracks every thread's depth -- so one object serves every ``with``,
nested or concurrent, and an exception inside a block still releases.
"""

from __future__ import annotations

import threading

import pytest

from repro.storage.rwlock import ReadWriteLock

JOIN_S = 10.0


@pytest.fixture
def lock():
    return ReadWriteLock()


def test_each_side_reuses_one_scope(lock):
    assert lock.read_locked() is lock.read_locked()
    assert lock.write_locked() is lock.write_locked()
    assert lock.read_locked() is not lock.write_locked()


def test_scopes_keep_no_state_of_their_own(lock):
    for scope in (lock.read_locked(), lock.write_locked()):
        assert not hasattr(scope, "__dict__")
        with pytest.raises(AttributeError):
            scope.depth = 1


@pytest.mark.parametrize("side", ["read", "write"])
def test_an_exception_releases_the_scope(lock, side):
    scope = lock.read_locked() if side == "read" else lock.write_locked()
    with pytest.raises(ValueError):
        with scope:
            assert lock.held_by_current_thread()
            raise ValueError("inside the block")
    assert not lock.held_by_current_thread()
    assert lock.active_readers == 0
    assert not lock.write_held


def test_nested_entries_of_one_scope_unwind_in_order(lock):
    scope = lock.read_locked()
    with scope:
        with scope:
            with lock.read_locked():
                assert lock.active_readers == 1
        assert lock.held_by_current_thread()
    assert not lock.held_by_current_thread()


def test_one_scope_serves_concurrent_readers(lock):
    scope = lock.read_locked()
    inside, leave = threading.Barrier(2, timeout=JOIN_S), threading.Event()
    seen = []

    def reader():
        with scope:
            inside.wait()
            leave.wait(JOIN_S)

    thread = threading.Thread(target=reader)
    thread.start()
    with scope:
        inside.wait()
        seen.append(lock.active_readers)
        leave.set()
    thread.join(JOIN_S)
    assert not thread.is_alive()
    assert seen == [2]
    assert lock.active_readers == 0


def test_instance_wrappers_see_every_entry(lock):
    """A wrapper set on the lock instance (a tracer's) wraps each scope."""
    calls = []
    for name in ("acquire_read", "release_read", "acquire_write", "release_write"):
        inner = getattr(lock, name)

        def wrapper(_name=name, _inner=inner):
            calls.append(_name)
            _inner()

        setattr(lock, name, wrapper)
    with lock.write_locked():
        with lock.read_locked():
            pass
    with lock.read_locked():
        pass
    assert calls == [
        "acquire_write", "acquire_read", "release_read", "release_write",
        "acquire_read", "release_read",
    ]
