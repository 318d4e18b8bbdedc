"""Property and unit tests for the kernel's event queue (repro.sim.eventq).

The contract both the DES kernel and the fleet clock rely on: entries
dispatch in ``(time, push order)`` order, and cancelled entries are
skipped. The randomized test checks a heap against a plain sorted list.
"""

import random

import pytest

from repro.sim import Simulator, Timeout
from repro.sim.eventq import HeapEventQueue


class _Obj:
    """Minimal queue-entry payload (the ScheduledCall protocol)."""

    __slots__ = ("time", "cancelled", "tag")

    def __init__(self, time, tag):
        self.time = time
        self.cancelled = False
        self.tag = tag


def _drain(queue, limit=None):
    out = []
    while True:
        entry = queue.pop_due(limit)
        if entry is None:
            return out
        out.append((entry[0], entry[1], entry[2].tag))


@pytest.mark.parametrize("seed", range(8))
def test_random_schedule_cancel_sequences_dispatch_identically(seed):
    rng = random.Random(seed)
    queue = HeapEventQueue()
    reference = []  # (time, push index, obj), sorted on every pop
    made = {}
    dispatched, expected = [], []
    now = 0.0
    for step in range(600):
        op = rng.random()
        if op < 0.70 or not made:
            t = now + rng.choice((0.0, rng.uniform(0.0, 0.9),
                                  rng.uniform(0.9, 5.0), rng.uniform(5.0, 600.0)))
            obj = made[step] = _Obj(t, step)
            queue.push(t, obj)
            reference.append((t, step, obj))
        elif op < 0.85:
            made[rng.choice(list(made))].cancelled = True
        else:
            now += rng.uniform(0.1, 3.0)
            dispatched.extend(tag for _t, _s, tag in _drain(queue, now))
            reference.sort(key=lambda e: (e[0], e[1]))
            due = [e for e in reference if e[0] <= now]
            reference = reference[len(due):]
            expected.extend(e[1] for e in due if not e[2].cancelled)
    dispatched.extend(tag for _t, _s, tag in _drain(queue))
    reference.sort(key=lambda e: (e[0], e[1]))
    expected.extend(e[1] for e in reference if not e[2].cancelled)
    assert dispatched == expected


@pytest.mark.parametrize("seed", range(4))
def test_equal_timestamps_dispatch_fifo(seed):
    rng = random.Random(1000 + seed)
    queue = HeapEventQueue()
    times = [rng.choice((1.0, 2.0, 2.0, 2.0, 7.5, 120.0)) for _ in range(200)]
    for i, t in enumerate(times):
        queue.push(t, _Obj(t, i))
    out = _drain(queue)
    assert [t for t, _s, _tag in out] == sorted(times)
    # Within one timestamp, tags (insertion order) must be ascending.
    for t in set(times):
        tags = [tag for tt, _seq, tag in out if tt == t]
        assert tags == sorted(tags)


def test_pop_due_respects_limit():
    queue = HeapEventQueue()
    queue.push(1.0, _Obj(1.0, "a"))
    queue.push(10.0, _Obj(10.0, "b"))
    entry = queue.pop_due(5.0)
    assert entry is not None and entry[2].tag == "a"
    assert queue.pop_due(5.0) is None
    assert queue.pop_due(None)[2].tag == "b"


def _workload(sim):
    seen = []

    def proc(i):
        period = 0.7 + 0.31 * i
        for tick in range(40):
            yield Timeout(period)
            seen.append((round(sim.now, 9), i, tick))
            if tick % 5 == 0:
                call = sim.schedule(period * 3, seen.append, ("never", i))
                call.cancel()

    for i in range(12):
        sim.spawn(proc(i), name=f"p{i}")
    return seen


def test_run_loop_dispatches_like_step():
    # Simulator.run inlines HeapEventQueue.pop_due; Simulator.step calls it.
    sim = Simulator()
    seen = _workload(sim)
    sim.run()

    stepped = Simulator()
    step_seen = _workload(stepped)
    while stepped.step():
        pass
    assert seen == step_seen
    assert sim.now == stepped.now
    assert ("never", 0) not in seen
