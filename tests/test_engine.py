import numpy as np
import pytest

from aqmsim.engine import MS, US, Simulator, transmit_delay
from aqmsim.rng import stream


def test_pop_order_ties_break_by_insertion():
    sim = Simulator()
    order = []
    sim.schedule(5, order.append, "t5")
    sim.schedule(3, order.append, "t3-first")
    sim.schedule(3, order.append, "t3-second")
    sim.run(5)
    assert order == ["t3-first", "t3-second", "t5"]


def test_one_argument_or_none_and_ties_in_insertion_order():
    # `None` is an argument like any other; an event scheduled without one
    # is called with nothing.
    sim = Simulator()
    calls = []
    sim.schedule(2, calls.append, "t2")
    sim.schedule(1, calls.append, None)
    sim.schedule(1, lambda: calls.append("no argument"))
    sim.schedule(1, calls.append, ())
    sim.run(2)
    assert calls == [None, "no argument", (), "t2"]


def test_empty_queue_signals_end():
    sim = Simulator()
    assert len(sim) == 0
    sim.schedule(3, lambda: None)
    assert len(sim) == 1
    sim.run(10)
    assert len(sim) == 0 and sim.now == 10


def test_run_stops_at_t_end_and_keeps_the_next_event_pending():
    # `run` pops each event before it reads its time: an event at exactly
    # t_end runs, the first one past it goes back on the heap, and ties
    # scheduled before and during a run keep insertion order across two
    # consecutive runs.
    sim = Simulator()
    order = []

    def schedule_during(label):
        order.append(label)
        sim.schedule(20, order.append, "t20-during")
        sim.schedule(10, order.append, "t10-during")

    sim.schedule(20, order.append, "t20-before")
    sim.schedule(10, order.append, "t10-before")
    sim.schedule(10, schedule_during, "t10-schedules")
    sim.schedule(11, order.append, "t11")
    sim.run(10)
    assert order == ["t10-before", "t10-schedules", "t10-during"]
    assert sim.now == 10
    assert len(sim) == 3  # t11 was popped and pushed back, and still counts
    sim.run(15)
    assert order[3:] == ["t11"] and sim.now == 15 and len(sim) == 2
    sim.schedule(20, order.append, "t20-after")
    sim.run(20)
    assert order[4:] == ["t20-before", "t20-during", "t20-after"]
    assert sim.now == 20 and len(sim) == 0


def test_clock_monotone_and_past_scheduling_fails():
    sim = Simulator()
    sim.schedule(10, lambda: None)
    sim.run(10)
    assert sim.now == 10
    with pytest.raises(RuntimeError):
        sim.schedule(5, lambda: None)


def test_random_event_storm_is_deterministic():
    def storm(seed):
        rng = np.random.default_rng(seed)
        times = rng.integers(0, 10**9, size=100_000)
        sim = Simulator()
        out = []
        for i, t in enumerate(times):
            sim.schedule(int(t), out.append, i)
        sim.run(10**9)
        assert len(sim) == 0
        # Time order, ties in insertion order (a stable sort).
        assert out == sorted(range(len(times)), key=lambda i: times[i])
        return out

    assert storm(42) == storm(42)


def test_transmit_delay_examples():
    assert transmit_delay(1500, 20 * 10**6) == 600_000
    assert transmit_delay(0, 55 * 10**6) == 0
    assert transmit_delay(1500, 100 * 10**6) == 120 * US
    with pytest.raises(ValueError):
        transmit_delay(1500, 0)


def test_transmit_delay_rounds_half_up():
    # 1 byte at 3 bps: 8e9/3 ns = 2666666666.67 -> 2666666667
    assert transmit_delay(1, 3) == 2_666_666_667


def test_rng_streams_repeatable_and_independent():
    a = stream(42, "tuner").random(100)
    b = stream(42, "tuner").random(100)
    c = stream(42, "predictor").random(100)
    assert (a == b).all()
    assert not (a == c).all()


def test_rng_uniform_range_property():
    draws = stream(7, "topology").uniform(1 * MS, 20 * MS, size=10_000)
    assert draws.min() >= 1 * MS
    assert draws.max() <= 20 * MS
