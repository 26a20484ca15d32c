"""Counter-based stream discipline: keyed, reproducible, schedule-free."""
import numpy as np
import pytest

from mfclt.rng import map_replications, stream


def test_same_key_same_stream():
    a = stream(7, "clt", 3).normal(size=100)
    b = stream(7, "clt", 3).normal(size=100)
    assert np.array_equal(a, b)


def test_different_tags_decorrelate():
    a = stream(7, "clt", 3).normal(size=2000)
    b = stream(7, "clt", 4).normal(size=2000)
    c = stream(7, "decompose", 3).normal(size=2000)
    assert abs(np.corrcoef(a, b)[0, 1]) < 0.1
    assert abs(np.corrcoef(a, c)[0, 1]) < 0.1
    assert not np.array_equal(a, b)


def test_seed_separates_everything():
    a = stream(1).normal(size=50)
    b = stream(2).normal(size=50)
    assert not np.array_equal(a, b)


def test_string_and_int_tags_both_work():
    assert np.array_equal(stream(0, "x", 5).normal(size=4),
                          stream(0, "x", 5).normal(size=4))
    # an int tag is used verbatim, not via repr hashing
    assert not np.array_equal(stream(0, 5).normal(size=4),
                              stream(0, "5").normal(size=4))


def test_philox_family():
    gen = stream(0, "anything")
    assert type(gen.bit_generator).__name__ == "Philox"


def test_draw_order_does_not_leak_between_streams():
    # interleaving draws from one stream must not perturb another
    a = stream(9, "a")
    b = stream(9, "b")
    first = a.normal(size=10)
    _ = b.normal(size=1000)
    rest = a.normal(size=10)
    fresh = stream(9, "a").normal(size=20)
    assert np.array_equal(np.concatenate([first, rest]), fresh)


def test_map_replications_same_list_for_any_worker_count():
    def rep(i):
        return stream(5, "rep", i).normal()

    serial = map_replications(rep, 9, 1)
    assert map_replications(rep, 9, 3) == serial
    assert serial == [rep(i) for i in range(9)]
