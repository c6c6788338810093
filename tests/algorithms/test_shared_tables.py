"""FFT and bitonic sort share read-only round tables per problem size."""

import pytest

from repro import run
from repro.algorithms import FFT, BitonicSort, SmithWaterman
from repro.algorithms.bitonic import _step_tables
from repro.algorithms.fft import _stage_tables

from tests.algorithms.conftest import run_rounds_serially


def _all_tables(algo):
    return [algo._table(r) for r in range(algo.num_rounds())]


@pytest.mark.parametrize(
    "make", [lambda: FFT(64, seed=1), lambda: BitonicSort(64, seed=1)],
    ids=["fft", "bitonic"],
)
def test_same_size_shares_table_arrays(make):
    a, b = make(), make()
    for ta, tb in zip(_all_tables(a), _all_tables(b)):
        for xa, xb in zip(ta, tb):
            assert xa is xb


@pytest.mark.parametrize(
    "make", [lambda: FFT(64), lambda: BitonicSort(64)], ids=["fft", "bitonic"]
)
def test_shared_arrays_are_read_only(make):
    for table in _all_tables(make()):
        for array in table:
            with pytest.raises(ValueError):
                array[0] = array[1]


def test_fft_size_and_direction_get_their_own_tables():
    base = FFT(64)._table(0)
    assert FFT(128)._table(0)[0] is not base[0]
    inverse = FFT(64, inverse=True)._table(0)
    assert inverse[2] is not base[2]
    assert (inverse[2] == base[2].conj()).all()


def test_bitonic_size_gets_its_own_tables():
    assert BitonicSort(64)._table(0)[0] is not BitonicSort(128)._table(0)[0]


@pytest.mark.parametrize(
    "make, cache",
    [
        (lambda n: FFT(n, seed=2), _stage_tables),
        (lambda n: BitonicSort(n, seed=2), _step_tables),
    ],
    ids=["fft", "bitonic"],
)
def test_interleaved_sizes_verify_and_cache_holds_one(make, cache):
    small, large = make(32), make(256)
    # Each instance keeps its own size's tables after the cache moved on.
    for algo in (small, large, small, large):
        run_rounds_serially(algo, 3)
        algo.verify()
    for algo in (small, make(128), large):
        assert run(algo, "gpu-lockfree", 4).verified
    assert cache.cache_info().currsize == 1


def test_fft_directions_interleave():
    fwd, inv = FFT(64, seed=4), FFT(64, seed=4, inverse=True)
    for algo in (fwd, inv, fwd):
        run_rounds_serially(algo, 5)
        algo.verify()


def test_swat_tables_stay_per_instance():
    a, b = SmithWaterman(8, 8), SmithWaterman(8, 8, match=3)
    assert a._tables is not b._tables
    assert (a._diagonal(6)[2] != b._diagonal(6)[2]).any()
    run_rounds_serially(a, 2)
    run_rounds_serially(b, 2)
    a.verify()
    b.verify()
