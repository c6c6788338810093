"""The paper kernels reject malformed sizes and seeds with a typed error."""

import pytest

from repro.algorithms import FFT, BitonicSort, SmithWaterman
from repro.errors import ConfigError


@pytest.mark.parametrize(
    "make",
    [
        lambda: FFT(4.0),
        lambda: FFT(16, seed=-1),
        lambda: SmithWaterman(3.5, 4),
        lambda: SmithWaterman(True, 4),
        lambda: SmithWaterman(4, 4, seed=-3),
        lambda: BitonicSort(16.0),
        lambda: BitonicSort(16, seed="x"),
    ],
    ids=[
        "fft-float-size",
        "fft-negative-seed",
        "swat-float-length",
        "swat-bool-length",
        "swat-negative-seed",
        "bitonic-float-size",
        "bitonic-str-seed",
    ],
)
def test_bad_size_or_seed_raises_config_error(make):
    with pytest.raises(ConfigError):
        make()
