"""The paper kernels reject malformed parameters with a typed error."""

import pytest

from repro.algorithms import FFT, BitonicSort, SmithWaterman
from repro.errors import ConfigError


@pytest.mark.parametrize(
    "make",
    [
        lambda: FFT(4.0),
        lambda: FFT(16, seed=-1),
        lambda: FFT(16, inverse="no"),
        lambda: FFT(16, inverse=[]),
        lambda: FFT(16, inverse=1),
        lambda: SmithWaterman(3.5, 4),
        lambda: SmithWaterman(True, 4),
        lambda: SmithWaterman(4, 4, seed=-3),
        lambda: SmithWaterman(8, 8, match="2"),
        lambda: SmithWaterman(8, 8, match=2.5),
        lambda: SmithWaterman(8, 8, match=True),
        lambda: SmithWaterman(8, 8, mismatch=-1.0),
        lambda: SmithWaterman(8, 8, gap_open=None),
        lambda: SmithWaterman(8, 8, gap_open=-1),
        lambda: SmithWaterman(8, 8, gap_extend=False),
        lambda: SmithWaterman(8, 8, gap_extend=-2),
        lambda: BitonicSort(16.0),
        lambda: BitonicSort(16, seed="x"),
    ],
    ids=[
        "fft-float-size",
        "fft-negative-seed",
        "fft-str-inverse",
        "fft-unhashable-inverse",
        "fft-int-inverse",
        "swat-float-length",
        "swat-bool-length",
        "swat-negative-seed",
        "swat-str-match",
        "swat-float-match",
        "swat-bool-match",
        "swat-float-mismatch",
        "swat-none-gap-open",
        "swat-negative-gap-open",
        "swat-bool-gap-extend",
        "swat-negative-gap-extend",
        "bitonic-float-size",
        "bitonic-str-seed",
    ],
)
def test_bad_size_or_seed_raises_config_error(make):
    with pytest.raises(ConfigError):
        make()
