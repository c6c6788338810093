"""Tests for the CUDA-flavored front-end."""

import numpy as np

from repro.cudaapi import CudaSession
from repro.model.kernel_time import cpu_explicit_time, cpu_implicit_time


def scale_kernel(ctx, data, factor):
    lo = ctx.block_id * (len(data) // ctx.num_blocks)
    hi = lo + len(data) // ctx.num_blocks

    def work():
        data.data[lo:hi] *= factor

    yield from ctx.compute(500, work)


class TestMemory:
    def test_malloc_memcpy_roundtrip(self):
        cuda = CudaSession()
        d = cuda.cuda_malloc("x", 64)
        host_data = np.arange(64.0)
        cuda.cuda_memcpy_h2d(d, host_data)
        back = cuda.cuda_memcpy_d2h(d)
        assert np.array_equal(back, host_data)
        assert cuda.now_ns > 0  # transfers took simulated time

    def test_free(self):
        cuda = CudaSession()
        d = cuda.cuda_malloc("x", 8)
        cuda.cuda_free(d)
        assert "x" not in cuda.device.memory


class TestKernels:
    def test_launch_is_asynchronous(self):
        cuda = CudaSession()
        d = cuda.cuda_malloc("x", 64, np.float64)
        cuda.cuda_memcpy_h2d(d, np.ones(64))
        before = cuda.now_ns
        handle = cuda.launch_kernel(
            scale_kernel, 4, 64, args=dict(data=d, factor=2.0)
        )
        launched_at = cuda.now_ns
        assert not handle.done  # the call returned mid-kernel
        cuda.cuda_thread_synchronize()
        assert handle.done
        assert cuda.now_ns > launched_at > before
        assert np.allclose(d.data, 2.0)

    def test_fig2b_implicit_pipeline_timing(self):
        """Back-to-back launches pipeline, as in paper Fig. 2(b)/Eq. 4."""
        cuda = CudaSession()
        d = cuda.cuda_malloc("x", 64)
        cuda.cuda_memcpy_h2d(d, np.ones(64))
        t0 = cuda.now_ns
        for _ in range(5):
            cuda.launch_kernel(scale_kernel, 4, 64, args=dict(data=d, factor=1.0))
        cuda.cuda_thread_synchronize()
        elapsed = cuda.now_ns - t0
        assert elapsed == cpu_implicit_time(5, 500, cuda.device.config.timings)

    def test_fig2a_explicit_timing(self):
        """Synchronize between launches: every launch exposed (Eq. 3)."""
        cuda = CudaSession()
        d = cuda.cuda_malloc("x", 64)
        cuda.cuda_memcpy_h2d(d, np.ones(64))
        t0 = cuda.now_ns
        for _ in range(5):
            cuda.launch_kernel(scale_kernel, 4, 64, args=dict(data=d, factor=1.0))
            cuda.cuda_thread_synchronize()
        elapsed = cuda.now_ns - t0
        assert elapsed == cpu_explicit_time(5, 500, cuda.device.config.timings)


class TestStreamsAndEvents:
    def test_event_timing(self):
        cuda = CudaSession()
        d = cuda.cuda_malloc("x", 64)
        start = cuda.cuda_event_create("start")
        stop = cuda.cuda_event_create("stop")
        cuda.cuda_event_record(start)
        cuda.launch_kernel(scale_kernel, 2, 32, args=dict(data=d, factor=3.0))
        cuda.cuda_event_record(stop)
        cuda.cuda_event_synchronize(stop)
        ms = cuda.cuda_event_elapsed_time(start, stop)
        assert ms > 0

    def test_stream_create_and_synchronize(self):
        cuda = CudaSession()
        d = cuda.cuda_malloc("x", 64)
        s = cuda.cuda_stream_create("s1")
        handle = cuda.launch_kernel(
            scale_kernel, 2, 32, args=dict(data=d, factor=1.0), stream=s
        )
        cuda.cuda_stream_synchronize(s)
        assert handle.done


class TestGridSyncThroughCudaApi:
    def test_device_barrier_in_user_kernel(self):
        """A user writes a persistent kernel with a grid barrier using
        the strategy API, launched through the CUDA façade."""
        from repro.sync import get_strategy

        cuda = CudaSession()
        flags = cuda.cuda_malloc("flags", 8, np.int64)
        strategy = get_strategy("gpu-lockfree")
        strategy.prepare(cuda.device, 8)
        order = []

        def persistent(ctx):
            for phase in range(3):
                yield from ctx.compute(
                    100, lambda p=phase: order.append((p, ctx.block_id))
                )
                yield from strategy.barrier(ctx, phase)

        cuda.launch_kernel(
            persistent,
            8,
            64,
            shared_mem=strategy.shared_mem_request(cuda.device.config),
        )
        cuda.cuda_thread_synchronize()
        phases = [p for p, _b in order]
        assert phases == sorted(phases)  # barrier kept phases ordered
        assert len(order) == 24
