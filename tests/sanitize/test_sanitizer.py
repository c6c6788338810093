"""The sanitizer itself: reports, determinism, and each detector."""

import pytest

from repro.algorithms import MeanMicrobench
from repro.algorithms.base import VerificationError
from repro.gpu.device import Device
from repro.gpu.host import Host
from repro.gpu.kernel import KernelSpec
from repro.harness.runner import run
from repro.sanitize import (
    BUG_CLASSES,
    Finding,
    SanitizerProbe,
    SkewedMicrobench,
    race_findings,
    sanitize_run,
)


def test_clean_strategy_clean_report():
    report = sanitize_run(strategy="gpu-lockfree", num_blocks=8, schedules=5)
    assert report.clean
    assert report.schedules_run == 5
    assert report.schedules_flagged == 0
    assert report.barrier_events > 0 and report.access_events > 0
    assert "CLEAN" in report.render()


def test_same_seed_renders_identical_report():
    kwargs = dict(strategy="broken-simple-undercount", num_blocks=6, schedules=4)
    a = sanitize_run(seed=99, **kwargs)
    b = sanitize_run(seed=99, **kwargs)
    assert a.render() == b.render()
    assert a.to_json() == b.to_json()
    assert not a.clean


def test_report_serialization_shape():
    report = sanitize_run(strategy="gpu-simple", num_blocks=4, schedules=2)
    d = report.to_dict()
    assert d["strategy"] == "gpu-simple"
    assert d["clean"] is True
    assert d["schedules_run"] == 2
    assert d["findings"] == []


def test_finding_rejects_unknown_kind():
    with pytest.raises(ValueError):
        Finding(kind="not-a-bug-class", message="x")
    assert "data-race" in BUG_CLASSES


def test_verification_failure_becomes_finding():
    class LyingMicro(MeanMicrobench):
        name = "micro-lying"

        def verify(self):
            raise VerificationError("intentionally wrong reference")

    report = sanitize_run(
        LyingMicro(rounds=2, num_blocks_hint=4, threads_per_block=64),
        "gpu-simple",
        4,
        schedules=2,
    )
    assert [f.kind for f in report.findings] == ["verification-failed"]
    assert report.schedules_flagged == 2


def test_data_race_on_shared_cell_detected():
    device = Device()
    arr = device.memory.alloc("racy_cell", 4)

    def program(ctx):
        # Every block writes cell 0 with no barrier anywhere: a textbook
        # inter-block race.
        yield from ctx.gwrite(arr, 0, ctx.block_id)
        yield from ctx.gread(arr, 0)

    probe = SanitizerProbe()
    device.probes.append(probe)
    host = Host(device)
    spec = KernelSpec(
        name="racy", program=program, grid_blocks=4, block_threads=32
    )

    def host_program():
        yield from host.launch(spec)
        yield from host.synchronize()

    device.engine.spawn(host_program(), "host")
    device.run()

    findings = race_findings(probe)
    assert findings, "conflicting unsynchronized writes must be flagged"
    assert all(f.kind == "data-race" for f in findings)
    assert findings[0].details["cell"] == 0
    assert len(findings[0].details["blocks"]) >= 2


def test_disjoint_cells_not_flagged():
    device = Device()
    arr = device.memory.alloc("per_block", 4)

    def program(ctx):
        # Each block owns its own cell: no conflict, no finding.
        yield from ctx.gwrite(arr, ctx.block_id, ctx.block_id)
        yield from ctx.gread(arr, ctx.block_id)

    probe = SanitizerProbe()
    device.probes.append(probe)
    host = Host(device)
    spec = KernelSpec(
        name="disjoint", program=program, grid_blocks=4, block_threads=32
    )

    def host_program():
        yield from host.launch(spec)
        yield from host.synchronize()

    device.engine.spawn(host_program(), "host")
    device.run()

    assert race_findings(probe) == []


def test_barrier_protocol_traffic_is_exempt_from_race_checks():
    """A correct barrier's own stores/atomics must never count as races."""
    probe = SanitizerProbe()
    from repro.harness.runner import run

    run(
        SkewedMicrobench(rounds=3, num_blocks_hint=8, threads_per_block=64),
        "gpu-simple",
        8,
        threads_per_block=64,
        probe=probe,
    )
    assert probe.accesses, "barrier traffic should be observed"
    assert race_findings(probe) == []


def test_skewed_microbench_launches_at_its_own_block_size():
    algorithm = SkewedMicrobench(rounds=2, num_blocks_hint=8, threads_per_block=64)
    assert run(algorithm, "gpu-simple", 8).threads_per_block == 64
