"""Tests for the Kernel facade: executor, faults, COW unmerge, bursts."""

import numpy as np
import pytest

from repro.errors import PageFaultError, ProtectionFaultError
from repro.kernel.syscalls import COW_FAULT_CYCLES
from repro.mem.physical import PAGE_SIZE
from repro.sim.events import AccessPath


def run_program(kernel, sim, process, program, core=0):
    thread = kernel.spawn(process, "t", program, core_id=core)
    sim.run()
    return thread


def test_load_through_page_table(kernel_env):
    machine, sim, kernel = kernel_env
    process = kernel.create_process("p")
    va = process.mmap(1)
    results = []

    def program(cpu):
        r = yield from cpu.load(va)
        results.append(r)

    run_program(kernel, sim, process, program)
    assert results[0].path is AccessPath.DRAM


def test_unmapped_load_faults(kernel_env):
    machine, sim, kernel = kernel_env
    process = kernel.create_process("p")

    def program(cpu):
        yield from cpu.load(0xBAD_0000)

    with pytest.raises(PageFaultError):
        run_program(kernel, sim, process, program)


def test_store_to_readonly_page_faults(kernel_env):
    machine, sim, kernel = kernel_env
    a = kernel.create_process("a")
    b = kernel.create_process("b")
    vas = kernel.map_shared_readonly([a, b])

    def program(cpu):
        yield from cpu.store(vas[0], 1)

    # Explicitly shared read-only library pages are COW-protected, so a
    # write must break the sharing instead of raising.
    run_program(kernel, sim, a, program)
    assert a.translate(vas[0]) != b.translate(vas[1])


def test_store_to_private_readonly_faults(kernel_env):
    machine, sim, kernel = kernel_env
    process = kernel.create_process("p")
    va = process.mmap(1, writable=False)

    def program(cpu):
        yield from cpu.store(va, 1)

    with pytest.raises(ProtectionFaultError):
        run_program(kernel, sim, process, program)


def test_cow_write_unmerges_ksm_page(kernel_env):
    machine, sim, kernel = kernel_env
    a = kernel.create_process("a")
    b = kernel.create_process("b")
    va_a, va_b = kernel.setup_ksm_shared_page(a, b)
    assert a.translate(va_a) == b.translate(va_b)
    latencies = []

    def program(cpu):
        r = yield from cpu.store(va_a, 42)
        latencies.append(r.latency)

    run_program(kernel, sim, a, program)
    assert a.translate(va_a) != b.translate(va_b)
    assert latencies[0] >= COW_FAULT_CYCLES
    assert kernel.stats.counter("kernel.cow_faults") == 1


def test_cow_write_updates_frame_content(kernel_env):
    machine, sim, kernel = kernel_env
    a = kernel.create_process("a")
    b = kernel.create_process("b")
    va_a, va_b = kernel.setup_ksm_shared_page(a, b)
    original = b.read_bytes(va_b, 16)

    def program(cpu):
        yield from cpu.store(va_a, 0xDEAD)

    run_program(kernel, sim, a, program)
    # b's view is unchanged; a's page diverged
    assert b.read_bytes(va_b, 16) == original
    assert a.read_bytes(va_a, PAGE_SIZE) != b.read_bytes(va_b, PAGE_SIZE)


def test_unmerge_purges_stale_cache_lines(kernel_env):
    machine, sim, kernel = kernel_env
    a = kernel.create_process("a")
    b = kernel.create_process("b")
    va_a, va_b = kernel.setup_ksm_shared_page(a, b)
    old_pa = a.translate(va_a)

    def program(cpu):
        yield from cpu.load(va_a)       # cache the shared line
        yield from cpu.store(va_a, 1)   # COW break

    run_program(kernel, sim, a, program)
    # no cache anywhere may still hold the old (freed) physical line
    for domain in machine.sockets:
        assert domain.directory.get(old_pa - old_pa % 64) is None


def test_delay_and_fence_latencies(kernel_env):
    machine, sim, kernel = kernel_env
    process = kernel.create_process("p")
    results = {}

    def program(cpu):
        r = yield from cpu.delay(123.0)
        results["delay"] = r.latency
        r = yield from cpu.fence()
        results["fence"] = r.latency

    run_program(kernel, sim, process, program)
    assert results["delay"] == pytest.approx(123.0)
    assert results["fence"] == pytest.approx(
        machine.config.latency.fence
    )


def test_rdtsc_costs_nothing(kernel_env):
    machine, sim, kernel = kernel_env
    process = kernel.create_process("p")
    stamps = []

    def program(cpu):
        stamps.append((yield from cpu.rdtsc()))
        stamps.append((yield from cpu.rdtsc()))

    run_program(kernel, sim, process, program)
    assert stamps[0] == stamps[1]


def test_burst_touches_many_lines(kernel_env):
    machine, sim, kernel = kernel_env
    process = kernel.create_process("p")
    va = process.mmap(2)

    def program(cpu):
        yield from cpu.burst(va, count=32, stride=64)

    run_program(kernel, sim, process, program)
    # lines now present in core 0's private caches
    hits = 0
    domain = machine.socket_of(0)
    for i in range(32):
        pa = process.translate(va + i * 64)
        if domain.private_line(domain.core(0), pa) is not None:
            hits += 1
    assert hits == 32


def test_burst_mlp_shortens_time(kernel_env):
    machine, sim, kernel = kernel_env
    process = kernel.create_process("p")
    va = process.mmap(4)
    latencies = {}

    def make(label, mlp, base):
        def program(cpu):
            r = yield from cpu.burst(base, count=16, stride=64, mlp=mlp)
            latencies[label] = r.latency
        return program

    run_program(kernel, sim, process, make("serial", 1.0, va))
    run_program(kernel, sim, process, make("mlp4", 4.0, va + 2 * PAGE_SIZE),
                core=1)
    assert latencies["mlp4"] < latencies["serial"] / 2


def _private_lines(machine, core_id):
    """Physical line addresses in a core's private caches."""
    core = machine.cores[core_id]
    return {addr for bucket in core.l2._sets for addr in bucket}


def test_burst_crossing_pages_touches_right_frames(kernel_env):
    """A burst starting mid-page follows the page table into the next
    page, even when the two frames are not physically adjacent."""
    machine, sim, kernel = kernel_env
    process = kernel.create_process("p")
    other = kernel.create_process("other")
    va = process.mmap(1)
    other.mmap(1)              # takes the frame after va's
    va_next = process.mmap(1)  # virtually adjacent, physically not
    assert va_next == va + PAGE_SIZE
    assert process.translate(va_next) != process.translate(va) + PAGE_SIZE
    start = va + PAGE_SIZE - 5 * 64 + 8  # 5 lines before the boundary

    def program(cpu):
        yield from cpu.burst(start, count=12, stride=64)

    run_program(kernel, sim, process, program)
    expected = {process.translate(start + i * 64) & ~63 for i in range(12)}
    assert len({pa // PAGE_SIZE for pa in expected}) == 2
    assert _private_lines(machine, 0) == expected
    assert machine.stats.counter("machine.load.dram") == 12


def test_burst_write_decisions_consume_count_draws(kernel_env):
    """A burst with write_ratio > 0 takes exactly ``count`` draws of the
    ``kernel.burst`` stream: its writes are the draws below the ratio."""
    machine, sim, kernel = kernel_env
    process = kernel.create_process("p")
    va = process.mmap(2)
    stream = kernel.rng.get("kernel.burst")
    twin = np.random.Generator(type(stream.bit_generator)())
    twin.bit_generator.state = stream.bit_generator.state
    draws = [twin.random() for _ in range(40)]

    def program(cpu):
        yield from cpu.burst(va, count=40, stride=64, write_ratio=0.5)

    run_program(kernel, sim, process, program)
    assert stream.bit_generator.state == twin.bit_generator.state
    writes = sum(d < 0.5 for d in draws)
    assert 0 < writes < 40
    assert machine.stats.counter("machine.store.rfo") == writes
    assert machine.stats.counter("machine.load.dram") == 40 - writes


def test_burst_into_unmapped_page_faults(kernel_env):
    """Per-page translation still faults on the first unmapped access."""
    machine, sim, kernel = kernel_env
    process = kernel.create_process("p")
    va = process.mmap(1)

    def program(cpu):
        yield from cpu.burst(va + PAGE_SIZE - 2 * 64, count=4, stride=64)

    with pytest.raises(PageFaultError):
        run_program(kernel, sim, process, program)
    # The two mapped lines before the hole were accessed.
    assert machine.stats.counter("machine.load.dram") == 2


def test_write_burst_onto_readonly_page_faults(kernel_env):
    """Burst stores get the same write check as a plain store."""
    machine, sim, kernel = kernel_env
    process = kernel.create_process("p")
    va = process.mmap(1, writable=False)

    def program(cpu):
        yield from cpu.burst(va, count=4, stride=64, write_ratio=1.0)

    with pytest.raises(ProtectionFaultError):
        run_program(kernel, sim, process, program)
    assert machine.stats.counter("machine.store.rfo") == 0


def test_write_burst_onto_ksm_page_breaks_cow(kernel_env):
    """A write burst onto a KSM-merged page unmerges it once and stores
    to the new private frame, whose contents it updates."""
    machine, sim, kernel = kernel_env
    a = kernel.create_process("a")
    b = kernel.create_process("b")
    va_a, va_b = kernel.setup_ksm_shared_page(a, b)
    shared_pa = a.translate(va_a)
    original = b.read_bytes(va_b, PAGE_SIZE)

    def program(cpu):
        yield from cpu.burst(va_a, count=4, stride=64, write_ratio=1.0)

    run_program(kernel, sim, a, program)
    new_pa = a.translate(va_a)
    assert new_pa != shared_pa
    assert b.translate(va_b) == shared_pa
    assert kernel.stats.counter("kernel.cow_faults") == 1
    assert _private_lines(machine, 0) == {new_pa + i * 64 for i in range(4)}
    assert b.read_bytes(va_b, PAGE_SIZE) == original
    assert a.read_bytes(va_a, 8) == (1).to_bytes(8, "little")


def test_kernel_thread_uses_physical_addresses(kernel_env):
    machine, sim, kernel = kernel_env
    results = []

    def program(cpu):
        r = yield from cpu.load(0x4000)
        results.append(r)

    kernel.spawn_kernel_thread("kt", program, daemon=False)
    sim.run()
    assert results[0].path is AccessPath.DRAM


def test_scheduler_slot_released_after_exit(kernel_env):
    machine, sim, kernel = kernel_env
    process = kernel.create_process("p")

    def program(cpu):
        yield from cpu.delay(10)

    thread = kernel.spawn(process, "t", program, core_id=3)
    assert kernel.scheduler.load(3) == 1
    sim.run()
    assert kernel.scheduler.load(3) == 0
    assert kernel.scheduler.core_of(thread.tid) is None
