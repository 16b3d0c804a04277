"""Tests for the background noise workloads."""

from repro.kernel.syscalls import Kernel
from repro.kernel.workloads import (
    BURST_LINES,
    KERNEL_BUILD_PAGES,
    kernel_build_program,
    pointer_chase_program,
    spawn_kernel_build,
    streaming_program,
)
from repro.mem.hierarchy import Machine, MachineConfig
from repro.sim.engine import Simulator
from repro.sim.rng import RngStreams


def test_spawn_zero_threads_is_noop(kernel_env):
    _machine, _sim, kernel = kernel_env
    assert spawn_kernel_build(kernel, 0) == []


def test_spawn_avoids_reserved_cores(kernel_env):
    machine, sim, kernel = kernel_env
    reserved = {0, 1, 2, 6, 7}
    threads = spawn_kernel_build(kernel, 4, avoid_cores=reserved)
    for thread in threads:
        assert thread.core_id not in reserved


def test_spawn_interleaves_sockets(kernel_env):
    machine, sim, kernel = kernel_env
    threads = spawn_kernel_build(kernel, 4, avoid_cores={0, 1, 2, 6, 7})
    per_socket = machine.config.cores_per_socket
    sockets = [t.core_id // per_socket for t in threads]
    assert sockets.count(0) == 2
    assert sockets.count(1) == 2


def test_spawn_stacks_when_cores_exhausted(kernel_env):
    machine, sim, kernel = kernel_env
    reserved = {0, 1, 2, 6, 7}
    threads = spawn_kernel_build(kernel, 8, avoid_cores=reserved)
    assert len(threads) == 8
    # 7 free cores for 8 threads: exactly one core is doubled, and it is
    # not a reserved one.
    cores = [t.core_id for t in threads]
    assert all(c not in reserved for c in cores)
    assert max(cores.count(c) for c in set(cores)) == 2


def test_kernel_build_generates_memory_traffic(kernel_env):
    machine, sim, kernel = kernel_env
    threads = spawn_kernel_build(kernel, 1, avoid_cores={0})
    assert threads[0].daemon

    def waiter(cpu):
        yield from cpu.delay(100_000)

    process = kernel.create_process("w")
    kernel.spawn(process, "waiter", waiter, core_id=0)
    sim.run()
    ring = machine.interconnect.rings[threads[0].core_id
                                      // machine.config.cores_per_socket]
    assert ring.total_traffic > 100


def test_kernel_build_pollutes_llc(kernel_env):
    machine, sim, kernel = kernel_env
    threads = spawn_kernel_build(kernel, 2, avoid_cores={0})

    def waiter(cpu):
        yield from cpu.delay(400_000)

    process = kernel.create_process("w")
    kernel.spawn(process, "waiter", waiter, core_id=0)
    sim.run()
    socket = machine.socket_of(threads[0].core_id)
    # the working set exceeds the LLC, so occupancy should be substantial
    assert socket.data_array.occupancy() > 1000


def test_streaming_program_advances(kernel_env):
    machine, sim, kernel = kernel_env
    process = kernel.create_process("s")
    region = process.mmap(64)
    thread = kernel.spawn(
        process, "stream", streaming_program(region, 64), core_id=0,
        daemon=True,
    )

    def waiter(cpu):
        yield from cpu.delay(300_000)

    kernel.spawn(process, "w", waiter, core_id=1)
    sim.run()
    assert thread.ops_executed > 3


def test_pointer_chase_program_issues_loads(kernel_env):
    machine, sim, kernel = kernel_env
    process = kernel.create_process("c")
    region = process.mmap(16)
    rng = kernel.rng.get("test.chase")
    thread = kernel.spawn(
        process, "chase",
        pointer_chase_program(process, region, 16, rng),
        core_id=0, daemon=True,
    )

    def waiter(cpu):
        yield from cpu.delay(20_000)

    kernel.spawn(process, "w", waiter, core_id=1)
    sim.run()
    assert thread.ops_executed > 10


def test_constants_sane():
    assert KERNEL_BUILD_PAGES >= 1024
    assert BURST_LINES >= 16


def test_warm_reset_machine_matches_fresh_after_kernel_build():
    """``Machine.reset`` leaves no trace of a noisy kernel-build run.

    A warm-worker machine must snapshot exactly like a new one,
    interconnect traffic totals and index modes included, or exported
    checkpoints would depend on whether the worker was warm.
    """
    config = MachineConfig()
    warm = Machine(config, RngStreams(1))
    sim = Simulator(warm.stats)
    kernel = Kernel(warm, sim, warm.rng)
    spawn_kernel_build(kernel, 2)

    def timer(cpu):
        yield from cpu.delay(50_000)

    kernel.spawn(kernel.create_process("timer"), "timer", timer, core_id=0)
    sim.run(kill_daemons=True)
    assert warm.interconnect.rings[0].total_traffic > 0
    assert warm.stats.counter("machine.store.rfo") > 0

    warm.reset(RngStreams(5))
    fresh = Machine(config, RngStreams(5))
    Simulator(fresh.stats)  # binds the same engine counter as the warm run
    assert warm.snapshot_state() == fresh.snapshot_state()
