"""Golden digests of the memory layer on its own.

Each configuration runs a seeded stream of load/store/flush and
``Burst`` ops from several threads on a small machine, with jitter on
and the interconnect capacities lowered so contention delays are
non-zero.  The digest covers every op's ``(value, latency, path)`` and
the final ``snapshot_state()`` of the machine, so it moves iff a change
alters what the memory layer computes: which line records exist where,
in which LRU order and coherence state, what the directories and DRAM
hold, what the interconnect windows recorded, and every jitter draw.

The five whole-channel digests in ``test_golden_determinism.py`` reach
only the paths a covert-channel scenario exercises; this stream walks
the victim, RFO, write-back and tag-only paths of every coherence
backend and protocol.  If a digest moves for an *intended* semantic
change, regenerate it with :func:`stream_digest` and say so in the
commit message; an unintended move is a regression.
"""

import dataclasses
import enum
import hashlib

import pytest

from repro.kernel.syscalls import Kernel
from repro.mem.hierarchy import Machine, MachineConfig
from repro.mem.physical import PAGE_SIZE
from repro.sim.engine import Simulator
from repro.sim.rng import RngStreams

#: Small geometry: the stream's region is ~4x a socket's LLC, so L1, L2
#: and LLC victims (and non-inclusive tag-only entries) are frequent.
SMALL = dict(
    cores_per_socket=3,
    l1_sets=8, l1_assoc=2,
    l2_sets=16, l2_assoc=4,
    llc_sets=64, llc_assoc=4,
    ring_capacity=6.0, qpi_capacity=4.0, mem_capacity=5.0,
)

CONFIGS = {
    "snoop_mesi": {"protocol": "mesi"},
    "snoop_mesif": {"protocol": "mesif"},
    "snoop_moesi": {"protocol": "moesi"},
    "directory_mesi": {"coherence": "directory", "protocol": "mesi"},
    "directory_mesif": {"coherence": "directory", "protocol": "mesif"},
    "directory_moesi": {"coherence": "directory", "protocol": "moesi"},
    "snoop_noninclusive": {"inclusive": False},
    "snoop_home_agent": {"home_agent": True},
    "snoop_llc_direct_e": {"llc_direct_e_response": True},
}

#: The directory backend consults the policy only for MOESI's O state,
#: so its MESI and MESIF streams are identical by design.
GOLDEN = {
    "snoop_mesi":
        "5f8af70694fcbe116f5f1d93c01a8ddaed7446a07863782db1c93debcd93b70a",
    "snoop_mesif":
        "a113d45d3771bcd828169d2a767bafa47249167376e6ea1b8b8afa5fb592f818",
    "snoop_moesi":
        "83a86e91ab02a273fb3e4e6c0782e55ff5fc6fbc838fa81ff9fc85eb8c2491d7",
    "directory_mesi":
        "729cb14a929a2f14049fd078a5cf9c747af4a8e7c1fd2fe77ea64d35b6300f81",
    "directory_mesif":
        "729cb14a929a2f14049fd078a5cf9c747af4a8e7c1fd2fe77ea64d35b6300f81",
    "directory_moesi":
        "f362f0029e93d613e72ab1993f74c2d66399f5c86ab7a73b370e533b21174e48",
    "snoop_noninclusive":
        "d9f07d144d5a94814c35dd749098facd31f7288f3962b57c8b3bf937c94c5ebb",
    "snoop_home_agent":
        "86291f26d39ec47dbc502fcb4c30bdd32a1da44ec8026b3247a0ed24fdfb2f39",
    "snoop_llc_direct_e":
        "6697042edf812fcf2ffba7873d86f3934d8eba8606b7539b215d5b35bdd98a3a",
}

N_THREADS = 5
OPS_PER_THREAD = 300
REGION_PAGES = 16
HOT_LINES = 12
SEED = 2024


def stream_program(region, rng, log, tid):
    """One thread's seeded op stream over a shared region."""
    region_lines = REGION_PAGES * PAGE_SIZE // 64

    def program(cpu):
        for _ in range(OPS_PER_THREAD):
            kind = int(rng.integers(0, 20))
            if kind < 8:
                # Hot lines shared by every thread: E/S/M/O transitions.
                va = region + int(rng.integers(0, HOT_LINES)) * 64
            else:
                va = region + int(rng.integers(0, region_lines)) * 64
            if kind < 9:
                result = yield from cpu.load(va)
                name = "load"
            elif kind < 13:
                result = yield from cpu.store(va, int(rng.integers(1, 1 << 30)))
                name = "store"
            elif kind < 15:
                result = yield from cpu.flush(va)
                name = "flush"
            elif kind < 19:
                count = int(rng.integers(1, 65))
                stride = 64 * int(rng.integers(1, 3))
                start = int(rng.integers(0, region_lines - 2 * count)) * 64
                write_ratio = (0.0, 0.3, 1.0)[int(rng.integers(0, 3))]
                mlp = (1.0, 4.0)[int(rng.integers(0, 2))]
                result = yield from cpu.burst(
                    region + start, count, stride, write_ratio, mlp)
                name = "burst"
            else:
                result = yield from cpu.delay(float(rng.integers(0, 400)))
                name = "delay"
            log.append((tid, name, result.value, result.latency.hex(),
                        None if result.path is None else result.path.value))

    return program


def canonical(obj):
    """A deterministic, representation-independent rendering of state."""
    if isinstance(obj, enum.Enum):
        return obj.value
    if dataclasses.is_dataclass(obj):
        return (type(obj).__name__, tuple(
            (f.name, canonical(getattr(obj, f.name)))
            for f in dataclasses.fields(obj)
        ))
    if isinstance(obj, dict):
        return tuple(sorted((repr(k), canonical(v)) for k, v in obj.items()))
    if isinstance(obj, (set, frozenset)):
        return tuple(sorted(obj))
    if isinstance(obj, (list, tuple)):
        return tuple(canonical(x) for x in obj)
    if isinstance(obj, float):
        return obj.hex()
    return obj


def run_stream(name):
    """Run one configuration's stream; returns (machine, op log)."""
    config = MachineConfig(**SMALL, **CONFIGS[name])
    rng = RngStreams(SEED)
    machine = Machine(config, rng)
    sim = Simulator(machine.stats)
    kernel = Kernel(machine, sim, rng)
    process = kernel.create_process("stream")
    region = process.mmap(REGION_PAGES)
    log = []
    for tid in range(N_THREADS):
        program = stream_program(region, rng.get(f"test.stream.{tid}"), log, tid)
        # Cores 0,1 on socket 0 and 3,4,5 on socket 1: every cross-socket
        # path is reachable.
        kernel.spawn(process, f"s{tid}", program, core_id=(0, 1, 3, 4, 5)[tid])
    sim.run()
    return machine, log


def stream_digest(name: str) -> str:
    """Digest of every op result plus the final machine snapshot."""
    machine, log = run_stream(name)
    h = hashlib.sha256()
    h.update(repr(log).encode())
    h.update(b"|")
    h.update(repr(canonical(machine.snapshot_state())).encode())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_mem_stream_digest(name):
    assert stream_digest(name) == GOLDEN[name]


def test_stream_exercises_every_op_and_path():
    """The stream is not vacuous: all op kinds and miss paths occur."""
    _machine, log = run_stream("snoop_mesi")
    kinds = {entry[1] for entry in log}
    assert kinds == {"load", "store", "flush", "burst", "delay"}
    paths = {entry[4] for entry in log if entry[1] == "load"}
    assert len(paths) >= 5, paths
