"""Golden end-to-end determinism digests.

These lock the simulator's observable behavior bit-for-bit: every RNG
draw, every latency sample, every decoded bit.  A digest here changes
iff a code change alters *what* the simulator computes — hot-path
rewrites (engine inlining, interconnect indexing, latency inlining) must
keep all of them constant, and the engine-event and L1-hit counts behind
them (``GOLDEN_WORK``) too.  If a digest moves for an *intended*
semantic change, regenerate the constants with
:func:`transmission_digest` and say so in the commit message; an
unintended move is a regression.

The configurations cover the distinct protocol paths: the default
MESI machine, the E-state LLC direct-response variant (collapses the
local/remote E bands onto S), the two-socket home-agent directory
hop (extends the remote bands), the full home-node directory backend
(``coherence="directory"``) and the MOESI O-state channel.
"""

import functools
import hashlib
import struct

import pytest

from repro.channel.session import ChannelSession, SessionConfig
from repro.mem.hierarchy import Machine, MachineConfig
from repro.mem.latency import NoiseModel
from repro.sim.events import AccessPath
from repro.sim.rng import RngStreams

PAYLOAD = [1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 1, 0, 0, 1, 0, 1]

GOLDEN = {
    "mesi_default":
        "302b5d219fc4eba6bd4d452267391585159920683a25069faa503f63c1fcade5",
    "llc_direct_e_response":
        "8b29a4846b8db422c11a3975b3b245194ac07fce5132dced484da1b6aa591e23",
    "home_agent":
        "abbc2d1884d46ed9a1d2ddf472917ef06f1522de7391e22423e0d1fec2040ccd",
    "directory_backend":
        "d880e5521f27a2ff0f80efd0989574b70de23409229f0444bbf96d3b4bebff7a",
    "moesi_ostate":
        "b934a6ca3dd5a540fa09f225a6138b08c42fb9af3ccce1479cdad77a502ba9e5",
}

#: The exact work behind each digest: (engine events, L1-hit loads).  A
#: hot-path rewrite must leave these unchanged too -- a speedup that
#: comes from doing less simulated work (or moving it) is not one.
GOLDEN_WORK = {
    "directory_backend": (11802, 4897),
    "home_agent": (12748, 4795),
    "llc_direct_e_response": (18408, 7282),
    "mesi_default": (11736, 4864),
    "moesi_ostate": (9758, 3648),
}

#: config name -> (MachineConfig kwargs, scenario) — scenarios are chosen
#: so the variant's distinctive path is actually exercised (remote-S for
#: the direct-response machine, remote-E for the home agent).  Registered
#: ScenarioSpec cells (a string entry) carry their own machine config.
CONFIGS = {
    "mesi_default": ({}, "LExclc-LSharedb"),
    "llc_direct_e_response": (
        {"llc_direct_e_response": True}, "RSharedc-LSharedb"
    ),
    "home_agent": ({"home_agent": True}, "RExclc-LSharedb"),
    "directory_backend": "dir-es",
    "moesi_ostate": "moesi-ostate",
}


def transmission_digest(result) -> str:
    """A digest over everything observable about one transmission."""
    h = hashlib.sha256()
    h.update(",".join(map(str, result.sent)).encode())
    h.update(b"|")
    h.update(",".join(map(str, result.received)).encode())
    h.update(b"|")
    for sample in result.samples:
        h.update(struct.pack("<dd", sample.timestamp, sample.latency))
    h.update(struct.pack("<d", result.cycles))
    return h.hexdigest()


def transmit_config(name: str):
    config = CONFIGS[name]
    if isinstance(config, str):
        session = ChannelSession(SessionConfig(
            spec=config, seed=7, calibration_samples=150,
        ))
    else:
        machine_kwargs, scenario = config
        session = ChannelSession(SessionConfig(
            spec=scenario,
            seed=7,
            calibration_samples=150,
            machine=MachineConfig(**machine_kwargs),
        ))
    return session.transmit(list(PAYLOAD))


def run_config(name: str) -> str:
    return transmission_digest(transmit_config(name))


#: One transmission per config, shared by the digest and work tests.
golden_result = functools.cache(transmit_config)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_digest(name):
    assert transmission_digest(golden_result(name)) == GOLDEN[name], (
        f"{name} transmission changed bit-for-bit; if this is an intended "
        "semantic change, regenerate the GOLDEN constants"
    )


@pytest.mark.parametrize("name", sorted(GOLDEN_WORK))
def test_golden_work(name):
    stats = golden_result(name).manifest.stats
    work = (stats["engine.events"], stats["machine.load.l1_hit"])
    assert work == GOLDEN_WORK[name], (
        f"{name} did different work (events, L1 hits) = {work}"
    )


def test_digest_is_repeatable():
    # The digest machinery itself must be deterministic run-to-run.
    assert run_config("mesi_default") == run_config("mesi_default")


def test_l1_hit_jitter_matches_normal_sampler():
    """Machine's jitter draws equal NoiseModel's normal/random/exponential.

    The machine samples ``sigma * standard_normal()`` where the model
    reads ``normal(0.0, sigma)``; numpy computes ``loc + scale * z``, so
    both give the same bits.  If a numpy release breaks that identity,
    this test names the cause (every golden digest above would move too,
    without saying why).  The tail probability is raised so the
    exponential branch runs often.
    """
    seed = 11
    noise = NoiseModel(sigma=2.5, tail_probability=0.3, tail_scale=60.0)
    machine = Machine(MachineConfig(noise=noise), RngStreams(seed))
    twin = RngStreams(seed).get("machine.jitter")

    def expected(base):
        value = base + twin.normal(0.0, noise.sigma)
        if twin.random() < noise.tail_probability:
            value += twin.exponential(noise.tail_scale)
        return max(1.0, value)

    # The cold miss (an uncontended DRAM fill) draws the same triple.
    _value, _latency, path = machine.load(0, 0x1000)
    assert path is AccessPath.DRAM
    expected(0.0)
    assert (machine._jitter_rng.bit_generator.state
            == twin.bit_generator.state)

    base = machine.config.latency.for_path(AccessPath.L1_HIT)
    got, want = [], []
    for _ in range(2000):
        _value, latency, path = machine.load(0, 0x1000)
        assert path is AccessPath.L1_HIT
        got.append(latency)
        want.append(expected(base))
    assert got == want
