"""Golden end-to-end determinism digests.

These lock the simulator's observable behavior bit-for-bit: every RNG
draw, every latency sample, every decoded bit.  A digest here changes
iff a code change alters *what* the simulator computes — hot-path
rewrites (engine inlining, interconnect indexing, latency inlining) must
keep all three constant.  If a digest moves for an *intended* semantic
change, regenerate the constants with :func:`transmission_digest` and
say so in the commit message; an unintended move is a regression.

The configurations cover the distinct protocol paths: the default
MESI machine, the E-state LLC direct-response variant (collapses the
local/remote E bands onto S), the two-socket home-agent directory
hop (extends the remote bands), the full home-node directory backend
(``coherence="directory"``) and the MOESI O-state channel.
"""

import hashlib
import struct

import pytest

from repro.channel.session import ChannelSession, SessionConfig
from repro.mem.hierarchy import MachineConfig

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


def run_config(name: str) -> str:
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
    return transmission_digest(session.transmit(list(PAYLOAD)))


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_digest(name):
    assert run_config(name) == GOLDEN[name], (
        f"{name} transmission changed bit-for-bit; if this is an intended "
        "semantic change, regenerate the GOLDEN constants"
    )


def test_digest_is_repeatable():
    # The digest machinery itself must be deterministic run-to-run.
    assert run_config("mesi_default") == run_config("mesi_default")
