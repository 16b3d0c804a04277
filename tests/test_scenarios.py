"""ScenarioSpec registry + spec-first session API contract.

Locks the API-facing behavior of the scenario matrix: registry
contents, matrix layout (including the undefined and expected-dead
cells), spec overlay/conflict rules on :class:`SessionConfig`, and the
removal of the pre-spec migration forms.
"""

import pytest

from repro.channel.config import (
    LEXCL,
    LSHARED,
    TABLE_I,
    ProtocolParams,
    Scenario,
)
from repro.channel.scenarios import (
    CHANNEL_FAMILIES,
    MATRIX_COLS,
    MATRIX_ROWS,
    SCENARIOS,
    ScenarioSpec,
    matrix_cell,
    scenario_spec_by_name,
)
from repro.channel.session import SessionConfig, resolve_spec
from repro.errors import ConfigError
from repro.mem.hierarchy import MachineConfig


# -- registry contents ------------------------------------------------


def test_table_i_names_are_registered():
    for scenario in TABLE_I:
        spec = scenario_spec_by_name(scenario.name)
        assert spec.scenario == scenario
        assert spec.protocol == "mesi"
        assert spec.topology == "snoop"


def test_matrix_names_are_registered():
    for protocol in ("mesi", "mesif", "moesi"):
        for channel in CHANNEL_FAMILIES:
            assert f"{protocol}-{channel}" in SCENARIOS
    assert "dir-es" in SCENARIOS
    assert "dir-ostate" in SCENARIOS
    assert "dir-lru" not in SCENARIOS


def test_unknown_name_lists_choices():
    with pytest.raises(ConfigError, match="registered scenarios"):
        scenario_spec_by_name("nope")
    with pytest.raises(ConfigError, match="LExclc-LSharedb"):
        scenario_spec_by_name("nope")


def test_spec_validation_rejects_bad_fields():
    scenario = Scenario(csc=LEXCL, csb=LSHARED)
    with pytest.raises(ConfigError, match="registered protocols"):
        ScenarioSpec(name="x", scenario=scenario, protocol="mosi")
    with pytest.raises(ConfigError, match="channel family"):
        ScenarioSpec(name="x", scenario=scenario, channel="tlb")
    with pytest.raises(ConfigError, match="topology"):
        ScenarioSpec(name="x", scenario=scenario, topology="mesh")


# -- matrix layout ----------------------------------------------------


def test_matrix_cell_layout():
    for row in MATRIX_ROWS:
        for channel in MATRIX_COLS:
            spec = matrix_cell(row, channel)
            if row == "directory" and channel == "lru":
                assert spec is None  # undefined: nothing to sweep
                continue
            assert spec is not None
            assert spec.channel == channel
            if row == "directory":
                assert spec.topology == "directory"
            else:
                assert spec.protocol == row


def test_matrix_cell_rejects_unknown_axes():
    with pytest.raises(ConfigError, match="matrix row"):
        matrix_cell("dragon", "es")
    with pytest.raises(ConfigError, match="channel family"):
        matrix_cell("mesi", "plain-wrong")


def test_expected_dead_cells_are_registered_but_flagged():
    # MESI/MESIF x O-state stay in the registry — running them *is* the
    # demonstration that the O channel needs MOESI — but their summary
    # says so up front.
    for protocol in ("mesi", "mesif"):
        assert "dead" in SCENARIOS[f"{protocol}-ostate"].summary


# -- spec overlay on SessionConfig ------------------------------------


def test_spec_overlays_machine_protocol_and_topology():
    config = SessionConfig(spec="dir-ostate")
    assert config.machine.protocol == "moesi"
    assert config.machine.coherence == "directory"
    assert config.sharing == "explicit-rw"
    assert config.scenario == SCENARIOS["dir-ostate"].scenario


def test_spec_defers_to_explicit_caller_params():
    params = ProtocolParams(c1=7)
    config = SessionConfig(spec="mesi-lru", params=params)
    assert config.params is params  # caller's choice wins over for_lru_probe


def test_spec_machine_conflict_raises():
    with pytest.raises(ConfigError, match="pins protocol"):
        SessionConfig(
            spec="moesi-es", machine=MachineConfig(protocol="mesif"),
        )
    with pytest.raises(ConfigError, match="pins coherence"):
        # spec requires snoop, machine explicitly pins directory
        SessionConfig(
            spec="mesi-es", machine=MachineConfig(coherence="directory"),
        )


def test_resolve_spec_protocol_override():
    spec = resolve_spec("LExclc-LSharedb", protocol="moesi")
    assert spec.protocol == "moesi"
    assert spec.scenario == TABLE_I[0]


def test_resolve_spec_conflicting_protocol_raises():
    with pytest.raises(ConfigError):
        resolve_spec(spec="mesif-es", protocol="moesi")


def test_config_without_spec_or_scenario_raises():
    with pytest.raises(ConfigError, match="needs spec="):
        SessionConfig()


# -- removed migration forms --------------------------------------------


def test_legacy_scenario_keyword_warns():
    """``SessionConfig(scenario=...)`` is gone: ``scenario`` is derived."""
    with pytest.raises(TypeError, match="scenario"):
        SessionConfig(scenario=TABLE_I[0])
    config = SessionConfig(spec=TABLE_I[0].name)
    assert config.scenario == TABLE_I[0]


def test_bare_scenario_in_spec_slot_warns():
    with pytest.raises(ConfigError, match="needs spec="):
        SessionConfig(spec=TABLE_I[0])


def test_run_transmission_with_bare_scenario_warns():
    from repro.channel.session import run_transmission

    with pytest.raises(ConfigError, match="needs spec="):
        run_transmission(TABLE_I[0], [1, 0, 1], seed=3)


def test_legacy_shims_land_on_the_resolved_configuration():
    """Every removed form raises; the registered name is the one path."""
    modern = SessionConfig(spec=resolve_spec(TABLE_I[0].name))
    assert modern.scenario == TABLE_I[0]
    assert isinstance(modern.spec, ScenarioSpec)
    with pytest.raises(TypeError):
        SessionConfig(scenario=TABLE_I[0])
    with pytest.raises(ConfigError):
        SessionConfig(spec=TABLE_I[0])
    # resolve_spec no longer wraps bare Scenario objects
    with pytest.raises(ConfigError, match="registered scenario= name"):
        resolve_spec(TABLE_I[0])


def test_execute_point_legacy_scenario_routes_through_resolve_spec(
    monkeypatch,
):
    import repro.channel.session as session_mod

    seen = []
    real = session_mod.resolve_spec

    def spy(*args, **kwargs):
        spec = real(*args, **kwargs)
        seen.append(spec.name)
        return spec

    monkeypatch.setattr(session_mod, "resolve_spec", spy)
    result = session_mod.execute_point(
        scenario=TABLE_I[0].name, payload=[1, 0, 1], seed=3,
        calibration_samples=120,
    )
    assert seen == [TABLE_I[0].name]
    assert result.scenario_name == TABLE_I[0].name
