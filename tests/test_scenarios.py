"""Scenario layer tests: registry, golden climatologies, CLI, round-trips.

The per-scenario regression (``test_climatology_regression[<name>]``) is
what the CI scenario matrix selects one job per world from; everything
runs together under tier-1.
"""

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config import (
    OCEAN_INIT_KINDS,
    OCEAN_MODES,
    TOPOGRAPHY_KINDS,
    FoamConfig,
)
from repro.core.config import test_config as _test_config
from repro.core.foam import FoamModel
from repro.scenarios import (
    BASE_CONFIGS,
    GOLDEN_DAYS,
    Scenario,
    compare_climatology,
    get_scenario,
    register,
    scenario_climatology,
    scenario_names,
)
from repro.scenarios.__main__ import main as cli_main

GOLDEN_PATH = Path(__file__).parent / "data" / "scenario_climatology.json"

# One climatology integration per scenario per test session: the regression,
# ordering, and sanity tests all read from this cache.
_CLIM_CACHE: dict[str, dict] = {}


def _clim(name: str) -> dict:
    if name not in _CLIM_CACHE:
        model, state = get_scenario(name).build("test")
        _, metrics = scenario_climatology(model, state, days=GOLDEN_DAYS)
        _CLIM_CACHE[name] = metrics
    return _CLIM_CACHE[name]


def _golden() -> dict:
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
def test_registry_has_the_canon():
    names = scenario_names()
    for required in ("control", "aquaplanet", "snowball", "doubled_co2",
                     "slab_ocean", "tidally_locked", "paleo"):
        assert required in names


def test_register_rejects_duplicates_and_blank_names():
    s = get_scenario("aquaplanet")
    with pytest.raises(ValueError, match="already registered"):
        register(s)
    register(s, replace=True)  # idempotent with replace
    with pytest.raises(ValueError, match="non-empty name"):
        register(Scenario(name="", description="nameless"))


def test_get_scenario_unknown_lists_choices():
    with pytest.raises(ValueError, match="aquaplanet"):
        get_scenario("venus")


def test_scenario_config_bases():
    s = get_scenario("aquaplanet")
    assert s.config("test").atm_nlon == _test_config().atm_nlon
    assert s.config(None).atm_nlon == _test_config().atm_nlon
    paper = s.config("paper")
    assert paper.atm_nlon == FoamConfig().atm_nlon
    assert paper.topography == "aquaplanet"
    with pytest.raises(ValueError, match="unknown base config"):
        s.config("enormous")
    # config_overrides pass through arbitrary FoamConfig fields
    tweaked = dataclasses.replace(s, config_overrides={"atm_dt": 1200.0})
    assert tweaked.config("test").atm_dt == 1200.0


def test_knob_summary_is_sparse():
    assert get_scenario("control").knob_summary() == {}
    ks = get_scenario("tidally_locked").knob_summary()
    assert ks["rotation_factor"] == pytest.approx(1.0 / 16.0)
    assert ks["subsolar_lon_deg"] == 180.0
    assert "co2_ppmv" not in ks


# ----------------------------------------------------------------------
# golden climatology regression (CI matrix selects one name per job)
# ----------------------------------------------------------------------
def test_golden_file_covers_registry():
    golden = _golden()
    assert sorted(golden["scenarios"]) == scenario_names(), (
        "registry and goldens diverged — regenerate with "
        "`python -m repro.scenarios golden`")
    assert golden["_meta"]["days"] == GOLDEN_DAYS


@pytest.mark.parametrize("name", scenario_names())
def test_climatology_regression(name):
    got = _clim(name)
    want = _golden()["scenarios"][name]
    problems = compare_climatology(got, want)
    assert not problems, "\n".join(problems)
    # physical sanity, independent of the pinned numbers
    assert 0.0 <= got["ice_fraction"] <= 1.0
    assert got["ocean_ke_j"] >= 0.0
    assert got["mass_drift_rel"] < 1e-5
    assert all(np.isfinite(v) for v in got.values())


def test_cross_scenario_ordering():
    """The climate ordering the scenarios exist to demonstrate."""
    snowball, aqua, co2 = (_clim(n) for n in
                           ("snowball", "aquaplanet", "doubled_co2"))
    # Global-mean surface temperature: frozen < baseline < greenhouse.
    assert snowball["ts_global_k"] < aqua["ts_global_k"] < co2["ts_global_k"]
    # Column air temperature shows the CO2 signal orders of magnitude
    # above platform noise (OLR drops immediately under doubled CO2).
    assert co2["t_atm_k"] - aqua["t_atm_k"] > 1e-4
    assert snowball["t_atm_k"] < aqua["t_atm_k"]
    # Ice: the snowball is frozen over, the warm aquaplanet is not.
    assert snowball["ice_fraction"] > 0.9
    assert aqua["ice_fraction"] < 0.1
    # The slab ocean is motionless by construction.
    assert _clim("slab_ocean")["ocean_ke_j"] == 0.0


def test_sst_mean_does_not_hide_ocean_nan():
    """A NaN in one ocean cell reads NaN in the SST mean, serial and batched."""
    from repro.core import EnsembleConfig, FoamEnsemble
    from repro.scenarios.climatology import (
        ensemble_member_metrics,
        state_metrics,
    )

    model = FoamModel(_test_config())
    state = model.initial_state()
    j, i = np.argwhere(model.ocean.mask2d)[0]
    state.ocean.temp[0, j, i] = np.nan
    assert np.isnan(state_metrics(model, state)["sst_ocean_c"])

    ens = FoamEnsemble(EnsembleConfig(nens=2, base=_test_config()))
    state = ens.initial_state()
    state.ocean.temp[0, 0, j, i] = np.nan
    first, second = ensemble_member_metrics(ens.model, state)
    assert np.isnan(first["sst_ocean_c"])
    assert np.isfinite(second["sst_ocean_c"])


def test_compare_climatology_flags_problems():
    want = {"ts_global_k": 290.0, "extra_metric": 1.0}
    got = {"ts_global_k": 295.0, "novel_metric": 2.0}
    problems = compare_climatology(got, want)
    text = "\n".join(problems)
    assert "ts_global_k" in text            # out of tolerance
    assert "extra_metric" in text           # missing from run
    assert "novel_metric" in text           # not in golden
    assert compare_climatology({"ts_global_k": 290.1},
                               {"ts_global_k": 290.0}) == []
    assert compare_climatology({"ts_global_k": float("nan")},
                               {"ts_global_k": 290.0})


# ----------------------------------------------------------------------
# no silent drift: the scenario layer reproduces plain FoamModel bitwise
# ----------------------------------------------------------------------
def _assert_states_identical(a, b, path=""):
    if isinstance(a, np.ndarray):
        assert a.dtype == b.dtype, path
        assert np.array_equal(a, b, equal_nan=True), path
    elif dataclasses.is_dataclass(a):
        for f in dataclasses.fields(a):
            _assert_states_identical(getattr(a, f.name), getattr(b, f.name),
                                     f"{path}.{f.name}")
    elif isinstance(a, dict):
        assert a.keys() == b.keys(), path
        for k in a:
            _assert_states_identical(a[k], b[k], f"{path}[{k}]")
    else:
        assert a == b, path


@pytest.mark.parametrize("name,cfg_delta", [
    ("control", {}),
    ("aquaplanet", {"topography": "aquaplanet"}),
])
def test_scenario_bitwise_equals_plain_model(name, cfg_delta):
    """Building through a Scenario adds nothing to the numerics."""
    model_s, state_s = get_scenario(name).build("test")
    cfg = dataclasses.replace(_test_config(), **cfg_delta)
    model_p = FoamModel(cfg)
    state_p = model_p.initial_state()
    for _ in range(3):
        state_s = model_s.coupled_step(state_s)
        state_p = model_p.coupled_step(state_p)
    _assert_states_identical(state_s, state_p)


# ----------------------------------------------------------------------
# config serialization round-trip
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", scenario_names())
def test_config_roundtrip_per_scenario(name):
    for base in BASE_CONFIGS:
        cfg = get_scenario(name).config(base)
        assert FoamConfig.from_dict(cfg.to_dict()) == cfg


def test_from_dict_rejects_unknown_fields():
    d = _test_config().to_dict()
    d["warp_factor"] = 9
    with pytest.raises(ValueError, match="warp_factor"):
        FoamConfig.from_dict(d)


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    solar=st.floats(min_value=100.0, max_value=5000.0,
                    allow_nan=False, allow_infinity=False),
    co2=st.floats(min_value=1.0, max_value=1e5,
                  allow_nan=False, allow_infinity=False),
    rot=st.floats(min_value=0.0, max_value=10.0,
                  allow_nan=False, allow_infinity=False),
    sublon=st.one_of(st.none(), st.floats(min_value=-180.0, max_value=360.0,
                                          allow_nan=False)),
    topo=st.sampled_from(TOPOGRAPHY_KINDS),
    mode=st.sampled_from(OCEAN_MODES),
    mld=st.floats(min_value=1.0, max_value=500.0, allow_nan=False),
    init=st.sampled_from(OCEAN_INIT_KINDS),
    ice=st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
)
def test_config_roundtrip_property(solar, co2, rot, sublon, topo, mode,
                                   mld, init, ice):
    cfg = dataclasses.replace(
        _test_config(), solar_constant=solar, co2_ppmv=co2,
        rotation_factor=rot, subsolar_lon_deg=sublon, topography=topo,
        ocean_mode=mode, mixed_layer_depth=mld, ocean_init=init,
        initial_ice_thickness=ice)
    back = FoamConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
    assert back == cfg


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def test_cli_list_and_describe(capsys):
    assert cli_main(["list"]) == 0
    out = capsys.readouterr().out
    for name in scenario_names():
        assert name in out

    assert cli_main(["list", "--json"]) == 0
    listed = json.loads(capsys.readouterr().out)
    assert [s["name"] for s in listed] == scenario_names()

    assert cli_main(["describe", "snowball", "--json"]) == 0
    info = json.loads(capsys.readouterr().out)
    assert info["config"]["initial_ice_thickness"] == 1.0
    assert cli_main(["describe", "snowball"]) == 0
    assert "faint-sun" in capsys.readouterr().out


def test_cli_run_serial_json(capsys):
    assert cli_main(["run", "aquaplanet", "--days", "0.25", "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["scenario"] == "aquaplanet"
    assert out["mode"] == "serial"
    clim = out["climatology"]
    assert 250.0 < clim["ts_global_k"] < 320.0
    assert np.isfinite(clim["ocean_ke_j"])


def test_cli_run_ensemble(capsys):
    assert cli_main(["run", "aquaplanet", "--days", "0.125",
                     "--ensemble", "2", "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["mode"] == "ensemble"
    assert out["nens"] == 2
    assert len(out["members"]) == 2
    assert out["ts_spread_k"] >= 0.0


def test_cli_run_concurrent(capsys):
    assert cli_main(["run", "aquaplanet", "--days", "0.125",
                     "--substrate", "thread", "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["mode"] == "concurrent"
    assert out["substrate"] == "thread"
    assert 250.0 < out["final_state"]["ts_global_k"] < 320.0


def test_cli_run_rejects_ensemble_plus_substrate():
    with pytest.raises(SystemExit):
        cli_main(["run", "aquaplanet", "--ensemble", "2",
                  "--substrate", "thread"])


def test_cli_golden_roundtrip(tmp_path, capsys):
    out_path = tmp_path / "golden.json"
    assert cli_main(["golden", "aquaplanet", "--days", "0.125",
                     "--out", str(out_path)]) == 0
    capsys.readouterr()
    data = json.loads(out_path.read_text())
    assert list(data["scenarios"]) == ["aquaplanet"]
    assert data["_meta"]["days"] == 0.125


def test_cli_module_entrypoint_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "repro.scenarios", "list"],
        capture_output=True, text=True,
        cwd=str(Path(__file__).parent.parent))
    assert proc.returncode == 0, proc.stderr
    assert "aquaplanet" in proc.stdout


def test_cli_checkpoint_then_resume_subprocess(tmp_path):
    """End-to-end harness resume through the CLI, in a fresh interpreter."""
    repo = str(Path(__file__).parent.parent)
    ckdir = tmp_path / "ck"
    first = subprocess.run(
        [sys.executable, "-m", "repro.scenarios", "run", "control",
         "--days", "0.5", "--checkpoint-dir", str(ckdir), "--json"],
        capture_output=True, text=True, cwd=repo)
    assert first.returncode == 0, first.stderr
    out = json.loads(first.stdout)
    assert out["checkpoints"], "no checkpoint written"

    resumed = subprocess.run(
        [sys.executable, "-m", "repro.scenarios", "run", "control",
         "--days", "1.0", "--resume", out["checkpoints"][-1], "--json"],
        capture_output=True, text=True, cwd=repo)
    assert resumed.returncode == 0, resumed.stderr
    body = json.loads(resumed.stdout)
    assert body["resumed_from_step"] == 12
    assert body["run_key"] != out["run_key"]       # different total days
    assert 250.0 < body["climatology"]["ts_global_k"] < 320.0
