"""Bad input at the CLI: one ``error:`` line naming the field, exit 2.

Each probe is a value outside the domain of a spec field or of a
checked argument.  It must fail before anything runs: nothing on
stdout, no traceback, and the message names the field it broke.
"""

import pytest

from repro.__main__ import main

#: ``(argv, field named in the message)``; STORE and FILE are replaced
#: by paths under the test's tmp_path.
PROBES = [
    (["fig2", "--duration=nan"], "WorldSpec.duration_s"),
    (["fig2", "--duration=inf"], "WorldSpec.duration_s"),
    (["fig2", "--duration=-inf"], "WorldSpec.duration_s"),
    (["fig2", "--duration=-5"], "WorldSpec.duration_s"),
    (["fig2", "--clients", "0"], "uniform_nodes.count"),
    (["campaign", "--jobs", "0"], "run_campaign.jobs"),
    (["campaign", "--seeds", "0"], "CampaignSpec.seeds"),
    (["campaign", "--set", "duration_s=nan"], "WorldSpec.duration_s"),
    (["campaign", "--set", "duration_s=inf"], "got inf"),
    (["campaign", "--run-timeout", "nan"], "run_campaign.run_timeout_s"),
    (
        ["campaign", "--timeseries", "nan", "--store", "STORE"],
        "CampaignSpec.timeseries_interval_s",
    ),
    (["sweep-bursts", "--duration", "nan"], "WorldSpec.duration_s"),
    (
        ["fig2", "--timeseries", "FILE", "--timeseries-interval", "nan"],
        "timeseries_interval_s",
    ),
    (["crossval", "--surrogate-fraction", "2"], "refine_campaign.fraction"),
    (["crossval", "--tolerance", "nan"], "ToleranceContract.relative"),
    (["crossval", "--tolerance=-1"], "ToleranceContract.relative"),
    (["crossval", "--packet-bytes", "0"], "psm_crossval_world.packet_bytes"),
    (["fleet", "--shards=-1"], "run_sharded_fleet.shards"),
    (["fleet", "--grid", "0x3"], "FleetSpec.grid_rows"),
    (["analytic", "psm-energy", "--set", "rate_bps=inf"], "PsmParams.rate_bps"),
    (["analytic", "psm-energy", "--set", "n_stations=2.5"], "PsmParams.n_stations"),
    (["analytic", "psm-energy", "--set", "bogus=1"], "PsmParams has no field 'bogus'"),
    (["analytic", "bogus"], "predictor"),
    (["campaign", "--set", "bogus=1"], "'bogus'"),
    (
        ["crossval", "--n-clients", "1,1"],
        "CampaignSpec.grid['n_clients'] must not repeat a value; got 1 twice",
    ),
    (
        ["campaign", "--param", "n_clients=1,1"],
        "CampaignSpec.grid['n_clients'] must not repeat a value; got 1 twice",
    ),
    (["fleet", "--utilisation-cap", "2"], "WorldSpec.utilisation_cap"),
    (
        ["crossval", "--surrogate-fraction", "0.5", "--surrogate-mode", "target"],
        "score_grid.target",
    ),
    (["crossval", "--suite", "unap", "--listen", "1,2"], "--listen"),
    (["crossval", "--suite", "unap", "--direction", "uplink"], "--direction"),
    (["crossval", "--suite", "unap", "--light-duration", "5"], "--light-duration"),
    (["crossval", "--suite", "unap", "--offered", "1e5,2e5"], "--offered"),
    (
        ["crossval", "--suite", "unap", "--surrogate-fraction", "0.5"],
        "--surrogate-fraction",
    ),
    (
        ["crossval", "--surrogate-metric", "wnic_power_w"],
        "--surrogate-metric needs --surrogate-fraction",
    ),
    (
        ["crossval", "--surrogate-mode", "target"],
        "--surrogate-mode needs --surrogate-fraction",
    ),
    (
        ["crossval", "--surrogate-target", "0.5"],
        "--surrogate-target needs --surrogate-fraction",
    ),
    (
        ["crossval", "--suite", "unap", "--surrogate-mode", "target",
         "--surrogate-target", "0.5"],
        "--surrogate-mode needs --surrogate-fraction",
    ),
    (
        ["crossval", "--surrogate-fraction", "0.5", "--surrogate-target", "0.5"],
        "--surrogate-target needs --surrogate-mode target",
    ),
    (
        ["crossval", "--surrogate-fraction", "0.5", "--surrogate-mode",
         "gradient", "--surrogate-target", "0.5"],
        "--surrogate-target needs --surrogate-mode target",
    ),
]


@pytest.mark.parametrize(
    "argv, field", PROBES, ids=[" ".join(argv) for argv, _ in PROBES]
)
def test_bad_input_ends_in_error_and_exit_2(argv, field, tmp_path, capsys):
    paths = {"STORE": str(tmp_path / "store"), "FILE": str(tmp_path / "ts.jsonl")}
    status = main([paths.get(arg, arg) for arg in argv])
    out, err = capsys.readouterr()
    assert (status, out) == (2, "")
    assert err.startswith("error: ") and field in err
    assert "Traceback" not in err
