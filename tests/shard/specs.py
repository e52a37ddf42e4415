"""Shared fleet specs for the shard tests."""

from repro.build.presets import fleet_hotspot_world


def tight_spec(seed):
    """Fast walkers, short dwell, a 10 % cap: cells fill up, so roams get
    declined and clients come back to their home cells.  No proxy
    prefetch, so a byte lost or double-counted in migration shows up as
    a backlog shortfall in the record."""
    return fleet_hotspot_world(
        n_clients=14,
        n_aps=4,
        utilisation_cap=0.1,
        speed_range_m_s=(3.0, 8.0),
        pause_range_s=(0.0, 1.0),
        min_dwell_s=1.0,
        duration_s=20.0,
        server_prefetch_s=0.0,
        seed=seed,
    )
