"""The output check behind ``failed_member_frac``.

A member passes when every prognostic field is finite, its dry mass
(area-mean surface pressure) drifts by less than :data:`MASS_DRIFT_PER_DAY`
of itself per simulated day, and the run's final-state digest equals the
expected one (the first repeat's; for the concurrent workload, the serial
run's).  A digest mismatch or a run that raised fails every member.
"""

from __future__ import annotations

import copy
import hashlib

import numpy as np

#: The relative bound ``tests/test_dynamics.py::test_mass_conservation``
#: puts on a day of dynamics.
MASS_DRIFT_PER_DAY = 1e-4


def prognostic_fields(state) -> list[tuple[str, np.ndarray]]:
    """Every prognostic array of a coupled state, in a fixed order."""
    out = []
    for part in ("atm_prev", "atm_curr"):
        atm = getattr(state, part)
        out += [(f"{part}.{n}", getattr(atm, n))
                for n in ("vort", "div", "temp", "lnps", "q")]
    o = state.ocean
    out += [(f"ocean.{n}", getattr(o, n))
            for n in ("u", "v", "temp", "salt", "eta", "ubar", "vbar")]
    c = state.coupler
    out += [("coupler.soil_temp", c.land.soil_temp),
            ("coupler.soil_moisture", c.hydrology.soil_moisture),
            ("coupler.snow_depth", c.hydrology.snow_depth),
            ("coupler.ice_thickness", c.ice.thickness),
            ("coupler.ice_surface_temp", c.ice.surface_temp)]
    if c.river_volume is not None:
        out.append(("coupler.river_volume", c.river_volume))
    return out


def digest(state) -> str:
    """SHA-256 over the bytes, dtype and shape of every prognostic field."""
    h = hashlib.sha256(repr(state.time).encode())
    for name, arr in prognostic_fields(state):
        arr = np.ascontiguousarray(arr)
        h.update(f"{name}:{arr.dtype.str}:{arr.shape}".encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def members(state, nens: int) -> list:
    """The serial member states of a (possibly batched) state."""
    if nens == 1:
        return [state]
    from repro.core.ensemble import member_state
    return [member_state(state, e) for e in range(nens)]


def failed_members(model, nens: int, initial, final, days: float,
                   final_digest: str, expected_digest: str) -> int:
    """Members of one run that fail the output check."""
    if final_digest != expected_digest:
        return nens
    failed = 0
    for m0, m1 in zip(members(initial, nens), members(final, nens)):
        finite = all(np.all(np.isfinite(a))
                     for _, a in prognostic_fields(m1))
        mass0 = model.dycore.global_mass(m0.atm_curr)
        mass1 = model.dycore.global_mass(m1.atm_curr)
        drift = abs(mass1 - mass0) / mass0 / days
        # ``not drift < bound`` also fails a NaN drift.
        if not finite or not drift < MASS_DRIFT_PER_DAY:
            failed += 1
    return failed


def self_test(model, nens: int, initial, final, days: float) -> list[str]:
    """Show the check is not vacuous; returns the problems found.

    A final state with one NaN must fail a member, and a digest that
    differs from the expected one must fail every member.
    """
    problems = []
    bad = copy.deepcopy(final)
    bad.atm_curr.temp.flat[0] = np.nan
    bad_digest = digest(bad)
    if failed_members(model, nens, initial, bad, days,
                      bad_digest, bad_digest) < 1:
        problems.append("a NaN in the final state passed the check")
    good = digest(final)
    other = hashlib.sha256(good.encode()).hexdigest()
    if failed_members(model, nens, initial, final, days,
                      good, other) != nens:
        problems.append("a digest mismatch passed the check")
    return problems
