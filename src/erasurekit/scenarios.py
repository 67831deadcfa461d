"""Sweep curves for the two motivating arrangements.

eraser: the which-path channel read out in a rotated probe basis; the
assisted fidelity follows (1 + |sin 2 theta|)/2, hitting 1 at the Hadamard
angle theta = pi/4 where the outcome statistics decouple from every input
ensemble.

teleport: the partial-teleportation family; the canonical four-outcome
readout gives (1 + 2 sqrt(lam0 (1 - lam0)))/2, equal to 1 exactly at the
maximally entangled resource lam0 = 1/2.
"""

from __future__ import annotations

import numpy as np

from .channels import _check_entries, preset
from .erasure import assisted_fidelity
from .errors import ParamOutOfRange, UnknownScenario
from .optimizer import DEFAULT_MAX_ITERS, DEFAULT_TOL, _search
from .probes import joint_distribution, mutual_information, random_ensemble, rotation_measurement

ERASER_GRID = 33
TELEPORT_GRID = 21

# Members of the seeded ensemble whose mutual information the eraser curve reports.
ERASER_MEMBERS = 4

ERASER_COLUMNS = ("theta", "f_ea", "mutual_info")
TELEPORT_COLUMNS = ("lambda0", "f_ea_canonical", "f_ea_optimized")


def _grid(start: float, stop: float, points: int) -> np.ndarray:
    """``points`` evenly spaced values, refused before allocation when too few or too many."""
    if points < 2:
        raise ParamOutOfRange(f"grid must have at least 2 points, got {points}")
    _check_entries(points, f"a {points}-point grid")
    return np.linspace(start, stop, points)


def eraser_curve(points: int = ERASER_GRID, seed: int = 0):
    """Rows (theta, f_ea, mutual_info) over theta in [0, pi/2] for a fixed seeded ensemble."""
    grid = _grid(0.0, np.pi / 2, points)
    channel = preset("eraser_cnot")
    rho = np.eye(2, dtype=complex) / 2
    ens = random_ensemble(rho, ERASER_MEMBERS, np.random.default_rng([seed, 0]))
    rows = []
    for theta in grid:
        meas = rotation_measurement(theta)
        f_ea = assisted_fidelity(channel, rho, meas)
        info = mutual_information(joint_distribution(channel, ens, meas))
        rows.append((float(theta), f_ea, info))
    return rows


def teleport_curve(points: int = TELEPORT_GRID, seed: int = 0, restarts: int = 8):
    """Rows (lambda0, f_ea_canonical, f_ea_optimized) over lambda0 in [0, 1].

    f_ea_optimized is ``optimize_erasure(channel, rho, restarts=restarts,
    seed=seed).best_value`` at each grid point, bit for bit; the searches of
    all grid points run as one lockstep search. Raises ParamOutOfRange when
    ``restarts < 1``.
    """
    # every grid point holds its channel's 4 x 2 x 2 Kraus stack before the search
    _check_entries(points * 16, f"a {points}-point teleport grid")
    grid = _grid(0.0, 1.0, points)
    if restarts < 1:
        raise ParamOutOfRange(f"need restarts >= 1, got {restarts}")
    rho = np.eye(2, dtype=complex) / 2
    canonical, problems = [], []
    for lam0 in grid:
        channel = preset("partial_teleportation", lam0=float(lam0))
        canonical.append((float(lam0), assisted_fidelity(channel, rho)))
        problems.append(channel.stack @ rho)
    searches = _search(problems, len(problems[0]), restarts, DEFAULT_MAX_ITERS, DEFAULT_TOL, seed)
    return [(*row, best_value) for row, (_, best_value, _, _) in zip(canonical, searches)]


def scenario_curve(name: str, points: int | None = None, seed: int = 0, restarts: int = 8):
    """Dispatch by scenario name; returns (column names, rows).

    Raises ParamOutOfRange when ``restarts < 1``, whichever the name.
    """
    if restarts < 1:
        raise ParamOutOfRange(f"need restarts >= 1, got {restarts}")
    if name == "eraser":
        return ERASER_COLUMNS, eraser_curve(ERASER_GRID if points is None else points, seed)
    if name == "teleport":
        points = TELEPORT_GRID if points is None else points
        return TELEPORT_COLUMNS, teleport_curve(points, seed, restarts)
    raise UnknownScenario(f"unknown scenario {name!r}; choose eraser or teleport")
