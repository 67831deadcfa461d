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

from . import numerics
from .channels import _check_entries, preset
from .errors import ParamOutOfRange, UnknownScenario
from .optimizer import DEFAULT_MAX_ITERS, DEFAULT_TOL, _problem, _search
from .probes import _information, _joint, random_ensemble

ERASER_GRID = 33
TELEPORT_GRID = 21
TELEPORT_RESTARTS = 8

# Members of the seeded ensemble whose mutual information the eraser curve reports.
ERASER_MEMBERS = 4

ERASER_COLUMNS = ("theta", "f_ea", "mutual_info")
TELEPORT_COLUMNS = ("lambda0", "f_ea_canonical", "f_ea_optimized")


def _grid(start: float, stop: float, points: int, entries: int) -> np.ndarray:
    """``points`` evenly spaced values, refused before allocation when too few, or when
    the sweep's ``entries`` complex entries per point exceed the cap."""
    if points < 2:
        raise ParamOutOfRange(f"grid must have at least 2 points, got {points}")
    _check_entries(points * entries, f"a {points}-point grid")
    return np.linspace(start, stop, points)


def eraser_curve(points: int = ERASER_GRID, seed: int = 0):
    """Rows (theta, f_ea, mutual_info) over theta in [0, pi/2] for a fixed seeded ensemble;
    the readouts of all grid points are one stack, whose f_ea, joint distributions and
    mutual informations each come from one kernel call."""
    # the sweep's arrays peak at 480 B per grid point (tracemalloc), in _joint:
    # theta, cos, sin and f_ea 32, the mixing 64, the branches 128, and two
    # arrays of 128 at once, the conjugate branches and their effects, then the
    # effects and the complex joint; so a point counts 30 complex entries
    grid = _grid(0.0, np.pi / 2, points, 30)
    channel = preset("eraser_cnot")
    rho = np.eye(2, dtype=complex) / 2
    ens = random_ensemble(rho, ERASER_MEMBERS, np.random.default_rng([seed, 0]))
    c, s = np.cos(grid), np.sin(grid)
    mixings = np.stack([c, s, -s, c], axis=-1).reshape(-1, 2, 2).astype(complex)
    refined = np.einsum("pjk,kab->pjab", mixings, channel.stack)
    f_ea = (numerics._trace_norms(refined @ rho) ** 2).sum(axis=1)
    info = _information(_joint(ens.stack, refined))
    return list(zip(grid.tolist(), f_ea.tolist(), info.tolist()))


def teleport_curve(points: int = TELEPORT_GRID, seed: int = 0, restarts: int = TELEPORT_RESTARTS):
    """Rows (lambda0, f_ea_canonical, f_ea_optimized) over lambda0 in [0, 1].

    f_ea_optimized is ``optimize_erasure(channel, rho, restarts=restarts,
    seed=seed).best_value`` at each grid point, bit for bit; the searches of
    all grid points run as one lockstep search. f_ea_canonical is the value at
    the canonical mixing W = I, where each search's restart 0 starts: its
    first trace row. Raises ParamOutOfRange when ``restarts < 1``.
    """
    # every grid point holds its channel's 4 x 2 x 2 Kraus stack before the search
    grid = _grid(0.0, 1.0, points, 16)
    if restarts < 1:
        raise ParamOutOfRange(f"need restarts >= 1, got {restarts}")
    channels = [preset("partial_teleportation", lam0=float(x)) for x in grid]
    ops = np.stack([_problem(channel, None)[1] for channel in channels])
    searches = _search(ops, 4, restarts, DEFAULT_MAX_ITERS, DEFAULT_TOL, seed)
    return [(float(x), trace[0][2], best) for x, (_, best, _, trace) in zip(grid, searches)]


def scenario_curve(
    name: str, points: int | None = None, seed: int = 0, restarts: int = TELEPORT_RESTARTS
):
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
