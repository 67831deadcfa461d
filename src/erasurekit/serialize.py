"""JSON and CSV encodings shared by the CLI and the file schemas.

Complex numbers serialize as [re, im] pairs and matrices as lists of rows,
chosen for lossless round-trips of doubles. CSV uses '.' decimals, ','
separators, and 17 significant digits so rows round-trip exactly; JSON output
is key-sorted, making repeated runs byte-identical.
"""

from __future__ import annotations

import json

import numpy as np

from .channels import KrausChannel, kraus_channel, preset
from .errors import DimensionMismatch, ErasureKitError
from .optimizer import OptimizationResult, RandomUnitaryVerdict
from .probes import Ensemble, ProbeMeasurement, ensemble, probe_measurement


def encode_matrix(m) -> list:
    m = np.asarray(m, dtype=complex)
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def decode_matrix(rows) -> np.ndarray:
    try:
        m = np.asarray(
            [[complex(entry[0], entry[1]) for entry in row] for row in rows]
        )
    except (TypeError, IndexError, ValueError) as exc:
        raise DimensionMismatch(f"matrix entries must be [re, im] pairs: {exc}") from exc
    if m.ndim != 2:
        raise DimensionMismatch("matrix rows have inconsistent lengths")
    return m


def channel_to_dict(channel: KrausChannel) -> dict:
    return {"dim": channel.dim, "kraus": [encode_matrix(e) for e in channel.operators]}


def channel_from_dict(data: dict) -> KrausChannel:
    if "preset" in data:
        return preset(data["preset"], **data.get("params", {}))
    if "kraus" not in data:
        raise DimensionMismatch('channel JSON needs a "kraus" list or a "preset" name')
    ch = kraus_channel([decode_matrix(m) for m in data["kraus"]])
    if "dim" in data and int(data["dim"]) != ch.dim:
        raise DimensionMismatch(
            f'declared dim {data["dim"]} does not match operators of dim {ch.dim}'
        )
    return ch


def ensemble_from_dict(data: dict) -> Ensemble:
    if "members" not in data:
        raise DimensionMismatch('ensemble JSON needs a "members" list')
    return ensemble([decode_matrix(m) for m in data["members"]])


def measurement_from_dict(data: dict) -> ProbeMeasurement:
    if "mixing" not in data:
        raise DimensionMismatch('measurement JSON needs a "mixing" matrix')
    return probe_measurement(decode_matrix(data["mixing"]))


def density_from_dict(data: dict) -> np.ndarray:
    if "matrix" not in data:
        raise DimensionMismatch('state JSON needs a "matrix"')
    return decode_matrix(data["matrix"])


def result_to_dict(result: OptimizationResult) -> dict:
    out = {
        "best_mixing": encode_matrix(result.best_mixing.mixing),
        "best_value": result.best_value,
        "converged": result.converged,
        "trace": [[r, i, v] for r, i, v in result.trace],
    }
    if result.oracle_value is not None:
        out["oracle_value"] = result.oracle_value
    return out


def verdict_to_dict(verdict: RandomUnitaryVerdict) -> dict:
    out = {
        "is_random_unitary": verdict.is_random_unitary,
        "residual": verdict.residual,
    }
    if verdict.witness is not None:
        out["witness"] = [
            {"weight": w, "unitary": encode_matrix(u)} for w, u in verdict.witness
        ]
    return out


def dumps_stable(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def dumps_compact(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def load_json(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ErasureKitError(f"malformed JSON in {path}: {exc}") from exc


def fmt17(x: float) -> str:
    """17 significant digits: exact round-trip for doubles."""
    return format(float(x), ".17g")


def csv_line(values) -> str:
    parts = []
    for v in values:
        if isinstance(v, bool):
            parts.append("true" if v else "false")
        elif isinstance(v, (int, np.integer)):
            parts.append(str(int(v)))
        elif v is None:
            parts.append("")
        elif isinstance(v, str):
            parts.append(v)
        else:
            parts.append(fmt17(v))
    return ",".join(parts)
