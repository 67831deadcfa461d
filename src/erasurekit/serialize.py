"""JSON and CSV encodings shared by the CLI and the file schemas.

Complex numbers serialize as [re, im] pairs and matrices as lists of rows,
for lossless round-trips of doubles; CSV rows use '.' decimals, ',' separators
and 17 significant digits for the same reason. JSON is key-sorted, so reruns
are byte-identical: files are one compact line, stdout summaries indented.
"""

from __future__ import annotations

import json

import numpy as np

from .channels import KrausChannel, _count, _is_real, kraus_channel, preset
from .errors import DimensionMismatch, ErasureKitError, ParamOutOfRange
from .optimizer import OptimizationResult, RandomUnitaryVerdict
from .probes import Ensemble, ProbeMeasurement, ensemble, probe_measurement


def encode_matrix(m) -> list:
    m = np.asarray(m, dtype=complex)
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def _is_pair(entry) -> bool:
    return isinstance(entry, (list, tuple)) and len(entry) == 2 and all(map(_is_real, entry))


def decode_matrix(rows) -> np.ndarray:
    """A matrix from a list of rows of [re, im] pairs of numbers, checked before numpy sees it."""
    if not isinstance(rows, (list, tuple)) or not all(
        isinstance(row, (list, tuple)) and all(map(_is_pair, row)) for row in rows
    ):
        raise DimensionMismatch("a matrix must be a list of rows of [re, im] pairs of numbers")
    if not rows or len({len(row) for row in rows}) != 1:
        raise DimensionMismatch("matrix rows have inconsistent lengths")
    return np.asarray([[complex(re, im) for re, im in row] for row in rows])


def channel_from_dict(data: dict) -> KrausChannel:
    """A channel from its JSON form, with types and nesting checked before numpy sees them."""
    if not isinstance(data, dict):
        raise DimensionMismatch(f"channel JSON must be an object, got {type(data).__name__}")
    if "preset" in data:
        params = data.get("params", {})
        if not isinstance(params, dict):
            raise ParamOutOfRange(f'"params" must be an object, got {type(params).__name__}')
        return preset(data["preset"], **params)
    if "kraus" not in data:
        raise DimensionMismatch('channel JSON needs a "kraus" list or a "preset" name')
    kraus = data["kraus"]
    if not isinstance(kraus, list):
        raise DimensionMismatch(f'"kraus" must be a list of matrices, got {type(kraus).__name__}')
    ch = kraus_channel([decode_matrix(m) for m in kraus])
    if "dim" in data and _count("dim", data["dim"]) != ch.dim:
        raise DimensionMismatch(
            f'declared dim {data["dim"]} does not match operators of dim {ch.dim}'
        )
    return ch


def _field(data, key: str, what: str):
    if not isinstance(data, dict) or key not in data:
        raise DimensionMismatch(f'{what} JSON needs an object with a "{key}" entry')
    return data[key]


def ensemble_from_dict(data: dict) -> Ensemble:
    members = _field(data, "members", "ensemble")
    if not isinstance(members, list):
        raise DimensionMismatch(
            f'"members" must be a list of matrices, got {type(members).__name__}'
        )
    return ensemble([decode_matrix(m) for m in members])


def measurement_from_dict(data: dict) -> ProbeMeasurement:
    return probe_measurement(decode_matrix(_field(data, "mixing", "measurement")))


def density_from_dict(data: dict) -> np.ndarray:
    return decode_matrix(_field(data, "matrix", "state"))


def result_to_dict(result: OptimizationResult) -> dict:
    return {
        "best_mixing": encode_matrix(result.best_mixing.mixing),
        "best_value": result.best_value,
        "converged": result.converged,
        "trace": result.trace,
    }


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
    except (ValueError, RecursionError) as exc:
        raise ErasureKitError(f"malformed JSON in {path}: {exc}") from exc


def fmt17(x: float) -> str:
    """17 significant digits: exact round-trip for doubles."""
    return format(float(x), ".17g")


def csv_line(values) -> str:
    """One CSV row: ints as written, every other value through ``fmt17``."""
    return ",".join(str(v) if isinstance(v, int) else fmt17(v) for v in values)
