"""Deterministic JSON for profiles.

Output bytes depend only on the values.  Every float is written as its
shortest repr, the shortest decimal that reads back as the same double, so
the round trip is exact and 20.0 stays 20.0 and -0.0 stays -0.0.  Keys keep
insertion order, there is no whitespace, NaN and infinities are refused, and
numpy arrays and scalars are written as the lists and numbers they hold.

A profile document holds m, omega, nu, the fields of core.Profile and
the zero count.  The samples are the profile's half line: "cutoff", "n" and
"half_h", the (n + 1) / 2 values of h at the nodes x >= 0 of
symmetric_grid(cutoff, n).  The reader hands them to Profile, which derives
grid, h and dh from them, so the loaded profile is bitwise the saved one.
The zero count is written for readers of the file but not read back: a
loaded profile counts the sign changes of its h.  A document of any other
shape is refused, among them the explicit "grid", "h" and "dh" arrays of
files from before the half-line form, and a class other than even and odd.

Readers see only values of the kind the writer writes: integer() takes a
JSON integer, number() a finite JSON integer or float, listed() a list of
JSON integers and floats or of strings, and floats() a list of finite
numbers as a float array; a boolean or a string is never a number.  read_json
refuses NaN, Infinity and -Infinity, which dumps never writes.

A perturbation nu is written as its own samples, {"grid": ..., "values":
...}, in a profile document and in a sweep report alike, so it reads back
exactly, support radius included.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager

import numpy as np

from .core import NuPerturbation, ProblemParams, Profile


def format_float(x: float) -> str:
    """The float spelling of dumps, for CSV cells."""
    x = float(x)
    if not math.isfinite(x):
        raise ValueError("non-finite values are not serialisable")
    return repr(x)


def _numpy_to_python(obj):
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"cannot serialise {type(obj).__name__}")


def dumps(obj) -> str:
    """Compact JSON of dicts/lists/scalars/numpy values, floats as shortest repr."""
    return json.dumps(obj, separators=(",", ":"), allow_nan=False,
                      default=_numpy_to_python)


def nu_to_doc(nu: NuPerturbation | None):
    return None if nu is None else {"grid": nu.grid, "values": nu.values}


def nu_from_doc(doc) -> NuPerturbation | None:
    if doc is None:
        return None
    return NuPerturbation(floats(doc, "grid"), floats(doc, "values"))


def profile_to_doc(prof: Profile) -> dict:
    """Plain-dict form of a profile (see the module docstring); nu is null
    when the problem has none."""
    return {
        "m": prof.params.m,
        "omega": prof.params.omega,
        "nu": nu_to_doc(prof.params.nu),
        "cutoff": prof.cutoff,
        "n": prof.n,
        "half_h": prof.half_h,
        "symmetry_class": prof.symmetry_class,
        "residual_norm": prof.residual_norm,
        "zero_count": prof.zero_count,
        "provenance": prof.provenance,
    }


@contextmanager
def reading(what: str, *, refused_values: bool = False):
    """Turn a missing key (KeyError) or a value of the wrong shape (TypeError)
    met while reading a document into ValueError, its message prefixed by
    what; with refused_values, prefix a ValueError's message too.  Leave that
    off where the body raises ValueErrors that already say what they read."""
    try:
        yield
    except KeyError as exc:
        raise ValueError(f"{what}: no {exc.args[0]!r}") from None
    except TypeError as exc:
        raise ValueError(f"{what}: {exc}") from None
    except ValueError as exc:
        if not refused_values:
            raise
        raise ValueError(f"{what}: {exc}") from None


_KINDS = {bool: "boolean", str: "string", list: "array", dict: "object", type(None): "null"}


def _is_number_type(t: type) -> bool:
    return issubclass(t, (int, float)) and not issubclass(t, bool)


def integer(value) -> int:
    """value, which must be an integer (a JSON integer; not a float, true
    or false)."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"invalid literal for int(): {value!r}")
    return value


def number(value) -> float:
    """value as a finite float; it must be a number (a JSON integer or
    float; not true, false or a string), and not a literal such as 1e999
    that overflows to infinity."""
    if not _is_number_type(type(value)):
        raise ValueError(f"could not convert {_KINDS.get(type(value), 'value')} "
                         f"to float: {value!r}")
    if not _all_finite([value]):
        raise ValueError(f"{value!r} is not a finite number")
    return float(value)


def _all_finite(values) -> bool:
    """Whether every number in values is finite as a float; an integer
    beyond the float range is not."""
    try:
        return bool(np.isfinite(np.asarray(values, dtype=float)).all())
    except OverflowError:
        return False


def listed(doc: dict, key: str, noun: str = "number"):
    """doc[key], which must be a list (or, as profile_to_doc writes it, a
    numpy array) of numbers of the kinds number() takes, or of strings."""
    values = doc[key]
    if not isinstance(values, (list, np.ndarray)):
        raise ValueError(f"{key} is not a list: {values!r}")
    accepts = _is_number_type if noun == "number" else lambda t: issubclass(t, str)
    # one check per type held, not per value
    refused = {t for t in set(map(type, values)) if not accepts(t)}
    if refused:
        v = next(v for v in values if type(v) in refused)
        raise ValueError(f"{key} holds {v!r}, not a {noun}")
    return values


def floats(doc: dict, key: str) -> np.ndarray:
    """listed(doc, key) as a float array, converted once; every value must
    be finite as a float."""
    values = listed(doc, key)
    try:
        a = np.asarray(values, dtype=float)
    except OverflowError:
        a = None
    if a is None or not np.isfinite(a).all():
        v = next(v for v in values if not _all_finite([v]))
        raise ValueError(f"{key} holds {v!r}, not a finite number")
    return a


def refuse_unknown(doc: dict, keys) -> None:
    """ValueError naming the keys of doc that are not in keys."""
    unknown = sorted(doc.keys() - set(keys))
    if unknown:
        raise ValueError(f"unknown keys {unknown}")


# what profile_to_doc writes; a document with any other key is refused
_PROFILE_KEYS = {"m", "omega", "nu", "cutoff", "n", "half_h", "symmetry_class",
                 "residual_norm", "zero_count", "provenance"}


def profile_from_doc(doc: dict, what: str = "not a profile document") -> Profile:
    """profile_to_doc's profile; ValueError, its message prefixed by what, on
    a missing key, a value of the wrong kind or shape, or a value that the
    profile's own checks refuse."""
    with reading(what, refused_values=True):
        half_h, n = floats(doc, "half_h"), integer(doc["n"])
        refuse_unknown(doc, _PROFILE_KEYS)
        if n % 2 == 0:
            raise ValueError("grid size must be odd and >= 3")
        if len(half_h) != (n + 1) // 2:
            raise ValueError(f"{len(half_h)} values in half_h, n = {n}")
        params = ProblemParams(integer(doc["m"]), number(doc["omega"]),
                               nu_from_doc(doc.get("nu")))
        residual = doc["residual_norm"]
        return Profile(params, doc["symmetry_class"], number(doc["cutoff"]), half_h,
                       residual_norm=None if residual is None else number(residual),
                       provenance=str(doc.get("provenance", "")))


def write_json(doc, path) -> None:
    """dumps(doc) and a newline, as the file at path."""
    with open(path, "w", encoding="ascii", newline="\n") as f:
        f.write(dumps(doc))
        f.write("\n")


def _refuse_constant(name: str):
    raise ValueError(f"{name} is not a number")


def read_json(path):
    """The document in the file at path; ValueError naming path if the file
    is not JSON, NaN, Infinity and -Infinity included."""
    with open(path, "r", encoding="ascii") as f:
        try:
            return json.load(f, parse_constant=_refuse_constant)
        except ValueError as exc:
            raise ValueError(f"{path} is not JSON: {exc}") from None


def save_profile(prof: Profile, path) -> None:
    write_json(profile_to_doc(prof), path)


def load_profile(path) -> Profile:
    return profile_from_doc(read_json(path), f"{path} is not a profile document")
