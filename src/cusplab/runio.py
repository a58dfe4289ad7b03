"""Run configuration, serialization and manifests for the batch front-end.

Configs are INI files with sections [surface], [operator], [grid],
[tolerances] and [xray]; unknown sections or keys are rejected so a config
never silently drifts, and every value is converted to its type on load.
Each key's conversion and default live once, in ``_KEYS``: a key the
config omits takes its default.  Tensor fields are dumped as a flat
float64 binary alongside a JSON header carrying the order, grid spec and
frame convention.
"""

import configparser
import hashlib
import itertools
import json
import math
import time
from pathlib import Path

import numpy as np

from . import __version__
from .chart import ChartGrid
from .errors import InvalidInputError
from .operators import builtin_spec, indicial_family, spec_from_terms
from .surface import FuchsianSurface, punctured_torus
from .tensorfield import SymTensorField


def _reals(text):
    return [float(x) for x in text.split()]


def _rows(text):
    return [_reals(row) for row in text.split(";") if row.strip()]


def _checked(convert, valid, rule):
    """The conversion ``convert``, rejecting a value that fails ``valid``
    as not ``rule``."""

    def check(text):
        value = convert(text)
        if not valid(value):
            raise ValueError(f"must be {rule}, got {value}")
        return value

    return check


_positive_int = _checked(int, lambda v: v >= 1, "at least 1")
_positive_finite = _checked(float, lambda v: 0 < v < math.inf, "positive and finite")
_finite = _checked(float, math.isfinite, "finite")


# every accepted key as (conversion of its value, default); None marks a key
# with no default, which the subcommand that needs it asks for.  [operator]
# also takes term<N> rows (converted by _reals)
_KEYS = {
    "surface": {
        "generators": (_rows, None),
        "max_word_len": (int, 6),
    },
    "operator": {
        "name": (str, "sym-laplacian"),
        "d": (_checked(int, lambda v: v >= 0, "at least 0"), 1),
        "n_out": (_positive_int, None),
        "n_in": (_positive_int, None),
    },
    "grid": {
        "r_half": (_positive_finite, 48.0),
        "n": (_positive_int, 4096),
        "r_min": (float, -2.8),
        "r_max": (float, 0.5),
        "n_r": (int, 529),
        "n_theta": (int, 256),
    },
    "tolerances": {
        "xray": (_positive_finite, 1e-9),
        "weight": (float, 0.0),
        "weight_from": (float, None),
        "weight_to": (float, None),
        "root": (_finite, None),
        "s": (float, 0.5),
        "window_lo": (float, -10.0),
        "window_hi": (float, 10.0),
    },
    "xray": {
        "mode": (str, "metric"),
        "class_cap": (_positive_int, 50),
        "tensor_file": (str, None),
        "forms": (int, 3),
    },
}


def load_config(path):
    """Filled config: {section: {key: value}} for every section and key of
    ``_KEYS``, each value the one the INI file at ``path`` gives, converted
    to its type, or else the key's default.  ``path`` None reads no file
    and gives the defaults.  Malformed numbers fail here as invalid input."""
    cfg = {
        section: {key: default for key, (_, default) in keys.items()}
        for section, keys in _KEYS.items()
    }
    if path is None:
        return cfg
    parser = configparser.ConfigParser()
    try:
        read = parser.read(path)
    except configparser.Error as exc:
        raise InvalidInputError(f"malformed config {path}: {exc}") from None
    if not read:
        raise InvalidInputError(f"config file {path} not found or unreadable")
    for section in parser.sections():
        if section not in _KEYS:
            raise InvalidInputError(f"unknown config section [{section}]")
        for key, value in parser.items(section):
            if key in _KEYS[section]:
                convert = _KEYS[section][key][0]
            elif section == "operator" and key.startswith("term"):
                convert = _reals
            else:
                raise InvalidInputError(f"unknown key {key!r} in section [{section}]")
            try:
                cfg[section][key] = convert(value.strip())
            except ValueError as exc:
                raise InvalidInputError(f"[{section}] {key}: {exc}") from None
    return cfg


def config_digest(cfg):
    """Stable hash of the filled configuration: a config that spells out a
    default and one that omits it hash alike."""
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def build_surface(cfg):
    """The group of the configured generator rows; the punctured torus when
    the config gives none."""
    rows = cfg["surface"]["generators"]
    if rows is None:
        return punctured_torus()
    gens = {}
    for i, vals in enumerate(rows):
        if len(vals) != 4:
            raise InvalidInputError("each generator row needs four reals")
        gens[chr(ord("a") + i)] = np.array(vals).reshape(2, 2)
    return FuchsianSurface(generators=gens)


def build_operator(cfg):
    """Indicial family of the configured operator."""
    sec = cfg["operator"]
    if sec["name"] != "custom":
        return indicial_family(builtin_spec(sec["name"], sec["d"]))
    if sec["n_out"] is None or sec["n_in"] is None:
        raise InvalidInputError("custom operator needs n_out and n_in")
    rows = [v for k, v in sorted(sec.items()) if k.startswith("term")]
    if not rows:
        raise InvalidInputError("custom operator needs term rows")
    return indicial_family(spec_from_terms(rows, sec["n_out"], sec["n_in"]))


def build_chart_grid(cfg):
    sec = cfg["grid"]
    return ChartGrid(sec["r_min"], sec["r_max"], sec["n_r"], sec["n_theta"])


# ---------------------------------------------------------------------------
# artifact writers (deterministic formatting)
# ---------------------------------------------------------------------------


def _json_value(obj):
    # complex numbers as [re, im]; numpy arrays and scalars as Python values
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def write_json(path, payload):
    path = Path(path)
    path.write_text(json.dumps(payload, sort_keys=True, indent=2, default=_json_value) + "\n")
    return path


def write_csv(path, header, rows):
    """Header line, then one line per row: floats (numpy's included) as
    "%.17g", anything else as str.  Each run of rows with the same cell
    types is formatted by one % operation and written as it is made, so
    no per-cell or per-line strings and no copy of the whole file are
    built."""
    path = Path(path)
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for kinds, run in itertools.groupby(rows, lambda row: tuple(map(type, row))):
            run = list(run)
            fmt = ",".join("%.17g" if issubclass(t, float) else "%s" for t in kinds) + "\n"
            fh.write(fmt * len(run) % tuple(itertools.chain.from_iterable(run)))
    return path


def save_tensor(path_base, field):
    """Flat binary dump plus JSON header (order, grid spec, frame)."""
    base = Path(path_base)
    data_path = base.with_suffix(".bin")
    header_path = base.with_suffix(".json")
    field.comps.astype("<f8").tofile(data_path)
    header = {
        "order": field.order,
        "r_min": field.grid.r_min,
        "r_max": field.grid.r_max,
        "n_r": field.grid.n_r,
        "n_theta": field.grid.n_theta,
        "frame": "orthonormal dy/y, dtheta/y; order-2 components (s, t, x) "
        "with x on the symmetrized mixed product (Gram weight 2)",
        "dtype": "<f8",
        "layout": "component-major (ncomp, n_r, n_theta)",
    }
    write_json(header_path, header)
    return data_path, header_path


def load_tensor(path_base):
    """Read a tensor written by save_tensor; a header whose order or grid
    size is not a JSON integer or does not match the package's orders or the
    binary's size, or a NaN or infinite value, is invalid input."""
    base = Path(path_base)
    try:
        header = json.loads(base.with_suffix(".json").read_text())
        data = np.fromfile(base.with_suffix(".bin"), dtype="<f8")
        order = header["order"]
        spec = [header[k] for k in ("r_min", "r_max", "n_r", "n_theta")]
    except (OSError, ValueError, KeyError) as exc:  # missing file, bad JSON, missing key
        raise InvalidInputError(f"cannot read tensor file {base}: {exc!r}") from None
    for key, value in (("order", order), ("n_r", spec[2]), ("n_theta", spec[3])):
        if type(value) is not int:  # a JSON integer: not a float, not a boolean
            raise InvalidInputError(f"tensor header {key} {value!r} is not an integer")
    if order not in (0, 1, 2):
        raise InvalidInputError(f"tensor order {order!r} is not one of [0, 1, 2]")
    grid = ChartGrid(*spec)
    shape = (order + 1, grid.n_r, grid.n_theta)
    if data.size != math.prod(shape):
        raise InvalidInputError(
            f"{base.with_suffix('.bin')} holds {data.size} values; "
            f"order {order} on a {grid.n_r} x {grid.n_theta} grid needs {math.prod(shape)}"
        )
    bad = int(np.count_nonzero(~np.isfinite(data)))
    if bad:
        raise InvalidInputError(f"{base.with_suffix('.bin')} holds {bad} non-finite values")
    return SymTensorField(grid, data.reshape(shape))


def write_manifest(out_dir, command, cfg, outputs, t0):
    """manifest.json of one CLI run: the command, the filled config's
    digest, the tool version, the names of the files written and the wall
    time since ``t0``, a time.perf_counter() reading."""
    payload = {
        "command": command,
        "config_digest": config_digest(cfg),
        "tool_version": __version__,
        "outputs": sorted(Path(path).name for path in outputs),
        "wall_time_seconds": round(time.perf_counter() - t0, 3),
    }
    return write_json(Path(out_dir) / "manifest.json", payload)
