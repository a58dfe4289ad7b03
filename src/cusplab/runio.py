"""Run configuration, serialization and manifests for the batch front-end.

Configs are INI files with sections [surface], [operator], [grid],
[tolerances] (plus the optional [xray]); unknown sections or keys are
rejected so a config never silently drifts, and every value is converted
to its type on load.  Tensor fields are dumped as a flat float64 binary
alongside a JSON header carrying the order, grid spec and frame
convention.
"""

import configparser
import hashlib
import itertools
import json
import math
import time
from pathlib import Path

import numpy as np

from .chart import ChartGrid
from .errors import InvalidInputError
from .operators import builtin_spec, spec_from_terms
from .surface import FuchsianSurface, punctured_torus


def _reals(text):
    return [float(x) for x in text.split()]


def _rows(text):
    return [_reals(row) for row in text.split(";") if row.strip()]


# every accepted key with the conversion of its value; [operator] also takes
# term<N> rows (converted by _reals)
_KEYS = {
    "surface": {"preset": str, "generators": _rows, "max_word_len": int},
    "operator": {"name": str, "d": int, "n_out": int, "n_in": int},
    "grid": {
        "r_half": float,
        "n": int,
        "r_min": float,
        "r_max": float,
        "n_r": int,
        "n_theta": int,
    },
    "tolerances": dict.fromkeys(
        ("xray", "weight", "weight_from", "weight_to", "root", "s", "window_lo", "window_hi"),
        float,
    ),
    "xray": {"mode": str, "class_cap": int, "tensor_file": str, "forms": int},
}


def load_config(path):
    """Parsed config: {section: {key: value}} with every value converted to
    its type, so malformed numbers fail here as invalid input."""
    parser = configparser.ConfigParser()
    try:
        read = parser.read(path)
    except configparser.Error as exc:
        raise InvalidInputError(f"malformed config {path}: {exc}") from None
    if not read:
        raise InvalidInputError(f"config file {path} not found or unreadable")
    cfg = {}
    for section in parser.sections():
        if section not in _KEYS:
            raise InvalidInputError(f"unknown config section [{section}]")
        cfg[section] = {}
        for key, value in parser.items(section):
            convert = _KEYS[section].get(key)
            if convert is None and section == "operator" and key.startswith("term"):
                convert = _reals
            if convert is None:
                raise InvalidInputError(f"unknown key {key!r} in section [{section}]")
            try:
                cfg[section][key] = convert(value.strip())
            except ValueError as exc:
                raise InvalidInputError(f"[{section}] {key}: {exc}") from None
    return cfg


def config_digest(cfg):
    """Stable hash of the parsed configuration."""
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def build_surface(cfg):
    sec = cfg.get("surface", {})
    preset = sec.get("preset", "punctured-torus")
    if "generators" in sec:
        gens = {}
        for i, vals in enumerate(sec["generators"]):
            if len(vals) != 4:
                raise InvalidInputError("each generator row needs four reals")
            gens[chr(ord("a") + i)] = np.array(vals).reshape(2, 2)
        return FuchsianSurface(generators=gens)
    if preset == "punctured-torus":
        return punctured_torus()
    raise InvalidInputError(f"unknown surface preset {preset!r}")


def build_operator(cfg):
    sec = cfg.get("operator", {})
    name = sec.get("name", "sym-laplacian")
    d = sec.get("d", 1)
    if name != "custom":
        return builtin_spec(name, d)
    if "n_out" not in sec or "n_in" not in sec:
        raise InvalidInputError("custom operator needs n_out and n_in")
    rows = [v for k, v in sorted(sec.items()) if k.startswith("term")]
    if not rows:
        raise InvalidInputError("custom operator needs term rows")
    return spec_from_terms(rows, sec["n_out"], sec["n_in"])


def build_line_grid(cfg):
    sec = cfg.get("grid", {})
    return sec.get("r_half", 48.0), sec.get("n", 4096)


def build_chart_grid(cfg):
    sec = cfg.get("grid", {})
    return ChartGrid(
        sec.get("r_min", -2.8), sec.get("r_max", 0.5), sec.get("n_r", 529), sec.get("n_theta", 256)
    )


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
    """Read a tensor written by save_tensor; a header that does not match
    the package's orders or the binary's size is invalid input."""
    from .tensorfield import _NCOMP, SymTensorField

    base = Path(path_base)
    try:
        header = json.loads(base.with_suffix(".json").read_text())
        data = np.fromfile(base.with_suffix(".bin"), dtype="<f8")
        order = header["order"]
        spec = [header[k] for k in ("r_min", "r_max", "n_r", "n_theta")]
    except (OSError, ValueError, KeyError) as exc:  # missing file, bad JSON, missing key
        raise InvalidInputError(f"cannot read tensor file {base}: {exc!r}") from None
    if order not in _NCOMP:
        raise InvalidInputError(f"tensor order {order!r} is not one of {sorted(_NCOMP)}")
    grid = ChartGrid(*spec)
    shape = (_NCOMP[order], grid.n_r, grid.n_theta)
    if data.size != math.prod(shape):
        raise InvalidInputError(
            f"{base.with_suffix('.bin')} holds {data.size} values; "
            f"order {order} on a {grid.n_r} x {grid.n_theta} grid needs {math.prod(shape)}"
        )
    return SymTensorField(grid, order, data.reshape(shape))


class ManifestWriter:
    """Collects outputs and timing for one CLI run."""

    def __init__(self, command, cfg, out_dir, version):
        self.command = command
        self.digest = config_digest(cfg)
        self.out_dir = Path(out_dir)
        self.version = version
        self.outputs = []
        self._t0 = time.perf_counter()

    def track(self, path):
        self.outputs.append(str(Path(path).name))
        return path

    def finalize(self):
        payload = {
            "command": self.command,
            "config_digest": self.digest,
            "tool_version": self.version,
            "outputs": sorted(self.outputs),
            "wall_time_seconds": round(time.perf_counter() - self._t0, 3),
        }
        return write_json(self.out_dir / "manifest.json", payload)
