"""Run configuration, serialization and manifests for the batch front-end.

Configs are INI files with sections [surface], [operator], [grid],
[tolerances] (plus the optional [xray]); unknown sections or keys are
rejected so a config never silently drifts.  Tensor fields are dumped as a
flat float64 binary alongside a JSON header carrying the order, grid spec
and frame convention.
"""

import configparser
import hashlib
import json
import time
from pathlib import Path

import numpy as np

from .chart import ChartGrid
from .errors import InvalidInputError
from .operators import builtin_spec, spec_from_terms
from .surface import FuchsianSurface, punctured_torus

_ALLOWED = {
    "surface": {"preset", "generators", "cusp_width", "max_word_len"},
    "operator": {"name", "d", "n_out", "n_in"},  # plus term<N> keys
    "grid": {"r_half", "n", "r_min", "r_max", "n_r", "n_theta"},
    "tolerances": {
        "xray",
        "solver",
        "weight",
        "weight_from",
        "weight_to",
        "root",
        "s",
        "window_lo",
        "window_hi",
    },
    "xray": {"mode", "seed", "class_cap", "tensor_file", "forms"},
}


def load_config(path):
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise InvalidInputError(f"config file {path} not found or unreadable")
    cfg = {}
    for section in parser.sections():
        if section not in _ALLOWED:
            raise InvalidInputError(f"unknown config section [{section}]")
        cfg[section] = {}
        for key, value in parser.items(section):
            if key not in _ALLOWED[section] and not (
                section == "operator" and key.startswith("term")
            ):
                raise InvalidInputError(f"unknown key {key!r} in section [{section}]")
            cfg[section][key] = value.strip()
    return cfg


def config_digest(cfg):
    """Stable hash of the parsed configuration."""
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def build_surface(cfg):
    sec = cfg.get("surface", {})
    preset = sec.get("preset", "punctured-torus")
    width = float(sec.get("cusp_width", 1.0))
    if "generators" in sec:
        rows = [r for r in sec["generators"].split(";") if r.strip()]
        gens = {}
        for i, row in enumerate(rows):
            vals = [float(x) for x in row.split()]
            if len(vals) != 4:
                raise InvalidInputError("each generator row needs four reals")
            gens[chr(ord("a") + i)] = np.array(vals).reshape(2, 2)
        return FuchsianSurface(generators=gens, cusp_width=width)
    if preset == "punctured-torus":
        return punctured_torus(width)
    raise InvalidInputError(f"unknown surface preset {preset!r}")


def build_operator(cfg):
    sec = cfg.get("operator", {})
    name = sec.get("name", "sym-laplacian")
    d = int(sec.get("d", 1))
    if name != "custom":
        return builtin_spec(name, d)
    n_out = int(sec["n_out"])
    n_in = int(sec["n_in"])
    rows = [v.split() for k, v in sorted(sec.items()) if k.startswith("term")]
    if not rows:
        raise InvalidInputError("custom operator needs term rows")
    return spec_from_terms(rows, n_out, n_in)


def build_line_grid(cfg):
    sec = cfg.get("grid", {})
    return float(sec.get("r_half", 48.0)), int(sec.get("n", 4096))


def build_chart_grid(cfg):
    sec = cfg.get("grid", {})
    return ChartGrid(
        float(sec.get("r_min", -2.8)),
        float(sec.get("r_max", 0.5)),
        int(sec.get("n_r", 529)),
        int(sec.get("n_theta", 256)),
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
    path = Path(path)
    lines = [",".join(header)]
    for row in rows:
        cells = [
            format(x, ".17g") if isinstance(x, float) else str(x) for x in row
        ]
        lines.append(",".join(cells))
    path.write_text("\n".join(lines) + "\n")
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
    from .tensorfield import _NCOMP, SymTensorField

    base = Path(path_base)
    header = json.loads(base.with_suffix(".json").read_text())
    grid = ChartGrid(header["r_min"], header["r_max"], header["n_r"], header["n_theta"])
    comps = np.fromfile(base.with_suffix(".bin"), dtype="<f8").reshape(
        _NCOMP[header["order"]], grid.n_r, grid.n_theta
    )
    return SymTensorField(grid, header["order"], comps)


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
