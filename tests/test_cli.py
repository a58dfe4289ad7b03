import configparser
import csv
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import cusplab
from cusplab.cli import main
from cusplab.runio import (
    _KEYS,
    build_chart_grid,
    build_operator,
    build_surface,
    load_config,
    load_tensor,
    write_csv,
)
from cusplab.surface import enumerate_hyperbolic_classes

BASE_CONFIG = """
[surface]
max_word_len = 3

[operator]
name = sym-laplacian
d = 1

[grid]
r_half = 48.0
n = 4096
r_min = -2.8
r_max = 0.5
n_r = 257
n_theta = 128

[tolerances]
weight = 0.0
weight_from = 0.0
weight_to = 1.7
root = -1.0
s = 0.5
xray = 1e-8
"""


@pytest.fixture()
def config(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(BASE_CONFIG)
    return path


def run(cmd, config, tmp_path, extra=()):
    out = tmp_path / f"out_{cmd}"
    code = main([cmd, str(config), "--out", str(out), *extra])
    return code, out


def test_roots_subcommand(config, tmp_path):
    code, out = run("roots", config, tmp_path)
    assert code == 0
    payload = json.loads((out / "roots.json").read_text())
    got = sorted(payload["singular_weights"])
    want = sorted([-1.0, 2.0, 0.5 - np.sqrt(1.25), 0.5 + np.sqrt(1.25)])
    assert np.allclose(got, want, atol=1e-10)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "roots"
    assert "roots.json" in manifest["outputs"]
    assert manifest["wall_time_seconds"] >= 0


def test_indicial_subcommand(config, tmp_path):
    code, out = run("indicial", config, tmp_path)
    assert code == 0
    payload = json.loads((out / "indicial.json").read_text())
    assert payload["shape"] == [2, 2]
    assert payload["degree"] == 2
    # quadratic coefficient: 1 on the vertical block, 1/2 on the slice block
    assert np.allclose(payload["coefficients"][2], np.diag([1.0, 0.5]))


def test_index_jump_subcommand(config, tmp_path):
    code, out = run("index-jump", config, tmp_path)
    assert code == 0
    payload = json.loads((out / "index_jump.json").read_text())
    assert payload["index_jump"] == 1
    assert len(payload["roots_crossed"]) == 1


def test_mode0_solve_subcommand(config, tmp_path):
    code, out = run("mode0-solve", config, tmp_path)
    assert code == 0
    report = json.loads((out / "mode0_report.json").read_text())
    assert report["roundtrip_residual"] <= 1e-8
    lines = (out / "mode0_solution.csv").read_text().splitlines()
    assert lines[0] == "r,c0_re,c0_im,c1_re,c1_im"
    assert len(lines) == 4097


def test_mode0_solve_off_zero_weight_round_trips(tmp_path):
    # the residual compares like with like: both sides at weight 0.5
    cfg = tmp_path / "weighted.ini"
    cfg.write_text(BASE_CONFIG.replace("weight = 0.0", "weight = 0.5"))
    code, out = run("mode0-solve", cfg, tmp_path)
    assert code == 0
    report = json.loads((out / "mode0_report.json").read_text())
    assert report["weight"] == 0.5
    assert report["roundtrip_residual"] <= 1e-10


@pytest.mark.parametrize(
    "weight, reason",
    [("0", None), ("14", "not enough tail samples above the noise floor")],
)
def test_mode0_report_says_why_its_rates_are_null(tmp_path, weight, reason):
    # at weight 14 the peak that sets the fit band is roundoff lifted by
    # e^{weight r} at the grid's end, so neither side has a node in the band
    parser = configparser.ConfigParser()
    parser.read(Path(__file__).resolve().parents[1] / "configs" / "default.ini")
    parser["tolerances"]["weight"] = weight
    cfg = tmp_path / "default.ini"
    with open(cfg, "w") as fh:
        parser.write(fh)
    code, out = run("mode0-solve", cfg, tmp_path)
    assert code == 0
    report = json.loads((out / "mode0_report.json").read_text())
    assert report["rate_reason"] == reason
    rates = [report["rate_right"], report["rate_left"]]
    if reason is None:
        assert None not in rates
    else:
        assert rates == [None, None]


@pytest.mark.parametrize("weight", ["14", "20.3"])
def test_mode0_solve_far_off_zero_weight_warns_nothing(tmp_path, weight):
    # e^{weight r} overflows near the grid's ends: at 20.3 the re-weighting
    # made the bump's exact zeros 0 * inf = NaN and the run was refused, and
    # at 14 the decay fit's norm of the unweighted samples overflowed
    def reject(name):
        raise AssertionError(f"the report holds the non-JSON constant {name}")

    cfg = tmp_path / "far.ini"
    cfg.write_text(BASE_CONFIG.replace("weight = 0.0", f"weight = {weight}"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out = run("mode0-solve", cfg, tmp_path)
    assert code == 0
    report = json.loads((out / "mode0_report.json").read_text(), parse_constant=reject)
    assert report["weight"] == float(weight)
    assert report["roundtrip_residual"] <= 1e-10


def test_identity_operator_runs_every_indicial_subcommand(tmp_path):
    # the identity family has no roots: nothing to cross, invert around or
    # expand at, and every report stays strict JSON
    def reject(name):
        raise AssertionError(f"a report holds the non-JSON constant {name}")

    cfg = tmp_path / "identity.ini"
    cfg.write_text(BASE_CONFIG.replace("name = sym-laplacian", "name = identity"))
    reports = {}
    for cmd in ("indicial", "roots", "index-jump", "mode0-solve", "mode0-kernel"):
        code, out = run(cmd, cfg, tmp_path)
        assert code == 0, cmd
        for path in sorted(out.glob("*.json")):
            reports[path.name] = json.loads(path.read_text(), parse_constant=reject)
    assert reports["indicial.json"]["name"] == "identity"
    assert reports["roots.json"]["roots"] == []
    assert reports["index_jump.json"]["index_jump"] == 0
    assert reports["mode0_report.json"]["root_line_distance"] is None
    assert reports["mode0_report.json"]["roundtrip_residual"] <= 1e-14
    assert reports["kernel_report.json"]["count"] == 0


def test_numeric_failure_leaves_diagnostics_on_disk(config, tmp_path, monkeypatch):
    from cusplab import cli, xray
    from cusplab.tensorfield import SymTensorField
    from cusplab.xray import xray_eval

    def one_level_suite(surface, tensor, classes, tol, strict=True):
        # a theta-modulated metric cannot meet 1e-12 after one refinement
        wavy_t = 1.5 + np.cos(2 * np.pi * tensor.grid.theta)
        wavy = SymTensorField(tensor.grid, tensor.comps * wavy_t)
        return [xray_eval(surface, wavy, classes[0], tol=1e-12, strict=True)]

    monkeypatch.setattr(xray, "_MAX_LEVEL", 1)
    monkeypatch.setattr(cli, "xray_suite", one_level_suite)
    code, out = run("xray", config, tmp_path)
    assert code == 3
    failure = json.loads((out / "failure.json").read_text())
    assert failure["error"] == "NumericFailureError"
    assert "did not reach tol=1e-12" in failure["message"]
    assert failure["diagnostics"]["nodes"] > 0
    assert np.isfinite(failure["diagnostics"]["last_value"])
    assert not (out / "manifest.json").exists()


def test_reduction_failure_diagnostics_keep_complex_points(config, tmp_path, monkeypatch):
    from cusplab import cli, surface
    from cusplab.surface import reduce_points

    def capped_suite(surf, tensor, classes, tol, strict=True):
        reduce_points(surf, [0.3 + 1e-4j])

    monkeypatch.setattr(surface, "_MAX_ITER", 1)
    monkeypatch.setattr(cli, "xray_suite", capped_suite)
    code, out = run("xray", config, tmp_path)
    assert code == 3
    failure = json.loads((out / "failure.json").read_text())
    assert failure["error"] == "ReductionError"
    assert failure["diagnostics"] == {"count": 1, "points": [[0.3, 1e-4]]}


def test_mode0_kernel_subcommand(config, tmp_path):
    code, out = run("mode0-kernel", config, tmp_path)
    assert code == 0
    payload = json.loads((out / "kernel_report.json").read_text())
    assert payload["count"] == 1
    assert payload["powers"] == [0]


def test_mode0_kernel_phase_is_canonical(tmp_path):
    # each element's largest-modulus top-power component is real and positive,
    # and no zero carries a roundoff sign
    default = Path(__file__).resolve().parents[1] / "configs" / "default.ini"
    assert main(["mode0-kernel", str(default), "--out", str(tmp_path)]) == 0
    with open(tmp_path / "kernel_elements.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert not any(v.startswith("-0") and float(v) == 0.0 for row in rows for v in row.values())
    count = json.loads((tmp_path / "kernel_report.json").read_text())["count"]
    assert count == len({row["element"] for row in rows}) >= 1
    for i in range(count):
        own = [row for row in rows if int(row["element"]) == i]
        k = max(int(row["power"]) for row in own)
        top = [complex(float(row["re"]), float(row["im"])) for row in own if int(row["power"]) == k]
        lead = top[int(np.argmax(np.abs(top)))]
        assert lead.imag == 0.0 and lead.real > 0.0


# J_2(0.3) = [[lam - 0.3, 1], [0, lam - 0.3]]: projector rank 2 at 0.3, one
# element of which is e^{0.3 r} (r v_1 + v_0)
J2_OPERATOR = """
[operator]
name = custom
n_out = 2
n_in = 2
term0 = 0 -0.3 1 0 -0.3
term1 = 1 1 0 0 1
"""


def test_mode0_kernel_rows_rebuild_each_element(tmp_path, annihilation_residual):
    path = tmp_path / "j2.ini"
    path.write_text(J2_OPERATOR + "\n[tolerances]\nroot = 0.3\n")
    out = tmp_path / "o"
    assert main(["mode0-kernel", str(path), "--out", str(out)]) == 0
    elements = {}
    with open(out / "kernel_elements.csv", newline="") as fh:
        for row in csv.DictReader(fh):
            powers = elements.setdefault(int(row["element"]), {})
            vec = powers.setdefault(int(row["power"]), np.zeros(2, dtype=complex))
            vec[int(row["component"])] = complex(float(row["re"]), float(row["im"]))
            assert complex(float(row["lambda_re"]), float(row["lambda_im"])) == 0.3
    assert json.loads((out / "kernel_report.json").read_text())["count"] == len(elements) == 2
    assert sorted(sorted(powers) for powers in elements.values()) == [[0], [0, 1]]
    fam = build_operator(load_config(path))
    for powers in elements.values():
        k = max(powers)
        tail = tuple((j, v) for j, v in powers.items() if j < k)
        assert annihilation_residual(fam, 0.3, k, powers[k], tail) <= 1e-8


BUILTINS = [(name, d) for name in ("sym-laplacian", "sym-derivative") for d in (1, 2, 3)]


@pytest.mark.parametrize(
    "operator",
    [f"[operator]\nname = {name}\nd = {d}\n" for name, d in BUILTINS] + [J2_OPERATOR],
    ids=[f"{name} d={d}" for name, d in BUILTINS] + ["J2"],
)
def test_mode0_kernel_count_is_the_projector_rank(tmp_path, operator):
    path = tmp_path / "op.ini"
    path.write_text(operator)
    assert main(["roots", str(path), "--out", str(tmp_path / "roots")]) == 0
    entries = json.loads((tmp_path / "roots" / "roots.json").read_text())["roots"]
    real = [e for e in entries if abs(e["lambda"][1]) < 1e-9]
    assert real
    for i, entry in enumerate(real):
        path.write_text(operator + f"\n[tolerances]\nroot = {entry['lambda'][0]!r}\n")
        out = tmp_path / f"kernel{i}"
        assert main(["mode0-kernel", str(path), "--out", str(out)]) == 0
        report = json.loads((out / "kernel_report.json").read_text())
        assert report["count"] == entry["projector_rank"], entry


def test_lp_norm_subcommand(config, tmp_path):
    code, out = run("lp-norm", config, tmp_path)
    assert code == 0
    payload = json.loads((out / "lp_report.json").read_text())
    assert payload["interaction_exponent"] >= 4.0
    assert payload["equivalence"]["ratio_min"] > 0


def test_geodesics_subcommand(config, tmp_path):
    code, out = run("geodesics", config, tmp_path)
    assert code == 0
    lines = (out / "geodesics.csv").read_text().splitlines()
    assert lines[0] == "word,trace,length,axis_repelling,axis_attracting"
    first = lines[1].split(",")
    assert first[0] == "a"
    assert abs(float(first[2]) - 2 * np.arccosh(1.5)) < 1e-10


def test_xray_metric_subcommand(config, tmp_path):
    code, out = run("xray", config, tmp_path)
    assert code == 0
    with open(out / "xray.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows
    for row in rows:
        assert abs(float(row["value"]) - 1.0) <= 1e-8
        assert int(row["nodes"]) > 0


@pytest.mark.parametrize(
    "mode, tol", [("metric", 1e-9), ("potential", 1e-7), ("probe", 1e-6)]
)
def test_xray_summary_records_the_tolerance_it_ran_at(tmp_path, mode, tol):
    # the shipped config asks for 1e-9; potential and probe modes raise it
    # to their floors
    parser = configparser.ConfigParser()
    parser.read(Path(__file__).resolve().parents[1] / "configs" / "default.ini")
    assert parser["tolerances"]["xray"] == "1e-9"
    parser["xray"].update(mode=mode, class_cap="2", forms="1")
    cfg = tmp_path / "default.ini"
    with open(cfg, "w") as fh:
        parser.write(fh)
    out = tmp_path / "out"
    assert main(["xray", str(cfg), "--out", str(out)]) == 0
    assert json.loads((out / "xray_summary.json").read_text())["tolerance"] == tol


def test_runs_outside_the_projection_load_no_scipy(tmp_path):
    # scipy serves only the solenoidal projection, so importing the CLI and
    # running subcommands that never project leaves it unloaded
    default = Path(__file__).resolve().parents[1] / "configs" / "default.ini"
    script = (
        "import sys\n"
        "from cusplab.cli import main\n"
        "def scipy_modules():\n"
        "    return sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy')\n"
        "print('import', scipy_modules())\n"
        "for cmd in ('roots', 'lp-norm', 'xray'):\n"
        f"    code = main([cmd, {str(default)!r}, '--out', {str(tmp_path)!r} + '/' + cmd])\n"
        "    print(cmd, code, scipy_modules())\n"
    )
    src = str(Path(cusplab.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    assert proc.stdout.splitlines() == [
        "import []",
        "roots 0 []",
        "lp-norm 0 []",
        "xray 0 []",
    ]
    assert json.loads((tmp_path / "xray" / "xray_summary.json").read_text())["mode"] == "metric"


def test_write_csv_bytes(tmp_path):
    # floats of either kind as %.17g (nan, infinities and -0 included),
    # everything else as str; a column may change type between rows
    rows = [
        ["a", 1, 0.1, np.float64(2.5), float("nan")],
        ["b", -7, float("inf"), float("-inf"), -0.0],
        ["c", np.int64(3), 1e-300, np.float64(-1e-300), 1 / 3],
        ["d", 2**70, "text", np.float64(-0.0), 123456789.0],
        [True, 0.0],
    ]
    path = write_csv(tmp_path / "t.csv", ["s", "i", "x", "y", "z"], rows)
    assert path.read_bytes() == (
        b"s,i,x,y,z\n"
        b"a,1,0.10000000000000001,2.5,nan\n"
        b"b,-7,inf,-inf,-0\n"
        b"c,3,1e-300,-1e-300,0.33333333333333331\n"
        b"d,1180591620717411303424,text,-0,123456789\n"
        b"True,0\n"
    )
    assert write_csv(tmp_path / "empty.csv", ["s", "i"], []).read_bytes() == b"s,i\n"


def test_decompose_subcommand_round_trip(config, tmp_path):
    code, out = run("decompose", config, tmp_path)
    assert code == 0
    report = json.loads((out / "decompose_report.json").read_text())
    assert report["decomposition_residual"] <= 1e-10
    f_s = load_tensor(out / "solenoidal_part")
    assert f_s.order == 2
    assert f_s.grid.n_r == 257


def test_xray_zero_tensor_file_gives_zero_csv(config, tmp_path):
    from cusplab.chart import ChartGrid
    from cusplab.runio import save_tensor
    from cusplab.tensorfield import SymTensorField

    grid = ChartGrid(-2.8, 0.5, 257, 128)
    zero = SymTensorField(grid, np.zeros((3, grid.n_r, grid.n_theta)))
    save_tensor(tmp_path / "zero_tensor", zero)
    cfg = tmp_path / "zero.ini"
    cfg.write_text(
        BASE_CONFIG
        + f"\n[xray]\nmode = tensor-file\ntensor_file = {tmp_path / 'zero_tensor'}\nclass_cap = 5\n"
    )
    out = tmp_path / "out_zero_xray"
    assert main(["xray", str(cfg), "--out", str(out)]) == 0
    lines = (out / "xray.csv").read_text().splitlines()[1:]
    assert len(lines) == 5
    for line in lines:
        assert float(line.split(",")[2]) == 0.0


def test_unknown_config_key_is_validation_error(tmp_path):
    bad = tmp_path / "bad.ini"
    bad.write_text("[surface]\nwhatever = 3\n")
    code = main(["roots", str(bad), "--out", str(tmp_path / "o")])
    assert code == 2


def test_missing_config_file_is_validation_error(tmp_path):
    code = main(["roots", str(tmp_path / "nope.ini"), "--out", str(tmp_path / "o")])
    assert code == 2


CONFIGS = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.ini"))


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.name)
def test_shipped_config_loads_and_builds(path):
    cfg = load_config(path)
    surface = build_surface(cfg)
    assert enumerate_hyperbolic_classes(surface, 1)
    build_operator(cfg)
    assert cfg["grid"]["r_half"] > 0 and cfg["grid"]["n"] > 0
    build_chart_grid(cfg)


def test_every_default_converts_to_itself():
    for section, keys in _KEYS.items():
        for key, (convert, default) in keys.items():
            if default is not None:
                assert convert(str(default)) == default, (section, key)


def test_omitted_keys_take_their_defaults(tmp_path):
    # one config names a single key, the other spells out every default:
    # both fill to the same config, so data files and digest agree
    sparse = tmp_path / "sparse.ini"
    sparse.write_text("[operator]\nname = sym-laplacian\n")
    full = tmp_path / "full.ini"
    full.write_text(
        "[surface]\nmax_word_len = 6\n"
        "[operator]\nname = sym-laplacian\nd = 1\n"
        "[grid]\nr_half = 48.0\nn = 4096\nr_min = -2.8\nr_max = 0.5\nn_r = 529\nn_theta = 256\n"
        "[tolerances]\nxray = 1e-9\nweight = 0.0\ns = 0.5\nwindow_lo = -10\nwindow_hi = 10\n"
        "[xray]\nmode = metric\nclass_cap = 50\nforms = 3\n"
    )
    for cmd in ("roots", "geodesics", "lp-norm"):
        outs = [tmp_path / f"{cmd}_{cfg.stem}" for cfg in (sparse, full)]
        for cfg, out in zip((sparse, full), outs):
            assert main([cmd, str(cfg), "--out", str(out), "--seed", "2"]) == 0
        manifests = [json.loads((out / "manifest.json").read_text()) for out in outs]
        assert manifests[0]["config_digest"] == manifests[1]["config_digest"]
        assert manifests[0]["outputs"] == manifests[1]["outputs"]
        for name in manifests[0]["outputs"]:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_tensor_file_mode_without_a_file_is_invalid_input(tmp_path, capsys):
    path = tmp_path / "xray.ini"
    path.write_text(BASE_CONFIG + "\n[xray]\nmode = tensor-file\n")
    assert main(["xray", str(path), "--out", str(tmp_path / "o")]) == 2
    assert "[xray] tensor_file:" in capsys.readouterr().err


def test_config_naming_the_cusp_width_is_invalid(tmp_path, capsys):
    # the chart fixes the cusp width to 1, so the key is unknown
    path = tmp_path / "width.ini"
    path.write_text("[surface]\ncusp_width = 1.0\nmax_word_len = 2\n")
    code = main(["geodesics", str(path), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "cusp_width" in capsys.readouterr().err


def test_unknown_subcommand_is_usage_error(tmp_path):
    with pytest.raises(SystemExit) as info:
        main(["frobnicate"])
    assert info.value.code == 64


def test_determinism_of_data_outputs(config, tmp_path):
    _, out1 = run("roots", config, tmp_path, extra=("--seed", "3"))
    out2 = tmp_path / "out_roots_2"
    main(["roots", str(config), "--out", str(out2), "--seed", "3"])
    assert (out1 / "roots.json").read_bytes() == (out2 / "roots.json").read_bytes()
    # config digest is stable across re-serialization of the same config
    m1 = json.loads((out1 / "manifest.json").read_text())
    m2 = json.loads((out2 / "manifest.json").read_text())
    assert m1["config_digest"] == m2["config_digest"]
    _, lp1 = run("lp-norm", config, tmp_path, extra=("--seed", "3"))
    lp2 = tmp_path / "out_lp2"
    main(["lp-norm", str(config), "--out", str(lp2), "--seed", "3"])
    assert (lp1 / "lp_report.json").read_bytes() == (lp2 / "lp_report.json").read_bytes()
    assert (lp1 / "lp_blocks.csv").read_bytes() == (lp2 / "lp_blocks.csv").read_bytes()


def _config_with(tmp_path, section, key, value):
    """BASE_CONFIG with one key set, written to tmp_path."""
    parser = configparser.ConfigParser()
    parser.read_string(BASE_CONFIG)
    if not parser.has_section(section):
        parser.add_section(section)
    parser.set(section, key, value)
    path = tmp_path / f"{section}_{key}.ini"
    with open(path, "w") as fh:
        parser.write(fh)
    return path


# a [surface] preset could only name the punctured torus, which a config
# without generators gets
@pytest.mark.parametrize(
    "section, key", [("tolerances", "solver"), ("xray", "seed"), ("surface", "preset")]
)
def test_keys_nothing_reads_are_rejected(tmp_path, section, key):
    path = _config_with(tmp_path, section, key, "3")
    assert main(["roots", str(path), "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("grid", "n_r", "abc"),
        ("operator", "d", "two"),
        ("surface", "max_word_len", "six"),
        ("surface", "generators", "2 1 1 x ; 2 -1 -1 1"),
        ("tolerances", "weight_to", "1.7.0"),
        ("xray", "class_cap", "many"),
        ("xray", "class_cap", "0"),
        ("xray", "class_cap", "-1"),
    ],
)
def test_malformed_number_is_invalid_input_naming_its_key(tmp_path, capsys, section, key, value):
    path = _config_with(tmp_path, section, key, value)
    assert main(["roots", str(path), "--out", str(tmp_path / "o")]) == 2
    assert f"[{section}] {key}:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "section, key, value, cmd",
    [
        ("grid", "n", "0", "lp-norm"),
        ("grid", "r_half", "-1", "lp-norm"),
        ("grid", "r_half", "0", "lp-norm"),
        ("operator", "d", "-2", "roots"),
        ("tolerances", "xray", "-1e-9", "roots"),
        ("tolerances", "xray", "0", "roots"),
        ("tolerances", "xray", "nan", "roots"),
        ("tolerances", "xray", "inf", "roots"),
        ("operator", "n_out", "0", "roots"),
        ("operator", "n_in", "-1", "roots"),
        ("tolerances", "root", "nan", "mode0-kernel"),
        ("tolerances", "root", "-inf", "mode0-kernel"),
    ],
)
def test_out_of_range_value_is_invalid_input_naming_its_key(
    tmp_path, capsys, section, key, value, cmd
):
    # each once reached the numerics: a ZeroDivisionError, a report on a
    # reversed or empty line grid, a negative array dimension, an IndexError
    # on a 0 x 0 custom family, a bare NaN token in kernel_report.json
    path = _config_with(tmp_path, section, key, value)
    assert main([cmd, str(path), "--out", str(tmp_path / "o")]) == 2
    assert f"[{section}] {key}:" in capsys.readouterr().err


def test_zero_slice_dimension_still_runs(tmp_path):
    path = _config_with(tmp_path, "operator", "d", "0")
    assert main(["roots", str(path), "--out", str(tmp_path / "o")]) == 0


def test_malformed_custom_term_row_is_invalid_input(tmp_path):
    path = tmp_path / "custom.ini"
    path.write_text("[operator]\nname = custom\nn_out = 1\nn_in = 1\nterm0 = 0 one\n")
    assert main(["roots", str(path), "--out", str(tmp_path / "o")]) == 2


def test_empty_custom_operator_is_invalid_input(tmp_path, capsys):
    # a 0 x 0 family once died in roots with an IndexError traceback
    path = tmp_path / "custom.ini"
    path.write_text("[operator]\nname = custom\nn_out = 0\nn_in = 0\nterm0 = 0\n")
    assert main(["roots", str(path), "--out", str(tmp_path / "o")]) == 2
    assert "[operator] n_out:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "cmd, section, key, value",
    [
        ("roots", "tolerances", "window_hi", "inf"),
        ("index-jump", "tolerances", "weight_to", "nan"),
        ("xray", "grid", "r_min", "nan"),
        ("xray", "grid", "r_min", "-inf"),
        ("decompose", "grid", "r_min", "nan"),
        ("decompose", "grid", "r_max", "inf"),
    ],
)
def test_non_finite_bound_is_invalid_input(tmp_path, capsys, cmd, section, key, value):
    # a NaN or infinite radial range once gave an xray metric run that read
    # every class as value 0 with error 0, and a decompose ValueError
    path = _config_with(tmp_path, section, key, value)
    assert main([cmd, str(path), "--out", str(tmp_path / "o")]) == 2
    assert "must be finite" in capsys.readouterr().err


def test_custom_operator_without_shape_is_invalid_input(tmp_path):
    path = tmp_path / "custom.ini"
    path.write_text("[operator]\nname = custom\nterm0 = 0 1.0\n")
    assert main(["roots", str(path), "--out", str(tmp_path / "o")]) == 2


def test_duplicate_section_is_invalid_input(tmp_path):
    path = tmp_path / "dup.ini"
    path.write_text(BASE_CONFIG + "\n[grid]\nn = 1024\n")
    assert main(["roots", str(path), "--out", str(tmp_path / "o")]) == 2


def test_roots_of_generic_custom_quadratic(tmp_path):
    # a 3x3 quadratic family whose determinant polynomial fraction-free
    # elimination cannot produce in floating point
    rng = np.random.default_rng(3)
    rng.normal(size=(3, 3, 3))
    coeffs = rng.normal(size=(3, 3, 3))
    rows = "".join(
        f"term{k} = {k} " + " ".join(repr(float(x)) for x in coeffs[k].ravel()) + "\n"
        for k in range(3)
    )
    path = tmp_path / "custom.ini"
    path.write_text("[operator]\nname = custom\nn_out = 3\nn_in = 3\n" + rows)
    out = tmp_path / "o"
    assert main(["roots", str(path), "--out", str(out)]) == 0
    payload = json.loads((out / "roots.json").read_text())
    assert len(payload["roots"]) == 6
    assert all(entry["multiplicity"] == 1 for entry in payload["roots"])


@pytest.mark.parametrize(
    "edit",
    [{"order": 3}, {"n_r": 256}, {"r_min": None}, {"r_min": float("nan")}],
    ids=["order-3", "n_r-256", "no-r_min", "nan-r_min"],
)
def test_tensor_header_mismatch_is_invalid_input(tmp_path, edit):
    from cusplab.chart import ChartGrid
    from cusplab.errors import InvalidInputError
    from cusplab.runio import save_tensor
    from cusplab.tensorfield import SymTensorField

    save_tensor(tmp_path / "t", SymTensorField(ChartGrid(-2.8, 0.5, 257, 128), np.zeros((3, 257, 128))))
    header = json.loads((tmp_path / "t.json").read_text())
    # None drops the key
    edited = {k: v for k, v in {**header, **edit}.items() if v is not None}
    (tmp_path / "t.json").write_text(json.dumps(edited))
    with pytest.raises(InvalidInputError):
        load_tensor(tmp_path / "t")
    cfg = tmp_path / "t.ini"
    cfg.write_text(
        BASE_CONFIG + f"\n[xray]\nmode = tensor-file\ntensor_file = {tmp_path / 't'}\nclass_cap = 2\n"
    )
    assert main(["xray", str(cfg), "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize(
    "edit",
    [{"order": True}, {"order": 2.0}, {"n_r": 257.0}, {"n_theta": 128.0}],
    ids=["order-true", "order-float", "n_r-float", "n_theta-float"],
)
def test_tensor_header_order_and_sizes_must_be_json_integers(tmp_path, edit):
    from cusplab.chart import ChartGrid
    from cusplab.errors import InvalidInputError
    from cusplab.runio import save_tensor
    from cusplab.tensorfield import SymTensorField

    # order true once loaded a 2-tensor's data as a 1-form, order 2.0 was
    # accepted, and a float size died with a TypeError in reshape
    save_tensor(tmp_path / "t", SymTensorField(ChartGrid(-2.8, 0.5, 257, 128), np.zeros((2, 257, 128))))
    header = json.loads((tmp_path / "t.json").read_text())
    (tmp_path / "t.json").write_text(json.dumps({**header, **edit}))
    with pytest.raises(InvalidInputError, match="is not an integer"):
        load_tensor(tmp_path / "t")


@pytest.mark.parametrize("cmd", ["xray", "decompose"])
def test_tensor_file_with_non_finite_values_is_invalid_input(tmp_path, capsys, cmd):
    from cusplab.chart import ChartGrid
    from cusplab.runio import save_tensor
    from cusplab.tensorfield import SymTensorField

    # the metric with NaN in rows 25-54 of its s component and one inf
    grid = ChartGrid(-2.8, 0.5, 129, 64)
    comps = SymTensorField.metric(grid).comps
    comps[0, 25:55] = np.nan
    comps[1, 3, 5] = np.inf
    save_tensor(tmp_path / "t", SymTensorField(grid, comps))
    cfg = tmp_path / "t.ini"
    cfg.write_text(
        BASE_CONFIG + f"\n[xray]\nmode = tensor-file\ntensor_file = {tmp_path / 't'}\nclass_cap = 5\n"
    )
    assert main([cmd, str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert f"holds {30 * 64 + 1} non-finite values" in capsys.readouterr().err


def test_missing_tensor_file_is_invalid_input(tmp_path):
    cfg = tmp_path / "t.ini"
    cfg.write_text(
        BASE_CONFIG + f"\n[xray]\nmode = tensor-file\ntensor_file = {tmp_path / 'nope'}\n"
    )
    assert main(["xray", str(cfg), "--out", str(tmp_path / "o")]) == 2


def test_xray_potential_subcommand_writes_the_first_forms_rows(tmp_path):
    from cusplab.fields import random_bump_one_form
    from cusplab.runio import build_chart_grid, build_surface, load_config
    from cusplab.surface import enumerate_hyperbolic_classes
    from cusplab.tensorfield import sym_derivative
    from cusplab.xray import xray_suite

    cfg = tmp_path / "potential.ini"
    cfg.write_text(BASE_CONFIG + "\n[xray]\nmode = potential\nforms = 2\nclass_cap = 6\n")
    out = tmp_path / "out_potential"
    assert main(["xray", str(cfg), "--out", str(out), "--seed", "4"]) == 0
    summary = json.loads((out / "xray_summary.json").read_text())
    assert summary["annihilation"]["n_forms"] == 2
    assert "results" not in summary["annihilation"]
    # the rows are those of a separate non-strict X-ray of the first form's
    # spectral derivative at the suite's tolerance
    loaded = load_config(cfg)
    surface = build_surface(loaded)
    classes = enumerate_hyperbolic_classes(surface, 3)[:6]
    form = random_bump_one_form(4, center=(-0.916, 0.0), r_width=0.45, t_width=0.14)
    dp = sym_derivative(form.sample(build_chart_grid(loaded)), method="spectral")
    rows = [
        [r.class_word, float(r.length), float(r.value), float(r.error_estimate), r.nodes_used]
        for r in xray_suite(surface, dp, classes, tol=1e-7, strict=False)
    ]
    ref = write_csv(tmp_path / "ref.csv", ["word", "length", "value", "error", "nodes"], rows)
    assert (out / "xray.csv").read_bytes() == ref.read_bytes()


@pytest.mark.parametrize("mode", ["potential", "probe", "metric", "tensor-file"])
def test_surface_with_no_hyperbolic_class_is_invalid_input(tmp_path, capsys, mode):
    from cusplab.chart import ChartGrid
    from cusplab.runio import save_tensor
    from cusplab.tensorfield import SymTensorField

    # one parabolic generator: every word is parabolic, so no class to X-ray
    save_tensor(tmp_path / "t", SymTensorField.metric(ChartGrid(-2.8, 0.5, 257, 128)))
    cfg = tmp_path / "parabolic.ini"
    cfg.write_text(
        BASE_CONFIG.replace("[surface]\n", "[surface]\ngenerators = 1 1 0 1\n")
        + f"\n[xray]\nmode = {mode}\ntensor_file = {tmp_path / 't'}\n"
    )
    assert main(["xray", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "closed geodesic" in capsys.readouterr().err


def test_suite_subcommand_writes_each_criterion(tmp_path, monkeypatch, capsys):
    from cusplab import acceptance

    cheap = [acceptance.CRITERIA[2], acceptance.CRITERIA[5]]
    monkeypatch.setattr(acceptance, "CRITERIA", cheap)
    out = tmp_path / "out_suite"
    assert main(["suite", "--out", str(out)]) == 0
    payload = json.loads((out / "suite_results.json").read_text())
    assert payload["all_passed"] is True
    assert [(r["criterion"], r["passed"]) for r in payload["results"]] == [
        (name, True) for name, _ in cheap
    ]
    # each criterion's numbers and wall seconds are kept
    for r, (_, fn) in zip(payload["results"], cheap):
        assert r["details"] and r["details"].keys() == fn()[1].keys()
        assert r["seconds"] > 0.0
    assert "suite_results.json" in json.loads((out / "manifest.json").read_text())["outputs"]
    assert capsys.readouterr().out.splitlines() == [f"[PASS] {name}" for name, _ in cheap]
    assert not (out / "failure.json").exists()


def test_failing_suite_exits_three_with_diagnostics(tmp_path, monkeypatch):
    from cusplab import acceptance

    stub = ("stub", lambda: (False, {"why": "stub"}))
    monkeypatch.setattr(acceptance, "CRITERIA", [acceptance.CRITERIA[2], stub])
    out = tmp_path / "out_suite"
    assert main(["suite", "--out", str(out)]) == 3
    payload = json.loads((out / "suite_results.json").read_text())
    assert payload["all_passed"] is False
    assert [r["passed"] for r in payload["results"]] == [True, False]
    assert payload["results"][1]["details"] == {"why": "stub"}
    failure = json.loads((out / "failure.json").read_text())
    assert failure["error"] == "NumericFailureError"
    assert "failures" in failure["message"]
    # the failing criterion's details, and only its, are the diagnostics
    assert failure["diagnostics"] == {"stub": {"why": "stub"}}
    assert not (out / "manifest.json").exists()
