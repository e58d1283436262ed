import csv
import json
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from mfdglht import FunctionalDataset, GroupSample, SimConfig, gen_sample, write_csv
from mfdglht import cli
from mfdglht.cli import main


def write_dataset(path, cfg_kwargs=None, seed=(1, 0)):
    cfg = SimConfig(**(cfg_kwargs or dict(n=(5, 5, 5, 5), rho=0.5, model=1, reps=1, seed=1)))
    ds = gen_sample(cfg, list(seed))
    with open(path, "w", encoding="utf-8") as fh:
        write_csv(ds, fh)
    return ds


def write_oneway_contrast(path, k=4):
    rows = ["row,col,value"]
    for r in range(1, k):
        rows.append(f"{r},{r},1")
        rows.append(f"{r},{k},-1")
    path.write_text("\n".join(rows) + "\n")


def test_cmd_test_success(tmp_path, capsys):
    data = tmp_path / "data.csv"
    contrast = tmp_path / "c.csv"
    out = tmp_path / "report.json"
    write_dataset(data)
    write_oneway_contrast(contrast)
    code = main(["test", "--data", str(data), "--contrast", str(contrast), "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert set(report["p_values"]) == {"mfw", "mflh", "mfp"}
    for value in report["p_values"].values():
        assert 0.0 <= value <= 1.0
    assert report["dof"]["d_b"] > 0


def test_cmd_test_nearly_collinear_contrast_exit_0(tmp_path):
    # ContrastSpec accepts this C (singular-value ratio 2.5e-10); C D C^T is
    # then too ill-conditioned for a Cholesky factor, but the test only needs
    # C's row space.
    data = tmp_path / "data.csv"
    contrast = tmp_path / "c.csv"
    out = tmp_path / "report.json"
    write_dataset(data, dict(n="n3", seed=3), seed=(3, 0))
    contrast.write_text("row,col,value\n1,1,1\n1,2,-1\n2,1,1\n2,2,-0.999999999\n")
    code = main(["test", "--data", str(data), "--contrast", str(contrast), "--out", str(out)])
    assert code == 0
    for value in json.loads(out.read_text())["p_values"].values():
        assert 0.0 <= value <= 1.0


def test_cmd_test_small_group_exit_2(tmp_path, capsys):
    data = tmp_path / "data.csv"
    contrast = tmp_path / "c.csv"
    out = tmp_path / "report.json"
    write_dataset(data, dict(n=(3, 5, 5, 5), rho=0.5, model=1, reps=1, seed=1))
    write_oneway_contrast(contrast)
    code = main(["test", "--data", str(data), "--contrast", str(contrast), "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err.strip()
    payload = json.loads(err)
    assert "group 1" in payload["message"]
    assert "4" in payload["message"]


def test_cmd_test_degenerate_data_exit_3(tmp_path, capsys):
    # All observations identical in every group: the pooled matrix is zero.
    data = tmp_path / "data.csv"
    contrast = tmp_path / "c.csv"
    out = tmp_path / "report.json"
    rows = ["group,obs,component,time_index,value"]
    for g in (1, 2):
        for obs in range(1, 6):
            for ti in (1, 2, 3):
                rows.append(f"{g},{obs},1,{ti},{float(g):.1f}")
    data.write_text("\n".join(rows) + "\n")
    write_oneway_contrast(contrast, k=2)
    code = main(["test", "--data", str(data), "--contrast", str(contrast), "--out", str(out)])
    assert code == 3
    err = json.loads(capsys.readouterr().err.strip())
    assert "singular" in err["message"].lower()
    assert "error" in json.loads(out.read_text())


@pytest.mark.parametrize(
    "command, option",
    [
        pytest.param("test", ["--backend", "numpy"], id="test"),
        pytest.param("simulate", ["--backend", "numpy"], id="simulate"),
        pytest.param("simulate", ["--threads", "2"], id="simulate-threads"),
    ],
)
def test_backend_option_is_gone(command, option, tmp_path, capsys):
    argv = {
        "test": ["test", "--data", "d.csv", "--contrast", "c.csv", "--out", "r.json"],
        "simulate": ["simulate", "--config", "s.json", "--out", "a.csv"],
    }[command]
    with pytest.raises(SystemExit) as exc:
        main(argv + option)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {option[0]}" in capsys.readouterr().err


def test_cmd_simulate_and_report(tmp_path):
    config = tmp_path / "sim.json"
    config.write_text(
        json.dumps(
            {
                "rho": 0.5,
                "scenario": "S1",
                "contrast": "oneway",
                "alpha": 0.05,
                "seed": 5,
                "reps": 3,
                "settings": [
                    {"label": "d0", "model": 1, "n": [5, 5, 5, 5], "delta": 0.0},
                    {"label": "d1", "model": 1, "n": [5, 5, 5, 5], "delta": 2.0},
                ],
            }
        )
    )
    out = tmp_path / "rates.csv"
    code = main(["simulate", "--config", str(config), "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    rate_rows = [l for l in lines if l.startswith("rate,")]
    are_rows = [l for l in lines if l.startswith("are,")]
    assert len(rate_rows) == 6  # 2 settings x 3 statistics
    assert len(are_rows) == 3
    summary = json.loads((tmp_path / "rates.summary.json").read_text())
    assert len(summary["settings"]) == 2
    assert set(summary["are"]) == {"mfw", "mflh", "mfp"}
    header = lines[0].split(",")
    for line in are_rows:
        row = dict(zip(header, line.split(",")))
        assert int(row["reps"]) == len(summary["settings"])
        assert float(row["rate_pct"]) == summary["are"][row["statistic"]]

    svg_out = tmp_path / "fig.svg"
    assert main(["report", "--in", str(out), "--format", "svg", "--out", str(svg_out)]) == 0
    root = ET.fromstring(svg_out.read_text())
    polylines = [el for el in root.iter() if el.tag.endswith("polyline")]
    assert len(polylines) == 3

    csv_out = tmp_path / "rates_se.csv"
    assert main(["report", "--in", str(out), "--format", "csv", "--out", str(csv_out)]) == 0
    header = csv_out.read_text().splitlines()[0].split(",")
    assert header[-1] == "mc_se"
    first = csv_out.read_text().splitlines()[1].split(",")
    rate = float(first[header.index("rate_pct")])
    completed = int(first[header.index("completed")])
    assert float(first[-1]) == pytest.approx(np.sqrt(rate * (100 - rate) / completed))


def test_cmd_simulate_summary_counts_errors_and_flags(tmp_path):
    # rho = 1e-40 makes the pooled matrix singular in every replication.
    config = tmp_path / "sim.json"
    config.write_text(json.dumps({
        "n": [5, 5, 5, 5], "m": 8, "reps": 3, "seed": 1,
        "settings": [{"label": "singular", "rho": 1e-40}, {"label": "ok", "rho": 0.5}],
    }))
    out = tmp_path / "rates.csv"
    assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
    singular, ok = json.loads((tmp_path / "rates.summary.json").read_text())["settings"]
    assert singular["errors_by_kind"] == {"SingularOmegaError": 3}
    assert singular["errored"] == 3 and singular["completed"] == 0
    assert ok["errors_by_kind"] == {} and ok["completed"] == 3
    for setting in (singular, ok):
        assert isinstance(setting["dof_clamped"], int)
        assert set(setting["pole_fallbacks"]) == {"mflh", "mfw"}


def test_cmd_test_with_c0_file(tmp_path):
    data = tmp_path / "data.csv"
    contrast = tmp_path / "c.csv"
    c0 = tmp_path / "c0.csv"
    out = tmp_path / "report.json"
    ds = write_dataset(data)
    write_oneway_contrast(contrast)
    rows = ["row,component,time_index,value"]
    for r in range(1, 4):
        rows.append(f"{r},1,1,0.25")
    c0.write_text("\n".join(rows) + "\n")
    code = main(
        [
            "test", "--data", str(data), "--contrast", str(contrast),
            "--c0", str(c0), "--out", str(out),
        ]
    )
    assert code == 0
    report = json.loads(out.read_text())
    # A nonzero constant matrix changes the hypothesis, hence the statistics.
    out2 = tmp_path / "report2.json"
    main(["test", "--data", str(data), "--contrast", str(contrast), "--out", str(out2)])
    other = json.loads(out2.read_text())
    assert report["statistics"]["mflh"] != other["statistics"]["mflh"]


@pytest.mark.parametrize("bad", ["data", "contrast", "c0"])
def test_cmd_test_non_utf8_file_exit_2(bad, tmp_path, capsys):
    files = {name: tmp_path / f"{name}.csv" for name in ("data", "contrast", "c0")}
    write_dataset(files["data"])
    write_oneway_contrast(files["contrast"])
    files["c0"].write_text("row,component,time_index,value\n1,1,1,0.25\n2,1,1,0.0\n3,1,1,0.0\n")
    text = files[bad].read_bytes()
    files[bad].write_bytes(text[: len(text) // 2] + b"\xff" + text[len(text) // 2 :])
    args = ["test", "--data", str(files["data"]), "--contrast", str(files["contrast"])]
    args += ["--c0", str(files["c0"]), "--out", str(tmp_path / "report.json")]
    assert main(args) == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err == {"error": "IngestionError", "message": "file is not valid UTF-8: invalid start byte"}


@pytest.mark.parametrize(
    "bad, text, message",
    [
        (
            "contrast",
            "row,col,value\n1,1,1\n1,1000000000000,-1\n",
            "contrast cell (row=1, col=1000000000000) outside a contrast of k=4 groups "
            "(row and col at most k)",
        ),
        (
            "c0",
            "row,component,time_index,value\n1,1,1,0.25\n1000000000000,1,1,0.0\n",
            "C0 cell (row=1000000000000, component=1, time_index=1) outside dataset shape "
            "(q=3, p=6, m=80)",
        ),
    ],
)
def test_cmd_test_huge_index_exit_2(bad, text, message, tmp_path, capsys):
    # An index far beyond the dataset must not size an array.
    files = {name: tmp_path / f"{name}.csv" for name in ("data", "contrast", "c0")}
    write_dataset(files["data"])
    write_oneway_contrast(files["contrast"])
    files["c0"].write_text("row,component,time_index,value\n1,1,1,0.25\n")
    files[bad].write_text(text)
    args = ["test", "--data", str(files["data"]), "--contrast", str(files["contrast"])]
    args += ["--c0", str(files["c0"]), "--out", str(tmp_path / "report.json")]
    assert main(args) == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err == {"error": "IngestionError", "message": message}


def test_cmd_simulate_same_seed_byte_identical(tmp_path):
    config = tmp_path / "sim.json"
    config.write_text(
        json.dumps({"model": 1, "n": [5, 5, 5, 5], "rho": 0.5, "reps": 4, "seed": 8})
    )
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert main(["simulate", "--config", str(config), "--out", str(out1)]) == 0
    assert main(["simulate", "--config", str(config), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_cmd_simulate_zero_reps_exit_2(tmp_path, capsys):
    config = tmp_path / "sim.json"
    config.write_text(json.dumps({"model": 1, "n": [5, 5, 5, 5], "rho": 0.5, "seed": 8}))
    out = tmp_path / "a.csv"
    code = main(
        ["simulate", "--config", str(config), "--out", str(out), "--reps", "0"]
    )
    assert code == 2
    assert "reps must be >= 1" in json.loads(capsys.readouterr().err.strip())["message"]


def test_cmd_simulate_bad_config_exit_2(tmp_path, capsys):
    config = tmp_path / "sim.json"
    config.write_text("{not json")
    out = tmp_path / "a.csv"
    assert main(["simulate", "--config", str(config), "--out", str(out)]) == 2
    json.loads(capsys.readouterr().err.strip())


@pytest.mark.parametrize(
    "body",
    [{"settings": {"model": 1}}, {"settings": [1]}, {"settings": 5}],
    ids=["settings-object", "settings-of-numbers", "settings-number"],
)
def test_cmd_simulate_malformed_settings_exit_2(tmp_path, capsys, body):
    config = tmp_path / "sim.json"
    config.write_text(json.dumps(body))
    out = tmp_path / "a.csv"
    assert main(["simulate", "--config", str(config), "--out", str(out)]) == 2
    err_lines = capsys.readouterr().err.strip().splitlines()
    assert len(err_lines) == 1
    json.loads(err_lines[0])


def test_cmd_report_empty_csv_exit_2(tmp_path, capsys):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    out = tmp_path / "fig.svg"
    assert main(["report", "--in", str(empty), "--format", "svg", "--out", str(out)]) == 2
    json.loads(capsys.readouterr().err.strip())


def test_bundled_config_smoke(tmp_path):
    import mfdglht

    config = f"{mfdglht.__path__[0]}/configs/table1_s1.json"
    out = tmp_path / "rates.csv"
    code = main(
        ["simulate", "--config", config, "--out", str(out), "--reps", "2"]
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert len([l for l in lines if l.startswith("rate,")]) == 27  # 9 settings x 3 stats
    assert len([l for l in lines if l.startswith("are,")]) == 3


def single_error_line(capsys) -> dict:
    """The one JSON object an error path writes to stderr."""
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    return json.loads(lines[0])


def test_cmd_test_overflowing_values_exit_2(tmp_path, capsys):
    data = tmp_path / "data.csv"
    contrast = tmp_path / "c.csv"
    ds = gen_sample(SimConfig(n="n3", model=2), [1, 2])
    groups = tuple(GroupSample(g.values * 1e155) for g in ds.groups)
    write_csv(FunctionalDataset(ds.grid, groups), str(data))
    write_oneway_contrast(contrast, k=ds.k)
    out = tmp_path / "report.json"
    code = main(["test", "--data", str(data), "--contrast", str(contrast), "--out", str(out)])
    assert code == 2
    err = single_error_line(capsys)
    assert err["error"] == "ValidationError" and "squares overflow float64" in err["message"]


def test_cmd_test_alpha_outside_unit_interval_exit_2(tmp_path, capsys):
    data = tmp_path / "data.csv"
    contrast = tmp_path / "c.csv"
    out = tmp_path / "report.json"
    write_dataset(data)
    write_oneway_contrast(contrast)
    argv = ["test", "--data", str(data), "--contrast", str(contrast), "--out", str(out)]
    assert main([*argv, "--alpha", "1.5"]) == 2
    assert single_error_line(capsys)["message"] == "alpha must lie in (0, 1), got 1.5"
    assert not out.exists()


def test_cmd_test_tiny_values_exit_3(tmp_path, capsys):
    # Values near 1e-156 leave the pooled matrix a subnormal diagonal.
    data = tmp_path / "data.csv"
    contrast = tmp_path / "c.csv"
    ds = gen_sample(SimConfig(n="n3", model=2), [1, 2])
    groups = tuple(GroupSample(g.values * 1e-156) for g in ds.groups)
    write_csv(FunctionalDataset(ds.grid, groups), str(data))
    write_oneway_contrast(contrast, k=ds.k)
    out = tmp_path / "report.json"
    code = main(["test", "--data", str(data), "--contrast", str(contrast), "--out", str(out)])
    assert code == 3
    assert single_error_line(capsys)["error"] == "SingularOmegaError"


def write_small_config(path, **overrides):
    body = {"model": 1, "n": [5, 5, 5, 5], "rho": 0.5, "reps": 2, "seed": 8, **overrides}
    path.write_text(json.dumps(body))


UNRUNNABLE = {
    "p-not-6": ({"p": 3}, "the preset mean curves are defined for p = 6 only"),
    "n-below-4": ({"n": [3, 3, 3, 3]}, "group 1 has n=3 observations"),
    "three-groups": ({"n": [10, 10, 10]}, "define four groups"),
    "five-groups": ({"n": [5] * 5, "contrast": "two_sample"}, "define four groups"),
}


@pytest.mark.parametrize("second, message", UNRUNNABLE.values(), ids=UNRUNNABLE)
def test_cmd_simulate_checks_every_setting_before_any_study(
    second, message, tmp_path, capsys, monkeypatch
):
    studies = []
    monkeypatch.setattr(cli, "size_power_study", studies.append)
    config = tmp_path / "s.json"
    config.write_text(json.dumps({"reps": 300, "settings": [{"n": "n3"}, {"n": "n3", **second}]}))
    out = tmp_path / "rates.csv"
    assert main(["simulate", "--config", str(config), "--out", str(out)]) == 2
    err = single_error_line(capsys)
    assert err["message"].startswith("setting 2: ") and message in err["message"]
    assert studies == []
    assert list(tmp_path.iterdir()) == [config]


@pytest.mark.parametrize("command", ["test", "simulate", "report"])
def test_unwritable_out_exit_2(command, tmp_path, capsys):
    names = ("d.csv", "c.csv", "s.json", "r.csv")
    data, contrast, config, rates = (tmp_path / name for name in names)
    write_dataset(data)
    write_oneway_contrast(contrast)
    write_small_config(config)
    assert main(["simulate", "--config", str(config), "--out", str(rates)]) == 0
    capsys.readouterr()
    out = str(tmp_path / "missing" / "out")
    argv = {
        "test": ["test", "--data", str(data), "--contrast", str(contrast), "--out", out],
        "simulate": ["simulate", "--config", str(config), "--out", out],
        "report": ["report", "--in", str(rates), "--out", out],
    }[command]
    assert main(argv) == 2
    assert single_error_line(capsys)["error"] == "FileNotFoundError"


RESULTS_HEADER = "kind,label,delta,statistic,rate_pct,completed\n"


@pytest.mark.parametrize(
    "text, fmt, message",
    [
        ("rate,a,x,mfw,5.0,20\n", "svg", "malformed results row: delta 'x'"),
        ("rate,a,0.0,mfw,five,20\n", "svg", "malformed results row: rate_pct 'five'"),
        ("rate,a,0.0,mfw,5.0,2.5\n", "csv", "malformed results row: completed '2.5'"),
        ("rate,a,0.0,other,5.0,20\n", "svg", "results file has no rate rows for mfw, mflh, mfp"),
        ("rate,a,0.0,mfw,nan,0\n", "svg", "results file has no rate rows for mfw, mflh, mfp"),
        (f"rate,{'a' * 200_000},0.0,mfw,5.0,20\n", "csv",
         "malformed results file: field larger than field limit (131072)"),
    ],
    ids=["delta", "rate_pct", "completed", "no-known-statistic", "no-finite-rate",
         "huge-field"],
)
def test_cmd_report_malformed_field_exit_2(text, fmt, message, tmp_path, capsys):
    rates = tmp_path / "r.csv"
    rates.write_text(RESULTS_HEADER + text)
    out = tmp_path / "out"
    assert main(["report", "--in", str(rates), "--format", fmt, "--out", str(out)]) == 2
    assert single_error_line(capsys) == {"error": "InputError", "message": message}
    assert not out.exists()


def test_cmd_report_non_utf8_exit_2(tmp_path, capsys):
    rates = tmp_path / "r.csv"
    rates.write_bytes(RESULTS_HEADER.encode() + b"rate,\xff,0.0,mfw,5.0,20\n")
    assert main(["report", "--in", str(rates), "--out", str(tmp_path / "fig.svg")]) == 2
    assert single_error_line(capsys) == {
        "error": "InputError", "message": "results file is not valid UTF-8: invalid start byte"
    }


def test_cmd_report_csv_without_completed_exit_2(tmp_path, capsys):
    rates = tmp_path / "r.csv"
    rates.write_text("kind,label,delta,statistic,rate_pct\nrate,a,0.0,mfw,5.0\n")
    out = tmp_path / "se.csv"
    assert main(["report", "--in", str(rates), "--format", "csv", "--out", str(out)]) == 2
    assert single_error_line(capsys) == {
        "error": "InputError", "message": "results file lacks the expected rate columns"
    }


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"n": ["x", 5, 5, 5]}, "invalid literal for int()"),
        ({"contrast": [[1, "x", 0, -1]]}, "could not convert string to float"),
        ({"reps": 2.5}, "reps must be an integer"),
        ({"seed": "abc"}, "seed must be a nonnegative integer"),
        ({"seed": -5}, "seed must be a nonnegative integer"),
    ],
    ids=["n", "contrast", "fractional-reps", "string-seed", "negative-seed"],
)
def test_cmd_simulate_non_numeric_config_exit_2(overrides, message, tmp_path, capsys):
    config = tmp_path / "s.json"
    write_small_config(config, **overrides)
    assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "a.csv")]) == 2
    err = single_error_line(capsys)
    assert err["error"] == "InputError" and err["message"].startswith("setting 1: ")
    assert message in err["message"]


def test_cmd_simulate_oversized_config_exit_2(tmp_path, capsys):
    # 10^14 grid points ask for 728 TiB, more than a 47-bit user address
    # space holds, so the allocation fails at once and touches no memory.
    config = tmp_path / "s.json"
    config.write_text(json.dumps({"n": "n3", "m": 10**14, "reps": 1}))
    out = tmp_path / "a.csv"
    assert main(["simulate", "--config", str(config), "--out", str(out)]) == 2
    err = single_error_line(capsys)
    assert err["error"] == "InputError" and err["message"].startswith("setting 1: ")
    assert not out.exists()


def test_cmd_simulate_non_utf8_config_exit_2(tmp_path, capsys):
    config = tmp_path / "s.json"
    config.write_bytes(b'{"label": "\xff", "model": 1}')
    assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "a.csv")]) == 2
    assert single_error_line(capsys) == {
        "error": "InputError", "message": "config file is not valid UTF-8: invalid start byte"
    }


def test_cmd_simulate_label_with_comma_and_quote_round_trips(tmp_path):
    label = 'model 1, "n5"'
    config = tmp_path / "s.json"
    write_small_config(config, label=label)
    rates = tmp_path / "r.csv"
    assert main(["simulate", "--config", str(config), "--out", str(rates)]) == 0
    se_out = tmp_path / "se.csv"
    assert main(["report", "--in", str(rates), "--format", "csv", "--out", str(se_out)]) == 0
    with open(se_out, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert [row["label"] for row in rows] == [label] * 3
    assert [row["statistic"] for row in rows] == ["mfw", "mflh", "mfp"]
    svg_out = tmp_path / "fig.svg"
    assert main(["report", "--in", str(rates), "--format", "svg", "--out", str(svg_out)]) == 0
    root = ET.fromstring(svg_out.read_text())
    assert len([el for el in root.iter() if el.tag.endswith("polyline")]) == 3


def test_cmd_test_omitted_trailing_cells_are_zero(tmp_path):
    # Column 4 of the contrast and row 2 of C0 are left out of the sparse files.
    data = tmp_path / "data.csv"
    write_dataset(data)
    sparse = ("1,1,1\n1,2,-1\n2,2,1\n2,3,-1\n", "1,1,1,0.25\n")
    explicit = (sparse[0] + "1,4,0\n2,4,0\n", sparse[1] + "2,1,1,0\n")
    reports = []
    for name, (contrast_rows, c0_rows) in {"sparse": sparse, "explicit": explicit}.items():
        contrast, c0, out = (tmp_path / f"{name}.{ext}" for ext in ("c.csv", "c0.csv", "json"))
        contrast.write_text("row,col,value\n" + contrast_rows)
        c0.write_text("row,component,time_index,value\n" + c0_rows)
        argv = ["test", "--data", str(data), "--contrast", str(contrast), "--c0", str(c0)]
        assert main(argv + ["--out", str(out)]) == 0
        reports.append(out.read_text())
    assert reports[0] == reports[1]


def test_cmd_report_svg_skips_nan_rates(tmp_path):
    # simulate writes rate_pct nan for a setting whose every replication errored.
    rates = tmp_path / "r.csv"
    rates.write_text(RESULTS_HEADER + "rate,a,0.0,mfw,nan,0\nrate,a,0.5,mfw,5.0,20\n")
    out = tmp_path / "fig.svg"
    assert main(["report", "--in", str(rates), "--format", "svg", "--out", str(out)]) == 0
    svg = out.read_text()
    assert "nan" not in svg
    (line,) = [el for el in ET.fromstring(svg).iter() if el.tag.endswith("polyline")]
    assert len(line.get("points").split()) == 1


def test_cmd_simulate_label_with_line_break_round_trips(tmp_path):
    label = "model 1\nn5"
    config = tmp_path / "s.json"
    write_small_config(config, label=label)
    rates = tmp_path / "r.csv"
    assert main(["simulate", "--config", str(config), "--out", str(rates)]) == 0
    se_out = tmp_path / "se.csv"
    assert main(["report", "--in", str(rates), "--format", "csv", "--out", str(se_out)]) == 0
    with open(se_out, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert [row["label"] for row in rows] == [label] * 3


def test_cmd_report_tolerates_padding_and_blank_lines(tmp_path):
    rates = tmp_path / "r.csv"
    rates.write_text("\n " + RESULTS_HEADER + "\n  rate , a ,0.0, mfw ,5.0,20 \n,,,,,\n")
    out = tmp_path / "se.csv"
    assert main(["report", "--in", str(rates), "--format", "csv", "--out", str(out)]) == 0
    with open(out, newline="", encoding="utf-8") as fh:
        (row,) = list(csv.DictReader(fh))
    assert (row["label"], row["statistic"], row["rate_pct"]) == ("a", "mfw", "5.0")


def test_cmd_simulate_seed_override_is_recorded(tmp_path):
    config = tmp_path / "sim.json"
    config.write_text(json.dumps({"model": 1, "n": [5, 5, 5, 5], "rho": 0.5, "reps": 2,
                                  "seed": 8}))
    out = tmp_path / "a.csv"
    assert main(["simulate", "--config", str(config), "--out", str(out), "--seed", "5"]) == 0
    summary = json.loads((tmp_path / "a.summary.json").read_text())
    assert [s["seed"] for s in summary["settings"]] == [5]
