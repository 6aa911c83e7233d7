import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from phidetect import (
    DomainError,
    MixtureSpec,
    diagnostic_H_sparse,
    mixture_family,
)
from phidetect.cli import (
    S_DEFAULT_CAVEAT,
    _load_ini,
    _power_config_from_ini,
    build_parser,
    default_cache_dir,
    main,
    read_data_file,
)
from phidetect.nulldist import cache_load, critical_from_sorted, gumbel_quantile


@pytest.fixture
def datafile(tmp_path):
    path = tmp_path / "data.txt"
    path.write_text("0.25\n0.75\n")
    return path


def _run(capsys, argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr()
    return code, out.out, out.err


# --------------------------------------------------------------------------
# input parsing


def test_read_data_file_plain_and_header(tmp_path):
    plain = tmp_path / "a.txt"
    plain.write_text("1.0\n\n2.5\n-0.5\n")
    np.testing.assert_array_equal(read_data_file(plain), [1.0, 2.5, -0.5])
    headed = tmp_path / "b.csv"
    headed.write_text("value\n0.1,\n0.9\n")
    np.testing.assert_array_equal(read_data_file(headed), [0.1, 0.9])


def test_read_data_file_names_bad_line(tmp_path):
    bad = tmp_path / "c.txt"
    bad.write_text("0.1\n0.2\noops\n")
    with pytest.raises(DomainError) as err:
        read_data_file(bad)
    assert "line 3" in str(err.value)


def test_read_data_file_needs_two_values(tmp_path):
    short = tmp_path / "d.txt"
    short.write_text("0.5\n")
    with pytest.raises(DomainError):
        read_data_file(short)


def test_default_cache_dir(monkeypatch):
    monkeypatch.delenv("PHIDETECT_CACHE", raising=False)
    assert default_cache_dir() == ".phidetect-cache"
    assert default_cache_dir("/x/y") == "/x/y"
    monkeypatch.setenv("PHIDETECT_CACHE", "/from/env")
    assert default_cache_dir() == "/from/env"
    assert default_cache_dir("/flag/wins") == "/flag/wins"


# --------------------------------------------------------------------------
# test subcommand


def test_cmd_test_uniform_pair(capsys, tmp_path, datafile):
    code, out, err = _run(capsys, [
        "test", datafile, "--s", "2", "--reps", "200", "--seed", "1",
        "--alpha", "0.05", "--cache-dir", tmp_path / "cache",
    ])
    assert code == 0
    assert err == ""
    fields = dict(line.split(None, 1) for line in out.strip().split("\n"))
    # two p-values 0.25/0.75: the scan maxes at K(1/2, 1/4) = 1/6, times n = 2
    assert float(fields["statistic"]) == pytest.approx(1.0 / 3.0, rel=1e-15)
    assert fields["n"] == "2"
    assert "unavailable (n < 16)" in fields["asymptotic_critical"]
    assert fields["verdict"].startswith(("reject", "retain"))


def test_cmd_test_json_parity(capsys, tmp_path, datafile):
    argv = ["test", datafile, "--s", "2", "--reps", "200", "--seed", "1",
            "--cache-dir", tmp_path / "cache"]
    code, human, _ = _run(capsys, argv)
    assert code == 0
    code, raw, _ = _run(capsys, argv + ["--json"])
    assert code == 0
    payload = json.loads(raw)
    fields = dict(line.split(None, 1) for line in human.strip().split("\n"))
    assert payload["statistic"] == float(fields["statistic"])
    assert payload["mc_critical"] == float(fields["mc_critical"])
    assert payload["mc_pvalue"] == float(fields["mc_pvalue"])
    assert payload["asymptotic_critical"] is None
    assert payload["reject"] == (payload["statistic"] > payload["mc_critical"])
    assert payload["verdict"] in ("reject", "retain")


def test_cmd_test_default_s_warns_on_stderr(capsys, tmp_path, datafile):
    code, _, err = _run(capsys, [
        "test", datafile, "--reps", "200", "--cache-dir", tmp_path / "cache",
    ])
    assert code == 0
    assert S_DEFAULT_CAVEAT in err


def test_cmd_test_asymptotic_advisory_for_large_n(capsys, tmp_path):
    rng = np.random.default_rng(3)
    path = tmp_path / "n32.txt"
    path.write_text("\n".join(repr(float(v)) for v in rng.uniform(size=32)) + "\n")
    code, raw, _ = _run(capsys, [
        "test", path, "--s", "0", "--reps", "150", "--cache-dir",
        tmp_path / "cache", "--json",
    ])
    assert code == 0
    payload = json.loads(raw)
    assert payload["asymptotic_critical"] is not None
    assert "slow convergence" in payload["asymptotic_label"]


def test_cmd_test_error_exits(capsys, tmp_path):
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    code, _, err = _run(capsys, ["test", empty, "--reps", "100"])
    assert code == 2 and "n >= 2" in err

    outside = tmp_path / "outside.txt"
    outside.write_text("0.5\n1.5\n")
    code, _, err = _run(capsys, ["test", outside, "--s", "2", "--reps", "100",
                                 "--cache-dir", tmp_path / "cache"])
    assert code == 2 and "support" in err

    code, _, err = _run(capsys, ["test", tmp_path / "missing.txt", "--reps", "100"])
    assert code == 3

    bad_model = tmp_path / "ok.txt"
    bad_model.write_text("0.1\n0.9\n")
    code, _, err = _run(capsys, ["test", bad_model, "--model", "cauchy",
                                 "--reps", "100"])
    assert code == 2 and "unknown model" in err


def test_unknown_flag_is_usage_error(datafile):
    with pytest.raises(SystemExit) as exc:
        main(["test", str(datafile), "--frobnicate"])
    assert exc.value.code == 2


# --------------------------------------------------------------------------
# calibrate subcommand


def test_cmd_calibrate_builds_and_reports(capsys, tmp_path):
    cache = tmp_path / "cache"
    argv = ["calibrate", "--n", "40", "--s", "2", "--reps", "120", "--seed", "7",
            "--alpha-list", "0.1,0.5", "--cache-dir", cache, "--json"]
    code, raw, _ = _run(capsys, argv)
    assert code == 0
    payload = json.loads(raw)
    table = cache_load(cache, 40, 2.0, 120, 7)
    assert table is not None
    assert payload["mc_criticals"]["0.1"] == critical_from_sorted(table.sorted_stats, 0.1)
    assert payload["mc_criticals"]["0.5"] == critical_from_sorted(table.sorted_stats, 0.5)
    assert "asymptotic_criticals" in payload  # n=40 >= 16
    first_bytes = (tmp_path / "cache" / payload["table_file"].split("/")[-1]).read_bytes()
    # rebuilding the same recipe is a cache hit: identical file bytes
    code, raw2, _ = _run(capsys, argv)
    assert code == 0
    assert json.loads(raw2) == payload
    second_bytes = (tmp_path / "cache" / payload["table_file"].split("/")[-1]).read_bytes()
    assert first_bytes == second_bytes


def test_cmd_calibrate_env_cache(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("PHIDETECT_CACHE", str(tmp_path / "envcache"))
    code, raw, _ = _run(capsys, ["calibrate", "--n", "20", "--reps", "100",
                                 "--alpha-list", "0.1", "--json"])
    assert code == 0
    assert json.loads(raw)["table_file"].startswith(str(tmp_path / "envcache"))


def test_cmd_calibrate_advisory_is_the_limit_quantile(capsys, tmp_path):
    code, raw, _ = _run(capsys, ["calibrate", "--n", "40", "--reps", "500", "--alpha-list",
                                 "0.01,0.5", "--cache-dir", tmp_path, "--json"])
    assert code == 0
    asym = json.loads(raw)["asymptotic_criticals"]
    assert asym == {"0.01": gumbel_quantile(0.99), "0.5": gumbel_quantile(0.5)}


# --------------------------------------------------------------------------
# power subcommand


POWER_INI = """
[model]
family = normal

[grid]
betas = 0.6
rs = 0.0 1.5
s = 2
ns = 64
alpha = 0.1
reps = 30
seed = 424242

[calibration]
reps = 200
seed = 11
"""


def test_cmd_power_writes_files(capsys, tmp_path):
    csv_path = tmp_path / "out" / "power.csv"
    json_path = tmp_path / "out" / "power.json"
    ini = tmp_path / "cfg.ini"
    ini.write_text(POWER_INI + f"\n[output]\ncsv = {csv_path}\njson = {json_path}\n")
    code, out, err = _run(capsys, ["power", "--config", ini,
                                   "--cache-dir", tmp_path / "cache"])
    assert code == 0
    assert "2 cells, 0 failed" in out
    lines = csv_path.read_text().strip().split("\n")
    assert lines[0].startswith("family,beta,r,s,n")
    assert len(lines) == 3
    docs = json.loads(json_path.read_text())
    rates = {d["r"]: d["rejection_rate"] for d in docs}
    assert rates[1.5] > rates[0.0]


def test_cmd_power_stdout_csv(capsys, tmp_path):
    ini = tmp_path / "cfg.ini"
    ini.write_text(POWER_INI)
    code, out, _ = _run(capsys, ["power", "--config", ini,
                                 "--cache-dir", tmp_path / "cache"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("family,beta,r,s,n")
    assert lines[-1] == "2 cells, 0 failed"


def test_cmd_power_results_are_byte_identical(capsys, tmp_path):
    ini = tmp_path / "cfg.ini"
    ini.write_text(POWER_INI)
    code, out, _ = _run(capsys, ["power", "--config", ini,
                                 "--cache-dir", tmp_path / "cache"])
    assert code == 0
    stdout_csv = out[: out.rindex("2 cells, 0 failed")]
    files = []
    for run in ("a", "b"):
        csv_path, json_path = tmp_path / f"{run}.csv", tmp_path / f"{run}.json"
        ini.write_text(POWER_INI + f"\n[output]\ncsv = {csv_path}\njson = {json_path}\n")
        code, _, _ = _run(capsys, ["power", "--config", ini,
                                   "--cache-dir", tmp_path / "cache"])
        assert code == 0
        files.append((csv_path.read_bytes(), json_path.read_bytes()))
    assert files[0] == files[1]
    assert files[0][0] == stdout_csv.encode("utf-8")


def test_readme_power_ini_parses(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"```ini\n(.*?)```", readme, flags=re.S)
    ini = tmp_path / "grid.ini"
    ini.write_text(block)
    config, _ = _power_config_from_ini(_load_ini(ini), 1, tmp_path / "cache")
    assert config.family == "normal"
    assert config.regime == "sparse"


def test_cmd_power_config_errors(capsys, tmp_path):
    ini = tmp_path / "broken.ini"
    ini.write_text("[model]\nfamily = normal\n")  # no [grid]
    code, _, err = _run(capsys, ["power", "--config", ini])
    assert code == 2 and "[model] and [grid]" in err
    code, _, _ = _run(capsys, ["power", "--config", tmp_path / "nope.ini"])
    assert code == 3
    fractional = tmp_path / "fractional.ini"
    fractional.write_text(POWER_INI.replace("ns = 64", "ns = 64 100.7"))
    code, out, err = _run(capsys, ["power", "--config", fractional,
                                   "--cache-dir", tmp_path / "cache"])
    assert code == 2 and out == "" and "100.7" in err
    assert not (tmp_path / "cache").exists()
    fractional.write_text(POWER_INI.replace("ns = 64", "ns = 1e5"))
    config, _ = _power_config_from_ini(_load_ini(fractional), 1, tmp_path / "cache")
    assert config.n_values == (100_000,)


# --------------------------------------------------------------------------
# boundary subcommand


def test_cmd_boundary_thresholds(capsys, tmp_path):
    code, raw, _ = _run(capsys, ["boundary", "--family", "normal-sparse",
                                 "--beta", "0.6,0.75", "--json"])
    assert code == 0
    rows = json.loads(raw)["rows"]
    assert rows[0]["threshold"] == pytest.approx(0.1, rel=1e-12)
    assert rows[1]["threshold"] == 0.25
    code, raw, _ = _run(capsys, ["boundary", "--family", "expfam-sparse",
                                 "--r", "0.5", "--p", "1", "--json"])
    assert json.loads(raw)["rows"][0]["threshold"] == 0.75


def test_cmd_boundary_classification(capsys):
    code, raw, _ = _run(capsys, ["boundary", "--family", "normal-sparse",
                                 "--beta", "0.6", "--r", "0.5,0.01", "--json"])
    assert code == 0
    rows = json.loads(raw)["rows"]
    assert rows[0]["verdict"] == "Detectable"
    assert rows[1]["verdict"] == "Undetectable"
    assert rows[0]["margin"] == pytest.approx(0.4, rel=1e-12)


def test_cmd_boundary_gamma_table(capsys, tmp_path):
    table = tmp_path / "gamma.csv"
    table.write_text("t,gamma\n0.0,0.0\n10.0,0.0\n")
    code, raw, _ = _run(capsys, ["boundary", "--gamma-table", table, "--json"])
    assert code == 0
    assert json.loads(raw)["beta_sharp"] == 0.5


def test_cmd_boundary_errors(capsys, tmp_path):
    code, _, err = _run(capsys, ["boundary", "--family", "weird", "--beta", "0.6"])
    assert code == 2 and "unknown boundary family" in err
    code, _, err = _run(capsys, ["boundary", "--family", "normal-sparse"])
    assert code == 2
    code, _, err = _run(capsys, ["boundary"])
    assert code == 2
    bad = tmp_path / "bad.csv"
    bad.write_text("t,gamma\n1.0,0.0\n0.5,0.0\n")  # t not increasing
    code, _, err = _run(capsys, ["boundary", "--gamma-table", bad])
    assert code == 2 and "increasing" in err


# --------------------------------------------------------------------------
# diagnose subcommand


DIAG_INI = """
[model]
family = normal
beta = 0.6
r = 0.4
n = 1000
"""


def test_cmd_diagnose_csv(capsys, tmp_path):
    ini = tmp_path / "model.ini"
    ini.write_text(DIAG_INI)
    out_path = tmp_path / "curve.csv"
    code, out, _ = _run(capsys, [
        "diagnose", "--model-config", ini, "--kind", "sparse",
        "--v-min", "0.01", "--v-max", "0.4", "--v-count", "5",
        "--v-scale", "linear", "--out", out_path,
    ])
    assert code == 0 and "wrote" in out
    lines = out_path.read_text().strip().split("\n")
    assert lines[0] == "v,value"
    assert len(lines) == 6
    v, val = (float(tok) for tok in lines[1].split(","))
    spec = MixtureSpec(mixture_family("normal"), 0.6, 0.4, 1000)
    want = diagnostic_H_sparse(spec, [v]).values[0]
    assert val == want  # repr round-trip is exact
    # no numpy scalar reprs leak into the file
    assert "np.float64" not in out_path.read_text()


def test_cmd_diagnose_stdout_grid(capsys, tmp_path):
    ini = tmp_path / "model.ini"
    ini.write_text(DIAG_INI)
    code, out, _ = _run(capsys, ["diagnose", "--model-config", ini,
                                 "--v-count", "4"])
    assert code == 0
    rows = out.strip().split("\n")
    assert rows[0] == "v,value"
    vs = [float(r.split(",")[0]) for r in rows[1:]]
    assert vs == sorted(vs)
    # default grid is geometric
    assert vs[1] / vs[0] == pytest.approx(vs[2] / vs[1], rel=1e-9)


def test_cmd_diagnose_errors(capsys, tmp_path):
    ini = tmp_path / "model.ini"
    ini.write_text(DIAG_INI)
    code, _, err = _run(capsys, ["diagnose", "--model-config", ini,
                                 "--v-min", "0.4", "--v-max", "0.1"])
    assert code == 2 and "--v-min" in err
    incomplete = tmp_path / "incomplete.ini"
    incomplete.write_text("[model]\nfamily = normal\nbeta = 0.6\nr = 0.4\n")
    code, _, err = _run(capsys, ["diagnose", "--model-config", incomplete])
    assert code == 2 and "'n'" in err
    nomodel = tmp_path / "nomodel.ini"
    nomodel.write_text("[grid]\n")
    code, _, err = _run(capsys, ["diagnose", "--model-config", nomodel])
    assert code == 2 and "[model]" in err
    fractional = tmp_path / "fractional.ini"
    fractional.write_text(DIAG_INI.replace("n = 1000", "n = 99.9"))
    code, out, err = _run(capsys, ["diagnose", "--model-config", fractional])
    assert code == 2 and out == "" and "99.9" in err
    fractional.write_text(DIAG_INI.replace("n = 1000", "n = 1e3"))
    assert _run(capsys, ["diagnose", "--model-config", fractional]) == \
        _run(capsys, ["diagnose", "--model-config", ini])


def test_cmd_diagnose_rejects_a_regime_the_family_lacks(capsys, tmp_path):
    ini = tmp_path / "model.ini"
    ini.write_text("[model]\nfamily = normal\nregime = dense\nshape = 3\n"
                   "beta = 0.6\nr = 0.4\nn = 1000\n")
    code, out, err = _run(capsys, ["diagnose", "--model-config", ini])
    assert code == 2 and out == ""
    assert "regime 'dense'" in err


def test_parser_metadata():
    parser = build_parser()
    assert parser.prog == "phidetect"
    with pytest.raises(SystemExit):
        parser.parse_args(["not-a-command"])
