import argparse
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from acg import asymptotics, cli, config_probability, exact_kernel, sampler
from acg.degree_model import load_params
from acg.errors import AcgError

from conftest import BAL2_PARAMS

SRC = Path(cli.__file__).parent


def run_ok(argv, capsys):
    code = cli.run(argv)
    out, err = capsys.readouterr()
    assert code == 0, err
    return out, err


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def config_file(tmp_path, body):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(body))
    return str(path)


SINGLE_IN_EDGE = {
    "root": [1, 2],
    "attachments": [{"node": 1, "parent": 0, "edge": "in", "type": [2, 1]}],
}


# small arguments for every runnable command, keyed by the words that name it
SMALL_RUNS = {
    ("generate",): ["--n", "50", "--seed", "1"],
    ("exact", "partition"): ["--margins", "1,2:1,2"],
    ("exact", "mean"): ["--margins", "1,2:1,2", "--type", "2,2"],
    ("exact", "var"): ["--margins", "1,2:1,2", "--type", "2,2"],
    ("exact", "joint"): ["--sequence", "1,2;2,1", "--types", "2,2"],
    ("exact", "oracle"): ["--sequence", "1,2;2,1"],
    ("asymptotics", "critical-point"): ["--x", "0.4,0.6:0.3,0.7"],
    ("asymptotics", "edge-mean"): ["--x", "0.4,0.6:0.3,0.7", "--type", "2,2"],
    ("asymptotics", "laplace-check"): ["--margins", "4,8:4,8"],
    ("configs", "predict"): ["--config", "config.json"],
    ("configs", "count"): ["--config", "config.json", "--n", "60", "--samples", "2", "--seed", "3"],
    ("validate",): ["--suite", "node-lln", "--sizes", "50,100", "--reps", "2", "--seed", "9"],
}
# keys under which an option's value appears when they differ from the option's name
ECHO_KEYS = {
    "params": ("params_file",),
    "config": ("config_file",),
    "margins": ("e_minus", "e_plus"),
    "suite": ("suites",),
}


def _commands(parser, words=()):
    """(words, parser) for every runnable command below parser."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield words, parser
    for sub in subs:
        for name, child in sub.choices.items():
            yield from _commands(child, (*words, name))


def test_every_command_is_walked():
    assert {words for words, _ in _commands(cli.build_parser())} == set(SMALL_RUNS)


@pytest.mark.parametrize("words", sorted(SMALL_RUNS), ids=" ".join)
def test_run_echo_holds_every_option(words, bal2_file, tmp_path, capsys, monkeypatch):
    """Every option but --out-dir is in the run echo or at the top level of the result.

    A result command prints its value to 10 places, or else the file it writes.
    """
    monkeypatch.chdir(tmp_path)
    (tmp_path / "config.json").write_text(json.dumps(SINGLE_IN_EDGE))
    out, _ = run_ok([*words, "--params", bal2_file, *SMALL_RUNS[words], "--out-dir", "out"], capsys)
    name = "meta.json" if len(words) == 1 else "_".join(words).replace("-", "_") + ".json"
    result = read_json(tmp_path / "out" / name)
    if len(words) == 2:
        text = (tmp_path / "out" / name).read_text()
        assert out == (f"{result['value']:.10f}\n" if "value" in result else text)
    echo = result.get("run", result)
    assert "out_dir" not in echo and echo["command"] == " ".join(words)
    held = {*echo, *result}
    parser = dict(_commands(cli.build_parser()))[words]
    names = [a.option_strings[-1].lstrip("-").replace("-", "_") for a in parser._actions if a.option_strings]
    missing = [
        name
        for name in names
        if name not in ("help", "out_dir")
        and not any(set(keys) <= held for keys in [(name,), ECHO_KEYS.get(name, (name,))])
    ]
    assert not missing


def test_generate_writes_sample_files(bal2_file, tmp_path, capsys):
    out_dir = tmp_path / "g1"
    out, _ = run_ok(
        ["generate", "--params", bal2_file, "--n", "200", "--seed", "5", "--out-dir", str(out_dir)],
        capsys,
    )
    assert "200 nodes" in out
    for name in ("nodes.csv", "edges.tsv", "meta.json", "params.json"):
        assert (out_dir / name).exists()
    meta = read_json(out_dir / "meta.json")
    assert meta["run"]["seed"] == 5
    assert meta["run"]["seed_source"] == "flag"
    assert meta["sample_index"] == 0
    assert meta["n_nodes"] == 200
    params = read_json(out_dir / "params.json")
    assert params["K"] == 2
    assert params["P"][1][2] == 0.5


def test_generate_multi_sample_layout(bal2_file, tmp_path, capsys):
    out_dir = tmp_path / "multi"
    run_ok(
        ["generate", "--params", bal2_file, "--n", "100", "--seed", "6", "--samples", "3", "--out-dir", str(out_dir)],
        capsys,
    )
    assert (out_dir / "meta.json").exists()
    for i in range(3):
        sub = out_dir / f"sample_{i:03d}"
        assert (sub / "edges.tsv").exists()
        assert read_json(sub / "meta.json")["sample_index"] == i


def test_generate_byte_identical(bal2_file, tmp_path, capsys):
    dirs = [tmp_path / "a", tmp_path / "b"]
    for d in dirs:
        run_ok(
            ["generate", "--params", bal2_file, "--n", "500", "--seed", "17", "--out-dir", str(d)],
            capsys,
        )
    for name in ("nodes.csv", "edges.tsv", "meta.json", "params.json"):
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()


def test_exact_mean_prints_value(bal2_file, tmp_path, capsys):
    out, _ = run_ok(
        ["exact", "mean", "--params", bal2_file, "--margins", "1,2:1,2", "--type", "2,2", "--out-dir", str(tmp_path)],
        capsys,
    )
    assert out.strip() == "1.3333333333"
    payload = read_json(tmp_path / "exact_mean.json")
    assert payload["value"] == pytest.approx(4 / 3)
    assert payload["e_minus"] == [0, 1, 2]


def test_exact_var_and_partition(bal2_file, tmp_path, capsys):
    out, _ = run_ok(
        ["exact", "var", "--params", bal2_file, "--margins", "1,2:1,2", "--type", "2,2", "--out-dir", str(tmp_path)],
        capsys,
    )
    assert out.strip() == "0.2222222222"
    out, _ = run_ok(
        ["exact", "partition", "--params", bal2_file, "--margins", "1,2:1,2", "--out-dir", str(tmp_path)],
        capsys,
    )
    payload = json.loads(out)
    assert payload["C"] == pytest.approx(64 / 81)
    assert payload["log_partition"] == pytest.approx(math.log(24 / 729), abs=1e-12)


def test_exact_joint_and_oracle(bal2_file, tmp_path, capsys):
    out, _ = run_ok(
        ["exact", "joint", "--params", bal2_file, "--sequence", "1,2;2,1", "--types", "2,2", "--out-dir", str(tmp_path)],
        capsys,
    )
    # first-edge type law is the per-edge mean: (4/3) / 3
    assert out.strip() == "0.4444444444"
    out, _ = run_ok(
        ["exact", "oracle", "--params", bal2_file, "--sequence", "1,2;2,1", "--out-dir", str(tmp_path)],
        capsys,
    )
    payload = json.loads(out)
    assert payload["n_edges"] == 3
    assert sorted(t["wirings"] for t in payload["tables"]) == [12, 24]
    assert sum(t["probability"] for t in payload["tables"]) == pytest.approx(1.0)


def test_asymptotics_edge_mean(bal2_file, tmp_path, capsys):
    x = "0.3333333333333333,0.6666666666666667:0.3333333333333333,0.6666666666666667"
    out, _ = run_ok(
        ["asymptotics", "edge-mean", "--params", bal2_file, "--x", x, "--type", "2,2", "--out-dir", str(tmp_path)],
        capsys,
    )
    assert out.strip() == "0.4444444444"


def test_asymptotics_critical_point(bal2_file, tmp_path, capsys):
    x = "0.3333333333333333,0.6666666666666667:0.3333333333333333,0.6666666666666667"
    out, _ = run_ok(
        ["asymptotics", "critical-point", "--params", bal2_file, "--x", x, "--out-dir", str(tmp_path)],
        capsys,
    )
    payload = json.loads(out)
    assert payload["iterations"] == 0
    assert payload["gradient_norm"] < 1e-10
    assert payload["alpha_minus"] == pytest.approx([0.0, 0.0], abs=1e-10)


def test_asymptotics_laplace_check(bal2_file, tmp_path, capsys):
    out, _ = run_ok(
        ["asymptotics", "laplace-check", "--params", bal2_file, "--margins", "4,8:4,8", "--out-dir", str(tmp_path)],
        capsys,
    )
    payload = json.loads(out)
    assert payload["edge_total"] == 12
    assert 0.9 < payload["exact_over_laplace"] < 1.0
    out, _ = run_ok(
        [
            "asymptotics", "laplace-check", "--params", bal2_file,
            "--margins", "40,80:40,80", "--cap", "20", "--out-dir", str(tmp_path),
        ],
        capsys,
    )
    payload = json.loads(out)
    assert payload["log_exact"] is None
    assert payload["exact_over_laplace"] is None
    assert payload["log_laplace"] is not None


def test_configs_predict(bal2_file, tmp_path, capsys):
    cfg_path = config_file(tmp_path, SINGLE_IN_EDGE)
    out, _ = run_ok(
        ["configs", "predict", "--params", bal2_file, "--config", cfg_path, "--out-dir", str(tmp_path)],
        capsys,
    )
    assert out.strip() == "0.3333333333"


def test_configs_count(bal2_file, tmp_path, capsys):
    cfg_path = config_file(tmp_path, SINGLE_IN_EDGE)
    out, _ = run_ok(
        [
            "configs", "count", "--params", bal2_file, "--config", cfg_path,
            "--n", "300", "--samples", "2", "--seed", "3", "--out-dir", str(tmp_path),
        ],
        capsys,
    )
    payload = json.loads(out)
    assert payload["graphs_scanned"] == 2
    assert payload["predicted"] == pytest.approx(1 / 3)
    assert payload["frequency"] == payload["count"] / 2
    assert read_json(tmp_path / "configs_count.json")["run"]["seed"] == 3


def test_validate_suite_outputs(bal2_file, tmp_path, capsys):
    dirs = [tmp_path / "v1", tmp_path / "v2"]
    for d in dirs:
        out, _ = run_ok(
            [
                "validate", "--params", bal2_file, "--suite", "edge-lln",
                "--sizes", "100,200", "--reps", "2", "--seed", "9", "--out-dir", str(d),
            ],
            capsys,
        )
        assert "edge-lln: slope=" in out
    for name in ("meta.json", "validate_edge_lln.json", "validate_edge_lln.tsv"):
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()
    tsv = (dirs[0] / "validate_edge_lln.tsv").read_text().splitlines()
    assert tsv[0] == "size\tmax_deviation\ttv_distance"
    assert len(tsv) == 3
    meta = read_json(dirs[0] / "meta.json")
    assert meta["seed"] == 9
    assert meta["suites"] == ["edge-lln"]


def test_validate_self_loops_suite(bal2_file, tmp_path, capsys):
    out, _ = run_ok(
        [
            "validate", "--params", bal2_file, "--suite", "self-loops",
            "--n", "300", "--reps", "30", "--seed", "13", "--out-dir", str(tmp_path),
        ],
        capsys,
    )
    payload = read_json(tmp_path / "validate_self_loops.json")
    assert payload["suite"] == "self-loops"
    assert payload["report"]["reps"] == 30


def test_validate_all_is_each_suite_alone_in_table_order(bal2_file, tmp_path, capsys):
    flags = ["--params", bal2_file, "--sizes", "50,100", "--reps", "4", "--n", "60", "--seed", "2"]
    out, _ = run_ok(["validate", "--suite", "all", *flags, "--out-dir", str(tmp_path / "all")], capsys)
    assert read_json(tmp_path / "all" / "meta.json")["suites"] == list(cli.SUITES)
    lines = out.splitlines()
    assert [line.split(":")[0] for line in lines] == list(cli.SUITES)
    for suite, line in zip(cli.SUITES, lines):
        alone, _ = run_ok(["validate", "--suite", suite, *flags, "--out-dir", str(tmp_path / suite)], capsys)
        assert alone.replace(str(tmp_path / suite), "OUT") == line.replace(str(tmp_path / "all"), "OUT") + "\n"
        stem = "validate_" + suite.replace("-", "_")
        for name in (f"{stem}.json", f"{stem}.tsv"):
            assert (tmp_path / suite / name).read_bytes() == (tmp_path / "all" / name).read_bytes()


def test_exit_codes(bal2_file, tmp_path, capsys):
    assert cli.run([]) == 2
    capsys.readouterr()
    assert cli.run(["exact"]) == 2
    capsys.readouterr()
    assert cli.run(["--help"]) == 0
    capsys.readouterr()
    code = cli.run(["generate", "--params", str(tmp_path / "missing.json"), "--n", "10", "--seed", "1", "--out-dir", str(tmp_path)])
    _, err = capsys.readouterr()
    assert code == 1
    assert err.startswith("error:")


K3_PARAMS = {
    "K": 3,
    "P": [[0, 0, 0, 0], [0, 0.25, 0, 0], [0, 0, 0.25, 0], [0, 0, 0, 0.5]],
    "Q": [
        [0, 0, 0, 0],
        [0, 0.125, 0.0625, 0.0625],
        [0, 0.0625, 0.25, 0.0625],
        [0, 0.0625, 0.0625, 0.25],
    ],
}


def test_exact_mean_rejects_type_outside_cutoff(tmp_path, capsys):
    params = tmp_path / "k3.json"
    params.write_text(json.dumps(K3_PARAMS))
    code = cli.run([
        "exact", "mean", "--params", str(params), "--margins", "8,10,12:10,10,10",
        "--type", "5,1", "--out-dir", str(tmp_path),
    ])
    _, err = capsys.readouterr()
    assert code == 1
    assert err.startswith("error:")
    assert "Traceback" not in err


@pytest.mark.parametrize("action", ["mean", "var"])
def test_exact_moment_of_a_degree_0_type_is_rejected_as_asymptotics_rejects_it(bal2_file, tmp_path, capsys, action):
    # no edge joins a degree-0 stub; exact mean once printed 0.0000000000 here
    rest = ["--params", bal2_file, "--type", "0,1", "--out-dir", str(tmp_path / "out")]
    assert cli.run(["exact", action, "--margins", "1,2:1,2", *rest]) == 1
    _, exact_err = capsys.readouterr()
    assert cli.run(["asymptotics", "edge-mean", "--x", "0.4,0.6:0.3,0.7", *rest]) == 1
    _, asymptotics_err = capsys.readouterr()
    assert exact_err == asymptotics_err == "error: edge type (0, 1) outside degrees 1..2\n"
    assert not any((tmp_path / "out").iterdir())


def test_critical_point_at_a_zero_on_a_joined_class_is_rejected(bal2_file, tmp_path, capsys):
    # H has no minimum there; a "critical point" with alpha_1 = -22.75 was once written
    out_dir = tmp_path / "out"
    argv = ["asymptotics", "critical-point", "--params", bal2_file, "--x", "0,1:0,1", "--out-dir", str(out_dir)]
    assert cli.run(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: margin is 0 on a class of the part of in-degrees [1, 2] and out-degrees [1, 2]\n"
    assert not out_dir.exists() or not any(out_dir.iterdir())


@pytest.mark.parametrize("scale", ["1e200", "1e300", "1e-300"])
def test_a_point_at_an_end_of_the_float_range_is_answered(bal2_file, tmp_path, scale):
    # Newton from alpha = 0 at the point itself once stopped with "backtracking line search stalled"
    # (huge: H overflowed at every trial step) or "projected Hessian is singular at an iterate"
    # (tiny: the weights underflowed); at x / c each point is the 0.5 point
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))}
    results = []
    for name, x in (("half", "0.5,0.5:0.5,0.5"), ("scaled", ":".join([f"{scale},{scale}"] * 2))):
        out_dir = tmp_path / name
        argv = ["asymptotics", "critical-point", "--params", bal2_file, "--x", x, "--out-dir", str(out_dir)]
        proc = subprocess.run([sys.executable, "-m", "acg.cli", *argv], env=env, capture_output=True, text=True)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert [p.name for p in out_dir.iterdir()] == ["asymptotics_critical_point.json"]
        result = read_json(out_dir / "asymptotics_critical_point.json")
        results.append(result["alpha_minus"] + result["alpha_plus"])
    shift = math.log(2 * float(scale)) / 2
    assert max(abs(a - b - shift) for a, b in zip(results[1], results[0])) < 1e-9


def test_exact_var_of_a_heavy_cell_matches_fractions(tmp_path, capsys):
    # the variance 0.095 is small next to E[e (e - 1)] ~ 3300, within the default cap
    q = [[0, 0, 0], [0, 0.1, 0.1], [0, 0.1, 0.7]]
    params = tmp_path / "heavy.json"
    params.write_text(json.dumps({"K": 2, "P": [[0, 0, 0], [0, 0, 0.5], [0, 0.5, 0]], "Q": q}))
    out, _ = run_ok([
        "exact", "var", "--params", str(params), "--margins", "1,59:1,59", "--type", "2,2", "--out-dir", str(tmp_path),
    ], capsys)
    exact = exact_kernel.exact_edge_variance([0, 1, 59], [0, 1, 59], [[Fraction(x) for x in row] for row in q], 2, 2)
    assert read_json(tmp_path / "exact_var.json")["value"] == pytest.approx(float(exact), rel=1e-9)
    assert float(out) == pytest.approx(float(exact), rel=1e-9)


def test_exact_partition_beyond_float_range(tmp_path, capsys):
    params = tmp_path / "k3.json"
    params.write_text(json.dumps(K3_PARAMS))
    out, _ = run_ok([
        "exact", "partition", "--params", str(params), "--margins", "36,54,90:54,54,72",
        "--cap", "200", "--out-dir", str(tmp_path),
    ], capsys)
    payload = json.loads(out)
    assert payload["C"] == "inf"
    assert math.isfinite(payload["log_partition"])


def test_inconsistent_params_rejected(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "K": 2,
        "P": [[0, 0, 0], [0, 0, 0.5], [0, 0.5, 0]],
        "Q": [[0, 0, 0], [0, 1 / 6, 1 / 3], [0, 1 / 3, 1 / 6]],
    }))
    code = cli.run(["generate", "--params", str(bad), "--n", "10", "--seed", "1", "--out-dir", str(tmp_path)])
    _, err = capsys.readouterr()
    assert code == 1
    assert "error:" in err


def test_seed_from_env(bal2_file, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("ACG_SEED", "77")
    out_dir = tmp_path / "env"
    run_ok(["generate", "--params", bal2_file, "--n", "50", "--out-dir", str(out_dir)], capsys)
    meta = read_json(out_dir / "meta.json")
    assert meta["run"]["seed"] == 77
    assert meta["run"]["seed_source"] == "env"
    monkeypatch.setenv("ACG_SEED", "not-a-number")
    code = cli.run(["generate", "--params", bal2_file, "--n", "50", "--out-dir", str(out_dir)])
    _, err = capsys.readouterr()
    assert code == 1
    assert "ACG_SEED" in err


def test_generated_seed_logged(bal2_file, tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("ACG_SEED", raising=False)
    out_dir = tmp_path / "fresh"
    out, err = run_ok(["generate", "--params", bal2_file, "--n", "50", "--out-dir", str(out_dir)], capsys)
    assert "drew seed=" in err
    assert read_json(out_dir / "meta.json")["run"]["seed_source"] == "generated"


def test_entry_point_subprocess(bal2_file, tmp_path):
    proc = subprocess.run(
        [
            sys.executable, "-m", "acg.cli", "exact", "mean",
            "--params", bal2_file, "--margins", "1,2:1,2", "--type", "2,2",
            "--out-dir", str(tmp_path),
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "1.3333333333"


@pytest.mark.parametrize(
    "body",
    [
        {"root": [1, 2], "attachments": [{"parent": 0, "edge": "in", "type": [2, 1]}]},
        [SINGLE_IN_EDGE],
        {"root": [1], "attachments": []},
        {
            "root": None,
            "attachments": [
                {"node": 1, "parent": 0, "edge": "in", "type": [1, 1]},
                {"node": 1, "parent": 0, "edge": "out", "type": [2, 2]},
            ],
        },
        # node types outside bal2's degrees 0..2
        {"root": [1, 2], "attachments": [{"node": 1, "parent": 0, "edge": "in", "type": [5, 5]}]},
        {"root": [1, 2], "attachments": [{"node": 1, "parent": 0, "edge": "in", "type": [-1, 1]}]},
        {"root": [-2, 2], "attachments": [{"node": 1, "parent": 0, "edge": "in", "type": [2, 1]}]},
        # indices and degrees that are not integers, which once read as their truncation
        # (root [1.7, 2] predicted 0.3333333333, the value of [1, 2])
        {**SINGLE_IN_EDGE, "root": [1.7, 2]},
        {"root": [1, 2], "attachments": [{"node": 1, "parent": 0, "edge": "in", "type": [True, 1]}]},
        {"root": [1, 2], "attachments": [{"node": 1, "parent": 0, "edge": "in", "type": ["2", 1]}]},
        {"root": [1, 2], "attachments": [{"node": 1.5, "parent": 0, "edge": "in", "type": [2, 1]}]},
    ],
)
@pytest.mark.parametrize("action", ["predict", "count"])
def test_configs_reject_malformed_configuration(bal2_file, tmp_path, capsys, monkeypatch, body, action):
    def no_sampling(*args, **kwargs):
        raise AssertionError("a graph was drawn for a configuration the counter rejects")

    monkeypatch.setattr(config_probability, "generate_graph", no_sampling)
    out_dir = tmp_path / "out"
    argv = ["configs", action, "--params", bal2_file, "--config", config_file(tmp_path, body)]
    if action == "count":
        argv += ["--n", "50", "--samples", "1", "--seed", "1"]
    code = cli.run(argv + ["--out-dir", str(out_dir)])
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "Traceback" not in err
    assert not any(out_dir.iterdir())


def test_configs_count_rejects_a_params_file_as_configuration(tmp_path, capsys):
    fixtures = Path(__file__).resolve().parents[1] / "clibench" / "fixtures"
    code = cli.run([
        "configs", "count", "--params", str(fixtures / "assort_k10.json"),
        "--config", str(fixtures / "exact_k3.json"), "--n", "50", "--seed", "1", "--out-dir", str(tmp_path),
    ])
    _, err = capsys.readouterr()
    assert code == 1
    assert err.startswith("error:")
    assert "Traceback" not in err


@pytest.mark.parametrize("flag", ["--params", "--config"])
def test_a_file_that_is_not_json_is_named_in_one_error_line(bal2_file, tmp_path, capsys, flag):
    # cut off inside P; json.load's message once came out alone, without the file
    truncated = tmp_path / "truncated.json"
    truncated.write_text('{"K": 2, "P": [[0,')
    files = {"--params": bal2_file, "--config": config_file(tmp_path, SINGLE_IN_EDGE), flag: str(truncated)}
    out_dir = tmp_path / "out"
    argv = ["configs", "predict", "--params", files["--params"], "--config", files["--config"], "--out-dir", str(out_dir)]
    code = cli.run(argv)
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert err == f"error: {truncated} is not a JSON file: Expecting value: line 1 column 19 (char 18)\n"
    assert not out_dir.exists() or not any(out_dir.iterdir())


@pytest.mark.parametrize("flag", ["--params", "--config"])
def test_a_rejected_file_is_named_in_one_error_line(bal2_file, tmp_path, capsys, flag):
    # valid JSON that its reader rejects: a fractional K, and an unknown key of a configuration;
    # configs reads both files, and the message once did not say which one failed
    rejected = tmp_path / "rejected.json"
    body = {"--params": {**BAL2_PARAMS, "K": 2.7}, "--config": {**SINGLE_IN_EDGE, "roots": [1, 2]}}[flag]
    rejected.write_text(json.dumps(body))
    files = {"--params": bal2_file, "--config": config_file(tmp_path, SINGLE_IN_EDGE), flag: str(rejected)}
    out_dir = tmp_path / "out"
    argv = ["configs", "predict", "--params", files["--params"], "--config", files["--config"], "--out-dir", str(out_dir)]
    code = cli.run(argv)
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: {rejected}: ") and err.count("\n") == 1
    assert not out_dir.exists() or not any(out_dir.iterdir())


@pytest.mark.parametrize("value", ["inf", "nan"])
@pytest.mark.parametrize(
    "argv",
    [
        ["generate", "--n", "50", "--seed", "1"],
        ["configs", "count", "--n", "50", "--seed", "1"],
        ["validate", "--suite", "node-lln", "--seed", "1"],
    ],
)
def test_non_finite_delta_is_rejected(bal2_file, tmp_path, capsys, argv, value):
    out_dir = tmp_path / "out"
    extra = ["--config", config_file(tmp_path, SINGLE_IN_EDGE)] if argv[0] == "configs" else []
    code = cli.run([*argv, "--params", bal2_file, *extra, "--delta", value, "--out-dir", str(out_dir)])
    _, err = capsys.readouterr()
    assert code == 2
    assert "finite" in err
    assert not (out_dir / "meta.json").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["generate", "--n", "50", "--seed", "1", "--samples", "0"],
        ["generate", "--n", "50", "--seed", "1", "--samples", "-2"],
        ["generate", "--n", "50", "--seed", "1", "--max-redraws", "-1"],
        ["generate", "--n", "50", "--seed", "1", "--max-restarts", "-1"],
        ["configs", "count", "--n", "50", "--seed", "1", "--samples", "0"],
        ["configs", "count", "--n", "50", "--seed", "1", "--samples", "-2"],
        ["validate", "--suite", "self-loops", "--seed", "1", "--reps", "0"],
        ["validate", "--suite", "node-lln", "--seed", "1", "--reps", "-1"],
        ["validate", "--suite", "assortativity", "--seed", "1", "--reps", "0"],
    ],
)
def test_count_flags_below_their_lower_bound_are_rejected(bal2_file, tmp_path, capsys, argv):
    out_dir = tmp_path / "out"
    extra = ["--config", config_file(tmp_path, SINGLE_IN_EDGE)] if argv[0] == "configs" else []
    code = cli.run([*argv, "--params", bal2_file, *extra, "--out-dir", str(out_dir)])
    _, err = capsys.readouterr()
    assert code == 2
    assert f"argument {argv[-2]}: expected an integer >=" in err
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["generate", "--seed", "1", "--n", "0"],
        ["generate", "--seed", "1", "--n", "-3"],
        ["configs", "count", "--seed", "1", "--n", "0"],
        ["validate", "--suite", "node-lln", "--seed", "1", "--sizes", "0"],
        ["validate", "--suite", "edge-lln", "--seed", "1", "--sizes", "100,-1"],
        ["validate", "--suite", "self-loops", "--seed", "1", "--n", "-5"],
        ["validate", "--suite", "assortativity", "--seed", "1", "--n", "0"],
        ["validate", "--suite", "first-edges", "--seed", "1", "--length", "0"],
        ["validate", "--suite", "first-edges", "--seed", "1", "--length", "6"],
    ],
)
def test_size_flags_out_of_range_are_rejected(bal2_file, tmp_path, capsys, argv):
    out_dir = tmp_path / "out"
    extra = ["--config", config_file(tmp_path, SINGLE_IN_EDGE)] if argv[0] == "configs" else []
    code = cli.run([*argv, "--params", bal2_file, *extra, "--out-dir", str(out_dir)])
    _, err = capsys.readouterr()
    assert code == 2
    assert f"argument {argv[-2]}:" in err
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "attachments",
    [
        [
            {"node": 1, "parent": 0, "edge": "in", "type": [1, 1]},
            {"node": 1, "parent": 0, "edge": "out", "type": [2, 2]},
        ],
        [{"node": i + 1, "parent": i, "edge": "out"} for i in range(5)],
    ],
    ids=["conflicting-types", "too-many-edges"],
)
def test_configs_count_checks_the_configuration_before_sampling(bal2_file, tmp_path, capsys, monkeypatch, attachments):
    def no_sampling(*args, **kwargs):
        raise AssertionError("a graph was drawn for a configuration the counter rejects")

    monkeypatch.setattr(sampler, "generate_graph", no_sampling)
    monkeypatch.setattr(config_probability, "generate_graph", no_sampling)
    code = cli.run([
        "configs", "count", "--params", bal2_file, "--config", config_file(tmp_path, {"attachments": attachments}),
        "--n", "10000", "--seed", "1", "--out-dir", str(tmp_path),
    ])
    _, err = capsys.readouterr()
    assert code == 1
    assert err.startswith("error:")
    assert "Traceback" not in err
    assert not (tmp_path / "configs_count.json").exists()


def _cli(*argv, status=0):
    """A statement that runs the CLI on argv and exits with 0 when it returns status."""
    return f"import acg.cli\nraise SystemExit(acg.cli.run({list(argv)!r}) != {status})"


# (prelude, statement, modules the statement must not load) per row; a module
# covers its submodules, and a fresh interpreter runs each row next to bal2.json
IMPORT_FOOTPRINTS = {
    "import-acg": ("", "import acg", [f"acg.{path.stem}" for path in SRC.glob("*.py") if path.stem != "__init__"]),
    **{
        f"{command}-help": ("", _cli(command, "--help"), ["numpy"])
        for command in sorted({words[0] for words in SMALL_RUNS})
    },
    # the exact kernel reads Q's rows as lists: no exact action loads numpy
    **{
        f"exact-{words[1]}": (
            "",
            _cli(*words, "--params", "bal2.json", *argv, "--out-dir", "out"),
            ["numpy", "acg.sampler", "acg._fanout", "acg.config_probability", "acg.stats_validation"],
        )
        for words, argv in SMALL_RUNS.items()
        if words[0] == "exact"
    },
    # the saddlepoint layer reads Q's rows and the point as lists and returns lists, and no result
    # of an exact or saddlepoint call is a dataclass, whose module loads inspect
    **{
        f"{words[0]}-{words[1]}-without-dataclasses": (
            "",
            _cli(*words, "--params", "bal2.json", *argv, "--out-dir", "out"),
            ["dataclasses", "inspect"] + (["numpy", "acg.degree_model"] if words[0] == "asymptotics" else []),
        )
        for words, argv in SMALL_RUNS.items()
        if words[0] in ("exact", "asymptotics")
    },
    "generate": (
        "",
        _cli("generate", "--params", "bal2.json", "--n", "50", "--seed", "1", "--out-dir", "out"),
        ["acg.exact_kernel", "acg.asymptotics"],
    ),
    # a flag that its rule rejects stops the run before any layer loads
    "validate-rejected-reps": (
        "",
        _cli("validate", "--params", "bal2.json", "--suite", "node-lln", "--reps", "0", "--out-dir", "out", status=2),
        ["numpy"],
    ),
    "generate-rejected-delta": (
        "",
        _cli("generate", "--params", "bal2.json", "--n", "50", "--delta", "inf", "--out-dir", "out", status=2),
        ["numpy"],
    ),
    "asymptotics-rejected-x": (
        "",
        _cli("asymptotics", "critical-point", "--params", "bal2.json", "--x", "nan,0.5:0.5,0.5", "--out-dir", "out", status=2),
        ["numpy"],
    ),
    # numpy itself may import ctypes; importing the sampler must add neither it nor the kernel
    "sampler-builds-no-kernel": ("import numpy", "import acg.cli, acg.sampler", ["ctypes", "acg._wiring"]),
    # scipy serves the benchmark only
    "every-layer-leaves-scipy-out": ("", "from acg import *", ["scipy"]),
}


@pytest.mark.parametrize("row", IMPORT_FOOTPRINTS)
def test_import_footprint(row, bal2_file, tmp_path):
    prelude, statement, absent = IMPORT_FOOTPRINTS[row]
    code = "\n".join([
        "import atexit, sys",
        prelude,
        "before = set(sys.modules)",
        "atexit.register(lambda: print('loaded:', *sorted(set(sys.modules) - before)))",
        statement,
    ])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    loaded = proc.stdout.splitlines()[-1].split()[1:]
    assert [m for m in loaded if any(m == a or m.startswith(a + ".") for a in absent)] == []


@pytest.mark.parametrize("value", ["inf", "nan", "-1", "0"])
@pytest.mark.parametrize(
    "argv",
    [
        ["critical-point", "--x", "0.4,0.6:0.3,0.7"],
        ["edge-mean", "--x", "0.4,0.6:0.3,0.7", "--type", "2,2"],
        ["laplace-check", "--margins", "4,8:4,8"],
    ],
)
def test_bad_tol_is_rejected(bal2_file, tmp_path, capsys, argv, value):
    out_dir = tmp_path / "out"
    code = cli.run(["asymptotics", *argv, "--params", bal2_file, f"--tol={value}", "--out-dir", str(out_dir)])
    _, err = capsys.readouterr()
    assert code == 2
    assert "--tol" in err
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["asymptotics", "critical-point", "--x", "nan,0.5:0.5,0.5"],
        ["asymptotics", "edge-mean", "--type", "2,2", "--x", "inf,0.5:0.5,0.5"],
        ["exact", "mean", "--margins", "1,2:1,2", "--type", "2"],
        ["exact", "var", "--margins", "1,2:1,2", "--type", "1,2,3"],
        ["exact", "oracle", "--sequence", "1,2;2"],
        ["exact", "partition", "--margins", "1,2:1"],
        ["asymptotics", "laplace-check", "--margins", "1,2"],
        ["validate", "--suite", "node-lln", "--seed", "1", "--sizes", ","],
    ],
)
def test_malformed_list_flags_are_rejected(bal2_file, tmp_path, capsys, argv):
    out_dir = tmp_path / "out"
    code = cli.run([*argv, "--params", bal2_file, "--out-dir", str(out_dir)])
    out, err = capsys.readouterr()
    assert code == 2
    assert f"argument {argv[-2]}:" in err
    assert out == ""
    assert not out_dir.exists()


_POINT = [0.4, 0.3, 0.6, 0.7]
# flag -> (the command that reads it, a value its rule rejects, the library call that value feeds)
SHARED_RULES = {
    "--tol": (
        ["asymptotics", "critical-point", "--x", "0.4,0.6:0.3,0.7"],
        0.0,
        lambda p, q, v: asymptotics.solve_critical_point(_POINT, q, tol=v),
    ),
    "--delta": (["generate", "--n", "50", "--seed", "1"], math.nan, lambda p, q, v: sampler.generate_graph(p, q, 50, v, 1)),
    "--max-iter": (
        ["asymptotics", "critical-point", "--x", "0.4,0.6:0.3,0.7"],
        0,
        lambda p, q, v: asymptotics.solve_critical_point(_POINT, q, max_iter=v),
    ),
    "--cap": (
        ["exact", "partition", "--margins", "1,2:1,2"],
        -1,
        lambda p, q, v: exact_kernel.log_partition([0, 1, 2], [0, 1, 2], q, cap=v),
    ),
    "--max-redraws": (
        ["generate", "--n", "50", "--seed", "1"],
        -1,
        lambda p, q, v: sampler.generate_graph(p, q, 50, seed=1, max_redraws=v),
    ),
    "--max-restarts": (
        ["generate", "--n", "50", "--seed", "1"],
        -1,
        lambda p, q, v: sampler.generate_graph(p, q, 50, seed=1, max_restarts=v),
    ),
}


@pytest.mark.parametrize("flag", SHARED_RULES)
def test_a_flag_and_its_library_parameter_reject_a_value_alike(flag, bal2_file, tmp_path, capsys):
    words, value, call = SHARED_RULES[flag]
    code = cli.run([*words, "--params", bal2_file, flag, str(value), "--out-dir", str(tmp_path / "out")])
    _, err = capsys.readouterr()
    with pytest.raises(AcgError) as info:
        call(*load_params(bal2_file), value)
    assert code == 2
    assert err.splitlines()[-1].endswith(f"error: argument {flag}: {info.value}")
    assert not (tmp_path / "out").exists()


def nothing_written(out_dir) -> bool:
    return not out_dir.exists() or not any(out_dir.iterdir())


@pytest.mark.parametrize(
    "argv",
    [
        ["generate", "--n", "10", "--seed", "-1"],
        ["configs", "count", "--n", "10", "--seed", "-1"],
        ["validate", "--suite", "node-lln", "--seed", "-1"],
        ["asymptotics", "critical-point", "--x", "0.4,0.6:0.3,0.7", "--max-iter", "-5"],
        ["asymptotics", "critical-point", "--x", "0.4,0.6:0.3,0.7", "--max-iter", "0"],
        ["exact", "partition", "--margins", "1,2:1,2", "--cap", "-1"],
        ["exact", "oracle", "--sequence", "1,2;2,1", "--cap", "-1"],
        ["asymptotics", "laplace-check", "--margins", "4,8:4,8", "--cap", "-1"],
    ],
)
def test_integer_flags_below_their_floor_are_rejected(bal2_file, tmp_path, capsys, argv):
    out_dir = tmp_path / "out"
    extra = ["--config", config_file(tmp_path, SINGLE_IN_EDGE)] if argv[0] == "configs" else []
    code = cli.run([*argv, "--params", bal2_file, *extra, "--out-dir", str(out_dir)])
    _, err = capsys.readouterr()
    assert code == 2
    assert f"argument {argv[-2]}: expected an integer >=" in err
    assert nothing_written(out_dir)


@pytest.mark.parametrize(
    "argv",
    [
        ["generate", "--n", "10"],
        ["validate", "--suite", "node-lln"],
    ],
)
def test_negative_env_seed_is_rejected_before_writing(bal2_file, tmp_path, capsys, monkeypatch, argv):
    monkeypatch.setenv("ACG_SEED", "-3")
    out_dir = tmp_path / "out"
    code = cli.run([*argv, "--params", bal2_file, "--out-dir", str(out_dir)])
    _, err = capsys.readouterr()
    assert code == 1
    assert err.startswith("error:") and "ACG_SEED" in err
    assert nothing_written(out_dir)


@pytest.mark.parametrize("samples", ["1", "3"])
def test_generate_that_fails_to_draw_writes_nothing(bal2_file, tmp_path, capsys, samples):
    # delta -10 clips no node sequence at N = 3, and one redraw is allowed
    out_dir = tmp_path / "out"
    code = cli.run([
        "generate", "--params", bal2_file, "--n", "3", "--delta", "-10", "--max-redraws", "1", "--seed", "1",
        "--samples", samples, "--out-dir", str(out_dir),
    ])
    _, err = capsys.readouterr()
    assert code == 1
    assert err.startswith("error:") and "redraws" in err
    assert nothing_written(out_dir)


@pytest.mark.parametrize("suite", ["first-edges", "all"])
def test_validate_rejects_too_few_first_edges_reps_before_writing(bal2_file, tmp_path, capsys, suite):
    # bal2 supports 4 edge types: 4^2 = 16 cells for 10 reps
    out_dir = tmp_path / "out"
    code = cli.run([
        "validate", "--params", bal2_file, "--suite", suite, "--length", "2", "--reps", "10", "--seed", "1",
        "--out-dir", str(out_dir),
    ])
    _, err = capsys.readouterr()
    assert code == 1
    assert err.startswith("error:") and "16 tuples" in err
    assert "Traceback" not in err
    assert nothing_written(out_dir)


def test_validate_rejects_one_self_loop_rep_before_writing(bal2_file, tmp_path, capsys):
    out_dir = tmp_path / "out"
    code = cli.run([
        "validate", "--params", bal2_file, "--suite", "self-loops", "--reps", "1", "--n", "300", "--seed", "1",
        "--out-dir", str(out_dir),
    ])
    _, err = capsys.readouterr()
    assert code == 1
    assert err.startswith("error:") and "at least 2 reps" in err
    assert "Traceback" not in err
    assert nothing_written(out_dir)


@pytest.mark.parametrize("suite", ["node-lln", "edge-lln"])
def test_validate_rejects_a_repeated_size_before_writing(bal2_file, tmp_path, capsys, suite):
    # both entries drew the stream of size 500, and a slope was fitted to two copies of one point
    out_dir = tmp_path / "out"
    code = cli.run([
        "validate", "--params", bal2_file, "--suite", suite, "--sizes", "500,500", "--reps", "2", "--seed", "1",
        "--out-dir", str(out_dir),
    ])
    out, err = capsys.readouterr()
    assert code == 1
    assert (out, err) == ("", "error: an LLN suite takes each size once, got 500 more than once\n")
    assert nothing_written(out_dir)


def test_validate_lln_with_a_zero_deviation_writes_no_slope(tmp_path, capsys):
    # one node of assort_k2 deviates by 1 and two nodes by 0; the log of a 1e-300 floor once gave slope -996.578
    out, _ = run_ok(
        [
            "validate", "--params", str(ASSORT_K2), "--suite", "node-lln", "--sizes", "1,2", "--reps", "1",
            "--seed", "1", "--out-dir", str(tmp_path),
        ],
        capsys,
    )
    assert out.startswith("node-lln: slope=nan -> ")
    report = read_json(tmp_path / "validate_node_lln.json")["report"]
    assert report["max_deviations"] == [1.0, 0.0]
    assert (report["slope"], report["slope_ok"]) == ("nan", False)


def test_validate_writes_nothing_when_its_third_suite_fails(bal2_file, tmp_path, capsys):
    # the LLN suites balance their even sizes in time; at the odd n = 101 first-edges never
    # draws a balanced sequence, which delta -10 requires
    out_dir = tmp_path / "out"
    code = cli.run([
        "validate", "--params", bal2_file, "--suite", "all", "--sizes", "100,200", "--reps", "4",
        "--n", "101", "--delta", "-10", "--seed", "1", "--out-dir", str(out_dir),
    ])
    out, err = capsys.readouterr()
    assert code == 1
    assert (out, err) == ("", "error: no acceptable node sequence in 1000 redraws\n")
    assert nothing_written(out_dir)


def test_validate_assortativity_without_a_coefficient(tmp_path, capsys):
    # one node type: every edge joins the same degrees, so no graph has a coefficient
    params = tmp_path / "single.json"
    params.write_text(json.dumps({"K": 1, "P": [[0, 0], [0, 1.0]], "Q": [[0, 0], [0, 1.0]]}))
    out, _ = run_ok(
        [
            "validate", "--params", str(params), "--suite", "assortativity",
            "--n", "50", "--reps", "2", "--seed", "1", "--out-dir", str(tmp_path),
        ],
        capsys,
    )
    assert out.startswith("assortativity: mean=nan -> ")
    assert (tmp_path / "validate_assortativity.tsv").read_text() == "rep\tcoefficient\n0\tnan\n1\tnan\n"
    report = read_json(tmp_path / "validate_assortativity.json")["report"]
    assert report["coefficients"] == [None, None]
    assert report["mean_coefficient"] is None


@pytest.mark.parametrize(
    "argv",
    [
        ["exact", "joint", "--sequence=-1,1;1,0", "--types", "1,1"],
        ["exact", "oracle", "--sequence=-1,1;1,0"],
    ],
)
def test_exact_sequence_with_a_negative_degree_is_rejected(bal2_file, tmp_path, capsys, argv):
    # the in-degree -1 balances the stub totals if it is dropped instead of rejected
    out_dir = tmp_path / "out"
    code = cli.run([*argv, "--params", bal2_file, "--out-dir", str(out_dir)])
    _, err = capsys.readouterr()
    assert code == 1
    assert err.startswith("error:")
    assert "Traceback" not in err
    assert nothing_written(out_dir)


ASSORT_K2 = Path(__file__).resolve().parents[1] / "clibench" / "fixtures" / "assort_k2.json"
# seed 1 draws two graphs, then finds no clipped node sequence for the third
FAILS_AT_THIRD_SAMPLE = [
    "generate", "--params", str(ASSORT_K2), "--n", "4", "--delta", "0", "--max-redraws", "0", "--seed", "1",
    "--samples", "3",
]


def test_generate_samples_that_fail_midway_remove_their_directories(tmp_path, capsys):
    out_dir = tmp_path / "out"
    code = cli.run([*FAILS_AT_THIRD_SAMPLE, "--out-dir", str(out_dir)])
    out, err = capsys.readouterr()
    assert code == 1
    assert err.startswith("error:") and "redraws" in err
    assert "sample_001" in out  # the first two graphs were written before the failure
    assert nothing_written(out_dir)


def test_generate_samples_that_fail_midway_keep_directories_made_before(tmp_path, capsys):
    out_dir = tmp_path / "out"
    (out_dir / "sample_000").mkdir(parents=True)
    (out_dir / "sample_000" / "sentinel").write_text("kept\n")
    code = cli.run([*FAILS_AT_THIRD_SAMPLE, "--out-dir", str(out_dir)])
    capsys.readouterr()
    assert code == 1
    assert sorted(p.name for p in out_dir.iterdir()) == ["sample_000"]
    assert (out_dir / "sample_000" / "sentinel").read_text() == "kept\n"
