"""Golden SHA-256 digests of what each CLI subcommand writes and prints.

One small run of every subcommand on the bal2 fixture: the digest covers
each file of the output tree (relative path and bytes) and stdout, with
the output directory replaced by a placeholder.  The params and config
files are passed by relative path because their names are echoed into
the outputs.  A digest changes only with a deliberate change of output.
"""

import hashlib
import json

import pytest

from acg import _fanout, cli

CONFIG = {
    "root": [1, 2],
    "attachments": [{"node": 1, "parent": 0, "edge": "in", "type": [2, 1]}],
}

GOLDEN = {
    "exact-partition": (
        ["exact", "partition", "--margins", "1,2:1,2"],
        "3886500fdbab9019ff9aab2e41984bb788f984434db74c14cd3c77100c3110cc",
    ),
    "exact-mean": (
        ["exact", "mean", "--margins", "1,2:1,2", "--type", "2,2"],
        "58d2f6e714bd4d02edce4fcb0d96761fcb1ba0dc95e3e2e5fdfa788c98325e81",
    ),
    "exact-var": (
        ["exact", "var", "--margins", "1,2:1,2", "--type", "2,2"],
        "7251cbc85b7a66f91f737ef0822f0f69cfec0cae8f88debd393e871fd81d22e5",
    ),
    "exact-joint": (
        ["exact", "joint", "--sequence", "1,2;2,1", "--types", "2,2"],
        "8353b6f343dbf2006552734b32ce234725dee1411d912644a143c10c5bf47389",
    ),
    "exact-oracle": (
        ["exact", "oracle", "--sequence", "1,2;2,1"],
        "b2ebd0c1019f3458e662566933dd63cdf6021f38c5c8c78f98ef52d8a49a4cda",
    ),
    "asymptotics-critical-point": (
        ["asymptotics", "critical-point", "--x", "0.4,0.6:0.3,0.7"],
        "3e3a1a3878c8d40406a6cc6b0ef5d65a8612cf753b58ca6a2d2f57e07864833c",
    ),
    "asymptotics-edge-mean": (
        ["asymptotics", "edge-mean", "--x", "0.4,0.6:0.3,0.7", "--type", "2,2"],
        "0c29670a97f58280ddf4acf2fba1e726abc5af7b87c1afa2986be969cfcc7ffb",
    ),
    "asymptotics-laplace-check": (
        ["asymptotics", "laplace-check", "--margins", "4,8:4,8"],
        "9f655ee861ee649fead7acd42a9d042ebca966bea960f815c3079393a6d372cb",
    ),
    "configs-predict": (
        ["configs", "predict", "--config", "config.json"],
        "15c7849ed2c15c47a7ce290b261949c9020f87aeca545ad247f4bdbfb117d1c1",
    ),
    "configs-count": (
        ["configs", "count", "--config", "config.json", "--n", "60", "--samples", "2", "--seed", "3"],
        "6747f2abf659a5ea1162cdeba05dd1bb758b54e2e6d8779d7bce4df67fb91ce2",
    ),
    "generate": (
        ["generate", "--n", "300", "--samples", "2", "--seed", "5"],
        "ea444e4944e26a6cf235ebcdcca4619f21c2362872a0f5e24fc71d1f6e585c01",
    ),
    "validate-node-lln": (
        ["validate", "--suite", "node-lln", "--sizes", "100,200", "--reps", "2", "--seed", "9"],
        "934a7e7ecc127cc8b559aca7c268c8033b4fe45105f63aee1fb32c17db35857d",
    ),
    "validate-edge-lln": (
        ["validate", "--suite", "edge-lln", "--sizes", "100,200", "--reps", "2", "--seed", "9"],
        "f722cca942a6403770974966cb0487d7002bc6b1436e436944b92f3eb2552dc3",
    ),
    "validate-first-edges": (
        ["validate", "--suite", "first-edges", "--n", "100", "--length", "2", "--reps", "40", "--seed", "9"],
        "5539b25cb0b00010e49ed26d889be2271566ead49c6f59f24321a0dee4774bcd",
    ),
    "validate-self-loops": (
        ["validate", "--suite", "self-loops", "--n", "100", "--reps", "10", "--seed", "9"],
        "756f17c063363138028fb1dd7afe3232594c47abf60dd52df6e6648a9b81c9d4",
    ),
    "validate-assortativity": (
        ["validate", "--suite", "assortativity", "--n", "100", "--reps", "3", "--seed", "9"],
        "ad1b376f94ad9b647bcdab160fef5e24207ca59a8c0f74019a18c4c0905fee4e",
    ),
}


def output_digest(argv, workdir, capsys) -> str:
    """Run the CLI in workdir, which holds bal2.json, and hash its output tree and stdout."""
    (workdir / "config.json").write_text(json.dumps(CONFIG))
    out = workdir / "out"
    code = cli.run([*argv, "--params", "bal2.json", "--out-dir", str(out)])
    stdout, stderr = capsys.readouterr()
    assert code == 0, stderr
    h = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        h.update(path.relative_to(out).as_posix().encode() + b"\n")
        h.update(path.read_bytes())
    h.update(stdout.replace(str(out), "<out>").encode())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_cli_output_digest(name, bal2_file, tmp_path, capsys, monkeypatch):
    argv, digest = GOLDEN[name]
    monkeypatch.chdir(tmp_path)
    assert output_digest(argv, tmp_path, capsys) == digest


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_cli_output_digest_on_each_wiring_path(name, wiring_path, bal2_file, tmp_path, capsys, monkeypatch):
    test_cli_output_digest(name, bal2_file, tmp_path, capsys, monkeypatch)


@pytest.mark.parametrize("cpus", [1, 2], ids=["1cpu", "2cpus"])
@pytest.mark.parametrize("name", [name for name in sorted(GOLDEN) if name.startswith(("validate", "configs-count"))])
def test_cli_output_digest_on_one_and_two_cpus(name, cpus, bal2_file, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(_fanout, "_usable_cpus", lambda: cpus)
    test_cli_output_digest(name, bal2_file, tmp_path, capsys, monkeypatch)
