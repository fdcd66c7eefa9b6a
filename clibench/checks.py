"""Output checks for the CLI benchmark.

Each check reads one operation's output directory and stdout and raises
CheckFailed when the output is wrong.  They check what any correct
implementation must produce: structure, ranges and identities for the
sampling commands (whose values change with the random stream), and
stored independent references for the exact commands.  No seeded
statistic, self-loop prediction or Laplace constant is pinned.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

REL_TOL = 1e-9
EDGE_COLUMNS = "edge_id\tsrc\tdst\tk\tj\tself_loop"
SUITE_TSV_HEADERS = {
    "node_lln": "size\tmax_deviation\ttv_distance",
    "edge_lln": "size\tmax_deviation\ttv_distance",
    "first_edges": "n\tchi_square\tp_value\tmutual_information",
    "self_loops": "n\tmean\tpredicted\tvar_mean_ratio\tz_score",
    "assortativity": "rep\tcoefficient",
}


class CheckFailed(Exception):
    pass


def require(cond, message):
    if not cond:
        raise CheckFailed(message)


def tree_digest(directory: Path, stdout: bytes) -> str:
    """SHA-256 over stdout and every file under directory, in path order."""
    h = hashlib.sha256(stdout)
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(directory)).encode())
        h.update(b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def _load_json(path: Path):
    require(path.is_file(), f"missing {path.name}")
    return json.loads(path.read_text(encoding="utf-8"))


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def _close(value, reference) -> bool:
    return _finite(value) and abs(value - reference) <= REL_TOL * max(abs(reference), 1e-300)


def _int_columns(path: Path, header: str, ncols: int) -> np.ndarray:
    """Parse an all-integer delimited file into an (rows, ncols) array, chunk by chunk."""
    raw = path.read_bytes()
    first, _, body = raw.partition(b"\n")
    require(first.decode() == header, f"{path.name}: header {first!r}")
    require(body.endswith(b"\n"), f"{path.name}: missing final newline")
    parts = []
    step = 1 << 22
    start = 0
    while start < len(body):
        end = body.find(b"\n", min(start + step, len(body) - 1)) + 1
        chunk = body[start:end].replace(b",", b"\t")
        parts.append(np.array(chunk.split(), dtype=np.int64))
        start = end
    flat = np.concatenate(parts) if parts else np.zeros(0, dtype=np.int64)
    require(flat.size % ncols == 0, f"{path.name}: ragged rows")
    return flat.reshape(-1, ncols)


def check_generate(out: Path, stdout: str, n: int, seed: int) -> None:
    """Edges realise the node degrees and meta.json agrees with the edge list."""
    nodes = _int_columns(out / "nodes.csv", "id,j,k", 3)
    edges = _int_columns(out / "edges.tsv", EDGE_COLUMNS, 6)
    meta = _load_json(out / "meta.json")
    _load_json(out / "params.json")
    require(len(nodes) == n, f"nodes.csv has {len(nodes)} rows, expected {n}")
    require(np.array_equal(nodes[:, 0], np.arange(n)), "node ids are not 0..n-1")
    jd, kd = nodes[:, 1], nodes[:, 2]
    n_edges = len(edges)
    require(n_edges == int(jd.sum()) == int(kd.sum()), "edge count differs from the stub totals")
    require(np.array_equal(edges[:, 0], np.arange(n_edges)), "edge ids are not 0..E-1")
    src, dst, kt, jt, loop = (edges[:, c] for c in range(1, 6))
    require(src.min() >= 0 and src.max() < n and dst.min() >= 0 and dst.max() < n, "edge endpoint out of range")
    require(np.array_equal(np.bincount(src, minlength=n), kd), "out-degrees not realised by the edges")
    require(np.array_equal(np.bincount(dst, minlength=n), jd), "in-degrees not realised by the edges")
    require(np.array_equal(kt, kd[src]) and np.array_equal(jt, jd[dst]), "edge types disagree with endpoint degrees")
    require(np.array_equal(loop, (src == dst).astype(np.int64)), "self_loop column disagrees with endpoints")
    size = len(meta["edge_type_matrix"])
    table = np.bincount(kt * size + jt, minlength=size * size).reshape(size, size)
    multi = n_edges - len(np.unique(src * n + dst))
    loops = int(loop.sum())
    require(meta["n_nodes"] == n and meta["n_edges"] == n_edges, "meta.json node/edge counts")
    require(np.array_equal(np.array(meta["edge_type_matrix"]), table), "meta.json edge_type_matrix")
    require(meta["self_loop_count"] == loops, "meta.json self_loop_count")
    require(meta["multi_edge_count"] == multi, "meta.json multi_edge_count")
    require(meta["is_simple"] == (loops == 0 and multi == 0), "meta.json is_simple")
    require(meta["seed"] == seed and meta["n"] == n, "meta.json seed or n")
    require(stdout.strip() == f"wrote {out} ({n} nodes, {n_edges} edges)", f"stdout {stdout.strip()!r}")


def _unit_interval(values, what):
    for v in values:
        require(_finite(v) and 0.0 <= v <= 1.0, f"{what} {v!r} outside [0, 1]")


def check_validate(out: Path, stdout: str, sizes, defaults) -> None:
    """Shapes and ranges of every `validate --suite all` report."""
    meta = _load_json(out / "meta.json")
    require(meta["suites"] == ["node-lln", "edge-lln", "first-edges", "self-loops", "assortativity"], "meta suites")
    lines = stdout.strip().splitlines()
    require(len(lines) == 5, f"expected 5 summary lines, got {len(lines)}")
    for stem, header in SUITE_TSV_HEADERS.items():
        tsv = (out / f"validate_{stem}.tsv").read_text(encoding="utf-8").splitlines()
        require(tsv and tsv[0] == header, f"validate_{stem}.tsv header")
        report = _load_json(out / f"validate_{stem}.json")["report"]
        if stem in ("node_lln", "edge_lln"):
            require(report["sizes"] == list(sizes) and len(tsv) == 1 + len(sizes), f"{stem} sizes")
            require(all(_finite(v) and v >= 0 for v in report["max_deviations"]), f"{stem} deviations")
            _unit_interval(report["tv_distances"], f"{stem} tv distance")
            require(len(report["max_deviations"]) == len(sizes), f"{stem} deviation count")
        elif stem == "first_edges":
            require(report["reps"] == defaults["first-edges"], "first-edges reps")
            require(sum(report["counts"].values()) + report["off_support"] == report["reps"], "first-edges counts")
            require(_finite(report["chi_square"]) and report["chi_square"] >= 0, "first-edges chi-square")
            _unit_interval([report["p_value"]], "first-edges p-value")
        elif stem == "self_loops":
            counts = report["counts"]
            require(len(counts) == defaults["self-loops"], "self-loop count list length")
            require(all(isinstance(c, int) and c >= 0 for c in counts), "self-loop counts")
            require(_close(report["mean"], sum(counts) / len(counts)), "self-loop mean")
            require(_finite(report["predicted"]) and report["predicted"] >= 0, "self-loop prediction")
        else:
            coeffs = report["coefficients"]
            require(len(coeffs) == defaults["assortativity"] and len(tsv) == 1 + len(coeffs), "assortativity reps")
            require(all(c is None or (_finite(c) and -1.0 <= c <= 1.0) for c in coeffs), "assortativity range")


def check_configs_count(out: Path, stdout: str, samples: int) -> None:
    result = _load_json(out / "configs_count.json")
    require(result == json.loads(stdout), "stdout differs from configs_count.json")
    require(result["graphs_scanned"] == samples, "graphs_scanned")
    require(isinstance(result["count"], int) and result["count"] >= 0, "count")
    require(_close(result["frequency"], result["count"] / samples), "frequency")


def check_exact(out: Path, stdout: str, action: str, ref: dict) -> None:
    """Exact values against the stored generating-function references."""
    if action == "partition":
        result = _load_json(out / "exact_partition.json")
        require(_close(result["log_partition"], ref["log_partition"]), f"log_partition {result['log_partition']!r}")
        require(_close(result["C"], ref["C"]), f"C {result['C']!r}")
        require(json.loads(stdout)["log_partition"] == result["log_partition"], "stdout partition")
    elif action == "laplace-check":
        result = _load_json(out / "asymptotics_laplace_check.json")
        require(_close(result["log_exact"], ref["log_exact"]), f"log_exact {result['log_exact']!r}")
        require(_finite(result["log_laplace"]), "log_laplace is not finite")
    else:
        result = _load_json(out / f"exact_{action}.json")
        require(_close(result["value"], ref["value"]), f"{action} value {result['value']!r}")
        require(abs(float(stdout) - ref["value"]) <= 1e-10 + REL_TOL * abs(ref["value"]), "stdout value")
