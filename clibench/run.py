"""End-to-end benchmark of the `acg` command-line interface.

Run from the repository root:

    python3 clibench/run.py --workload generate_1m --seed 1 --seconds 40 --trace 0

The benchmark drives the real CLI (`python -m acg.cli`, with `src` on
PYTHONPATH) as a closed loop with one client: one child process at a
time, the runner idle while it runs.  A pass runs the workload's command
list once.  With --trace 0 a run alternates set-up probes
(`acg <subcommand> --help`) and passes until the --seconds budget would
be exceeded by one more pass, and reports medians:

    wall_s       wall time of one pass (sum of its commands)
    setup_s      wall time of one probe: interpreter, imports, parser
    peak_rss_mb  largest child peak RSS of a pass (os.wait4)

With --trace 1 a run makes one plain pass and one traced pass
(clibench/tracer.py) and reports per-layer self times and counters.
Outputs are checked outside the timed window, then deleted.  The last
stdout line is the result object; the line before it records the
environment, the pass and probe times and the measurement settings.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import checks

BENCH = Path("clibench")
FIXTURES = BENCH / "fixtures"
WORK = Path(".bench_work")
OUT = WORK / "out"
CHILD_PINS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
GENERATE_N = 1_000_000
CONFIGS_N = 10_000
CONFIGS_SAMPLES = 20
VALIDATE_SIZES = (1000, 10000)  # `acg validate` defaults
VALIDATE_REPS = {"first-edges": 2000, "self-loops": 200, "assortativity": 20}
SAMPLING_FIXTURES = ("assort_k2.json", "assort_k10.json")
PROBE_SUBCOMMAND = {"generate_1m": "generate", "replicates_k10": "validate", "exact_queries": "exact"}
IMPORT_LINE = re.compile(r"^import time:\s+\d+ \|\s+(\d+) \|\s*(\S+)\s*$")


@dataclass
class Op:
    """One CLI call of a pass and the check of its output directory and stdout."""

    name: str
    argv: list
    out: Path
    check: object


@dataclass
class Child:
    wall: float
    rss_mb: float
    cpu: float
    ok: bool
    error: str
    stdout: bytes
    stderr: str


def child_env() -> dict:
    env = dict(os.environ, **CHILD_PINS)
    env["PYTHONPATH"] = os.pathsep.join(["src"] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    return env


def spawn(argv, env, tag) -> Child:
    """Run one child to completion; time it from spawn to reap."""
    out_path, err_path = WORK / f"{tag}.stdout", WORK / f"{tag}.stderr"
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, str(out_path), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(err_path), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
    ]
    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    code = os.waitstatus_to_exitcode(status)
    stdout, stderr = out_path.read_bytes(), err_path.read_text(encoding="utf-8", errors="replace")
    error = ""
    if code != 0:
        last = stderr.strip().splitlines()[-1:] or [""]
        error = f"exit code {code}: {last[0]}"
    elif "Traceback (most recent call last)" in stderr:
        error = "traceback on stderr"
    return Child(wall, usage.ru_maxrss / 1024.0, usage.ru_utime + usage.ru_stime, not error, error, stdout, stderr)


def generate_ops(seed: int) -> list:
    out = OUT / "generate"
    argv = ["generate", "--params", str(FIXTURES / "assort_k2.json"), "--n", str(GENERATE_N),
            "--seed", str(seed), "--out-dir", str(out)]
    return [Op("generate", argv, out, lambda o, s: checks.check_generate(o, s, GENERATE_N, seed))]


def replicates_ops(seed: int) -> list:
    params = str(FIXTURES / "assort_k10.json")
    val, cfg = OUT / "validate", OUT / "configs"
    return [
        Op("validate", ["validate", "--params", params, "--suite", "all", "--seed", str(seed), "--out-dir", str(val)],
           val, lambda o, s: checks.check_validate(o, s, VALIDATE_SIZES, VALIDATE_REPS)),
        Op("configs", ["configs", "count", "--params", params, "--config", str(FIXTURES / "path2.json"),
                       "--n", str(CONFIGS_N), "--samples", str(CONFIGS_SAMPLES), "--seed", str(seed),
                       "--out-dir", str(cfg)],
           cfg, lambda o, s: checks.check_configs_count(o, s, CONFIGS_SAMPLES)),
    ]


def exact_ops(seed: int) -> list:
    queries = json.loads((FIXTURES / "exact_queries.json").read_text(encoding="utf-8"))
    ops = []
    for q in queries:
        out = OUT / q["name"]
        argv = [*q["argv"], "--params", str(FIXTURES / q["params"]), "--out-dir", str(out)]
        for flag in ("margins", "type", "sequence", "types"):
            if flag in q:
                argv += [f"--{flag}", q[flag]]
        ops.append(Op(q["name"], argv, out,
                      lambda o, s, a=q["action"], r=q["reference"]: checks.check_exact(o, s, a, r)))
    return ops


WORKLOADS = {"generate_1m": generate_ops, "replicates_k10": replicates_ops, "exact_queries": exact_ops}


class Runner:
    """Runs passes and probes, checks outputs and counts operations."""

    def __init__(self, ops, probe_sub):
        self.ops = ops
        self.probe_sub = probe_sub
        self.env = child_env()
        self.attempted = 0
        self.failures = []
        self.digests = {}

    def _fail(self, what, message):
        self.failures.append(f"{what}: {message}")

    def probe(self) -> float:
        self.attempted += 1
        c = spawn([sys.executable, "-m", "acg.cli", self.probe_sub, "--help"], self.env, "probe")
        if c.ok and not c.stdout.startswith(b"usage: acg"):
            c.ok, c.error = False, "help text missing"
        if not c.ok:
            self._fail("probe", c.error)
        return c.wall

    def run_pass(self, prefix_of) -> list:
        """Run every op once; check outputs (outside the timed calls), then delete them.

        The first pass that produces an op's outputs is checked in full;
        later passes of the run must reproduce its bytes exactly.
        """
        children = []
        for op in self.ops:
            self.attempted += 1
            children.append(spawn([*prefix_of(op), *op.argv], self.env, op.name))
        for op, c in zip(self.ops, children):
            if not c.ok:
                self._fail(op.name, c.error)
                continue
            try:
                checks.require(op.out.is_dir(), "no output directory")
                digest = checks.tree_digest(op.out, c.stdout)
                if op.name in self.digests:
                    checks.require(digest == self.digests[op.name], "outputs differ from the first pass")
                else:
                    op.check(op.out, c.stdout.decode())
                    self.digests[op.name] = digest
            except (checks.CheckFailed, KeyError, ValueError, TypeError, OSError) as exc:
                c.ok = False
                self._fail(op.name, f"{type(exc).__name__}: {exc}")
        shutil.rmtree(OUT, ignore_errors=True)
        return children


def plain_prefix(op):
    return [sys.executable, "-m", "acg.cli"]


def spans_path(op) -> Path:
    return WORK / f"{op.name}.spans.json"


def traced_prefix(op):
    return [sys.executable, "-X", "importtime", str(BENCH / "tracer.py"), str(spans_path(op)), "--"]


def timed_run(runner: Runner, seconds: float):
    """Probe, pass, probe, pass, ..., probe while one more pass fits in the budget.

    Always at least one pass; a further pass starts only if it is
    expected to end within the budget.
    """
    start = time.perf_counter()
    probes = [runner.probe()]
    passes = []
    while True:
        passes.append(runner.run_pass(plain_prefix))
        probes.append(runner.probe())
        # a further pass costs about one pass and one probe; the first
        # pass's full output check is not repeated (later passes are hashed)
        next_cost = sum(c.wall for c in passes[-1]) + probes[-1]
        if time.perf_counter() - start + next_cost > seconds:
            break
    walls = [sum(c.wall for c in p) for p in passes]
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (statistics.median(probes), "s"),
        "peak_rss_mb": (statistics.median(max(c.rss_mb for c in p) for p in passes), "MiB"),
    }
    detail = {"pass_walls_s": walls, "probe_walls_s": probes,
              "op_walls_s": [[c.wall for c in p] for p in passes]}
    return metrics, detail


def _import_times(stderr: str) -> dict:
    """Cumulative import seconds by module from `-X importtime` output."""
    out = {}
    for line in stderr.splitlines():
        m = IMPORT_LINE.match(line)
        if m:
            out.setdefault(m.group(2), int(m.group(1)) / 1e6)
    return out


def _aggregate(span_files):
    """Self time and call count by span name, plus summed counters."""
    self_s, calls, counts = {}, {}, {}
    for path in span_files:
        data = json.loads(path.read_text(encoding="utf-8"))
        spans = data["spans"]
        child_time = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for (name, start, end, _), inner in zip(spans, child_time):
            self_s[name] = self_s.get(name, 0.0) + (end - start - inner)
            calls[name] = calls.get(name, 0) + 1
        for key, value in data["counts"].items():
            counts[key] = counts.get(key, 0) + value
    return self_s, calls, counts


def _ratio(num, den):
    return num / den if den else 0.0


def traced_run(runner: Runner):
    """One plain pass, then one traced pass whose outputs must match it byte for byte."""
    plain = runner.run_pass(plain_prefix)
    children = runner.run_pass(traced_prefix)
    span_files = [spans_path(op) for op in runner.ops if spans_path(op).exists()]
    self_s, calls, counts = _aggregate(span_files)
    imports = [_import_times(c.stderr) for c in children]

    def imp(*names):
        vals = [sum(t.get(n, 0.0) for n in names) for t in imports]
        return statistics.median(vals) if vals else 0.0

    def self_of(name):
        return self_s.get(name, 0.0)

    def module_self(prefix):
        return sum(v for k, v in self_s.items() if k.startswith(prefix))

    edges = counts.get("sampler.edges_wired", 0)
    tables = counts.get("exact_kernel.iter_tables.items", 0)
    drawn = counts.get("sampler.sequences_drawn", 0)
    accepted = counts.get("sampler.sequences_accepted", 0)
    write_mb = counts.get("sampler.write_sample.bytes", 0) / 1e6
    plain_wall = sum(c.wall for c in plain)
    m = {
        "cli.import_s": (imp("acg", "acg.cli"), "s"),
        "asymptotics.import_s": (imp("acg.asymptotics"), "s"),
        "stats_validation.import_s": (imp("acg.stats_validation"), "s"),
        "cli.run.self_s": (self_of("cli.run"), "s"),
        "degree_model.self_s": (module_self("degree_model."), "s"),
        "sampler.sequential_wiring.self_s": (self_of("sampler.sequential_wiring"), "s"),
        "sampler.edges_wired": (edges, "count"),
        "sampler.wire_us_per_edge": (1e6 * _ratio(self_of("sampler.sequential_wiring"), edges), "us"),
        "sampler.write_sample.self_s": (self_of("sampler.write_sample"), "s"),
        "sampler.write_sample.mb": (write_mb, "MB"),
        "sampler.write_mb_per_s": (_ratio(write_mb, self_of("sampler.write_sample")), "MB/s"),
        "sampler.classify_graph.self_s": (self_of("sampler.classify_graph"), "s"),
        "sampler.draw_node_sequence.self_s": (self_of("sampler.draw_node_sequence"), "s"),
        "sampler.clip_sequence.self_s": (self_of("sampler.clip_sequence"), "s"),
        "sampler.first_edge_types.self_s": (self_of("sampler.first_edge_types"), "s"),
        "sampler.generate_graph.self_s": (self_of("sampler.generate_graph"), "s"),
        "sampler.graphs": (counts.get("sampler.graphs", 0), "count"),
        "sampler.redraws": (drawn - accepted, "count"),
        "sampler.accept_ratio": (_ratio(accepted, drawn), "ratio"),
        "sampler.wiring_restarts": (counts.get("sampler.wiring_restarts", 0), "count"),
        "sampler.uniform_fallbacks": (counts.get("sampler.uniform_fallbacks", 0), "count"),
        "exact_kernel.log_partition.self_s": (self_of("exact_kernel.log_partition"), "s"),
        "exact_kernel.log_partition.calls": (calls.get("exact_kernel.log_partition", 0), "count"),
        "exact_kernel.tables": (tables, "count"),
        "exact_kernel.us_per_table": (1e6 * _ratio(module_self("exact_kernel."), tables), "us"),
        "exact_kernel.exact_edge_mean.self_s": (self_of("exact_kernel.exact_edge_mean"), "s"),
        "exact_kernel.exact_edge_variance.self_s": (self_of("exact_kernel.exact_edge_variance"), "s"),
        "exact_kernel.joint_first_M_prob.self_s": (self_of("exact_kernel.joint_first_M_prob"), "s"),
        "asymptotics.solve_critical_point.self_s": (self_of("asymptotics.solve_critical_point"), "s"),
        "asymptotics.newton_iterations": (counts.get("asymptotics.newton_iterations", 0), "count"),
        "asymptotics.h_value.calls": (calls.get("asymptotics.h_value", 0), "count"),
        "asymptotics.log_laplace_I_approx.self_s": (self_of("asymptotics.log_laplace_I_approx"), "s"),
        "config_probability.count_config_occurrences.self_s":
            (self_of("config_probability.count_config_occurrences"), "s"),
        "config_probability.embeddings": (counts.get("config_probability.embeddings", 0), "count"),
        "stats_validation.node_lln.self_s": (self_of("stats_validation.node_lln"), "s"),
        "stats_validation.edge_lln.self_s": (self_of("stats_validation.edge_lln"), "s"),
        "stats_validation.first_edges_distribution.self_s":
            (self_of("stats_validation.first_edges_distribution"), "s"),
        "stats_validation.self_loop_poisson.self_s": (self_of("stats_validation.self_loop_poisson"), "s"),
        "stats_validation.assortativity_coefficient.self_s":
            (self_of("stats_validation.assortativity_coefficient"), "s"),
        "trace.overhead_ratio": (_ratio(sum(c.wall for c in children), plain_wall), "ratio"),
        "run.cpu_s": (sum(c.cpu for c in plain), "s"),
    }
    detail = {"plain_op_walls_s": [c.wall for c in plain], "traced_op_walls_s": [c.wall for c in children],
              "span_names": sorted(self_s)}
    return m, detail


def prepare(env) -> dict:
    """Byte-compile the package and check every fixture before anything is timed."""
    compiled = spawn([sys.executable, "-m", "compileall", "-q", "src/acg"], env, "compileall")
    if not compiled.ok:
        raise SystemExit(f"byte-compiling src/acg failed: {compiled.error}")
    sys.path.insert(0, "src")
    from acg.degree_model import load_params, validate_pair
    import numpy
    import scipy

    for name in SAMPLING_FIXTURES:
        report = validate_pair(*load_params(str(FIXTURES / name)))
        if not report.is_consistent:
            raise SystemExit(f"fixture {name} is inconsistent (violation {report.max_violation:.3e})")
    for name in ("exact_k3.json", "exact_k4.json"):
        load_params(str(FIXTURES / name))
    cpu_model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        cpu_model = platform.processor()
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "child_env": CHILD_PINS,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not Path("src/acg/cli.py").is_file():
        print("src/acg/cli.py not found: run from the root of an acg checkout", file=sys.stderr)
        return 2
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    runner = Runner(WORKLOADS[args.workload](args.seed), PROBE_SUBCOMMAND[args.workload])
    env_record = prepare(runner.env)
    if args.trace:
        metrics, detail = traced_run(runner)
    else:
        metrics, detail = timed_run(runner, args.seconds)
    shutil.rmtree(WORK, ignore_errors=True)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": env_record,
        "hygiene": "outputs checked and deleted outside timed calls; src/acg byte-compiled before the first pass",
        "failures": runner.failures,
        **detail,
    }
    print(json.dumps(record))
    failed = len(runner.failures)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
