"""Command-line entry points: sampling, exact sums, saddlepoint checks, validation.

Subcommands
-----------
generate      draw graphs and write nodes.csv / edges.tsv / meta.json
exact         partition constants, exact edge moments, leading-edge joints, oracle
asymptotics   critical points, asymptotic edge means, Laplace vs exact comparison
configs       predicted small-configuration probabilities and empirical counts
validate      simulation suites with JSON and plot-ready TSV reports

Every run echoes its command and every flag but --out-dir, less the
flags whose values the result already holds, so the run can be
reproduced from the output directory alone.  generate and validate
write that echo to meta.json; exact, asymptotics and configs write it
as the "run" key of their result file.  The echo names the parameter
file by its path only; generate and validate also write its contents.
All files are written atomically (temp file, then rename) and contain
no timestamps, so repeated runs with the same seed are byte-identical.
Seeds resolve in order: --seed flag, ACG_SEED environment variable,
fresh random draw (logged to stderr and recorded in the echo).

Each command imports only the layer it runs, when it runs: generate the
sampler, exact the exact kernel, asymptotics the saddlepoint layer,
configs the configuration counter and validate the suites.  At the top
this module imports the standard library and acg's numpy-free modules
alone (errors, _params with the parameter reader, and _common with the
parser's defaults), so `--help` and a rejected flag load no numpy and no
layer.  exact and asymptotics load no numpy at all: run reads the
parameter file once into rows of P and Q, exact and asymptotics hand
Q's rows, and asymptotics its point, to layers that work on lists, and
every other command builds the numpy distributions it needs from the
same rows.  Neither returns a dataclass, so neither loads dataclasses,
whose import pulls in inspect.  Every layer a command needs is imported
before it forks a replicate worker.

The validation suites are one table, SUITES: a row holds a suite's run
and its --n and --reps defaults, and each report builds its own TSV and
summary line.  A numeric flag parses its text and reads the number by
the rule the library reads the parameter with (errors.integral,
errors.finite), so both reject the same values with the same message.
The list flags (--sizes, --margins, --x, --type, --sequence, --types)
share one grammar: entries separated by ',', pairs by ';' and the minus
and plus halves by ':', each entry read by those same rules.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import sys
from pathlib import Path

from ._common import (
    DEFAULT_DELTA,
    DEFAULT_MAX_ITER,
    DEFAULT_MAX_REDRAWS,
    DEFAULT_MAX_RESTARTS,
    DEFAULT_TABLE_CAP,
    DEFAULT_TOL,
    ORACLE_CAP,
    _atomic_write,
)
from ._params import load_json, read_params
from .errors import AcgError, InvalidConfiguration, finite, integral


def _parsed(text: str, parse):
    """text read by parse (int or float), or text itself where it does not parse, for a rule to reject."""
    try:
        return parse(text)
    except ValueError:
        return text


def _int_at_least(low: int):
    """argparse type: an integer no smaller than low, read by errors.integral."""
    return lambda text: integral(_parsed(text, int), argparse.ArgumentTypeError, low)


def _finite_above(above=None):
    """argparse type: a finite number, greater than above if given, read by errors.finite."""
    return lambda text: finite(_parsed(text, float), argparse.ArgumentTypeError, above)


def _entries(read, sep=",", length=None):
    """argparse type: sep-separated entries, empty ones skipped, each read by read; at least one, or exactly length."""

    def parse(text: str) -> list:
        values = [read(tok) for tok in text.split(sep) if tok]
        if (len(values) != length) if length else not values:
            count = f"{length} entries" if length else "at least one entry"
            raise argparse.ArgumentTypeError(f"expected {count} separated by {sep!r}, got {text!r}")
        return values

    return parse


def _halves(read):
    """argparse type: '<minus>:<plus>', two equal-length lists of entries read by read."""
    split = _entries(_entries(read), ":", 2)

    def parse(text: str) -> list:
        minus, plus = split(text)
        if len(minus) != len(plus):
            raise argparse.ArgumentTypeError(f"minus and plus halves must have equal length, got {text!r}")
        return [minus, plus]

    return parse


def _resolve_seed(flag_value):
    if flag_value is not None:
        return flag_value, "flag"
    env = os.environ.get("ACG_SEED")
    if env is not None:
        return integral(_parsed(env, int), lambda message: AcgError(f"ACG_SEED: {message}"), 0), "env"
    import secrets

    seed = secrets.randbits(32)
    print(f"no seed given; drew seed={seed}", file=sys.stderr)
    return seed, "generated"


def to_jsonable(obj):
    """Recursively convert reports and numpy values to JSON-ready types."""
    # a dataclass or numpy value exists only once its module is loaded
    dataclasses = sys.modules.get("dataclasses")
    np = sys.modules.get("numpy")
    if dataclasses is not None and dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: to_jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {_key_str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    if np is not None:
        if isinstance(obj, np.ndarray):
            return [to_jsonable(v) for v in obj.tolist()]
        if isinstance(obj, np.integer):
            return int(obj)
        if isinstance(obj, np.floating):
            return float(obj)
    if isinstance(obj, float) and (math.isnan(obj) or math.isinf(obj)):
        return repr(obj)
    return obj


def _key_str(key):
    np = sys.modules.get("numpy")
    if isinstance(key, str):
        return key
    if isinstance(key, int if np is None else (int, np.integer)):
        return str(int(key))
    return repr(key)


def _json(obj) -> str:
    return json.dumps(to_jsonable(obj), indent=2, sort_keys=True)


def _write_json(path: Path, obj) -> None:
    _atomic_write(path, _json(obj) + "\n")


def _emit(path: Path, result, line=None) -> None:
    """Print line (default: result as JSON), then write result as JSON to path."""
    print(_json(result) if line is None else line)
    _write_json(path, result)


def _write_tsv(path: Path, header, rows) -> None:
    lines = ["\t".join(header)]
    for row in rows:
        lines.append("\t".join(_cell(v) for v in row))
    _atomic_write(path, "\n".join(lines) + "\n")


def _cell(v) -> str:
    if v is None:
        return "nan"
    if isinstance(v, float):
        return f"{v:.10g}"
    return str(v)


def _run_echo(args, *held) -> dict:
    """The command with its action and every flag but --out-dir, less those the result holds (held)."""
    echo = {key: value for key, value in vars(args).items() if key not in {"action", "func", "out_dir", *held}}
    echo["command"] = " ".join(filter(None, (args.command, getattr(args, "action", None))))
    return echo


def _cmd_generate(args, p, q, out) -> int:
    from .degree_model import params_dict
    from .sampler import generate_graph, write_sample

    run_echo = _run_echo(args)
    created = []  # sample directories this run made, removed again if it fails
    try:
        for i in range(args.samples):
            sample_seed = args.seed if args.samples == 1 else [args.seed, i]
            g = generate_graph(
                p,
                q,
                args.n,
                delta=args.delta,
                seed=sample_seed,
                max_redraws=args.max_redraws,
                max_restarts=args.max_restarts,
            )
            g.meta.update({"run": run_echo, "sample_index": i})
            target = out if args.samples == 1 else out / f"sample_{i:03d}"
            if not target.exists():
                created.append(target)
            target.mkdir(parents=True, exist_ok=True)
            write_sample(g, target)
            print(f"wrote {target} ({g.n_nodes} nodes, {g.n_edges} edges)")
        # written once every graph is drawn, so a failed draw leaves no partial tree
        _write_json(out / "params.json", params_dict(p, q))
        if args.samples > 1:
            _write_json(out / "meta.json", {**run_echo, "params": params_dict(p, q)})
    except BaseException:
        for target in created:
            shutil.rmtree(target, ignore_errors=True)
        raise
    return 0


def _cmd_exact(args, k_cut, q, out) -> int:
    """q is Q as the rows read_params gives: the exact kernel reads lists, and loads no numpy."""
    from . import exact_kernel as kernel

    echo = _run_echo(args, "margins", "type", "sequence", "types")
    if args.action == "partition":
        em, ep = ([0, *half] for half in args.margins)
        c, log_z = kernel._partition(em, ep, q, args.cap)  # q holds floats: C and log Z from one program
        result = {
            "C": c,
            "e_minus": em,
            "e_plus": ep,
            "log_partition": log_z,
        }
        _emit(out / "exact_partition.json", {**result, "run": echo}, line=_json(result))
    elif args.action in ("mean", "var"):
        em, ep = ([0, *half] for half in args.margins)
        k, j = args.type
        fn = kernel.exact_edge_mean if args.action == "mean" else kernel.exact_edge_variance
        value = float(fn(em, ep, q, k, j, cap=args.cap))
        result = {
            "e_minus": em,
            "e_plus": ep,
            "run": echo,
            "type": [k, j],
            "value": value,
        }
        _emit(out / f"exact_{args.action}.json", result, line=f"{value:.10f}")
    elif args.action == "joint":
        em, ep = kernel.margins_of_sequence(args.sequence, k_cut + 1)
        value = float(kernel.joint_first_M_prob(em, ep, q, args.types, cap=args.cap))
        result = {
            "run": echo,
            "sequence": [list(t) for t in args.sequence],
            "types": [list(t) for t in args.types],
            "value": value,
        }
        _emit(out / "exact_joint.json", result, line=f"{value:.10f}")
    else:
        em, ep = kernel.margins_of_sequence(args.sequence, k_cut + 1)
        dist = kernel.enumerate_wirings_oracle(em, ep, q, cap=args.cap)
        tables = [
            {
                "probability": float(prob),
                "table": [list(map(int, row)) for row in key],
                "wirings": int(dist.wiring_counts[key]),
            }
            for key, prob in sorted(dist.tables.items())
        ]
        result = {
            "n_edges": dist.n_edges,
            "run": echo,
            "sequence": [list(t) for t in args.sequence],
            "tables": tables,
            "total_weight": float(dist.total_weight),
        }
        _emit(out / "exact_oracle.json", result)
    return 0


def _cmd_asymptotics(args, k_cut, q, out) -> int:
    """q is Q as the rows read_params gives, and each point a list: the saddlepoint layer reads lists."""
    from . import asymptotics as asym

    echo = _run_echo(args, "type")
    if args.action == "critical-point":
        x = [*args.x[0], *args.x[1]]
        res = asym.solve_critical_point(x, q, tol=args.tol, max_iter=args.max_iter)
        half = len(args.x[0])
        result = {
            "alpha_minus": res.alpha[:half],
            "alpha_plus": res.alpha[half:],
            "gradient_norm": res.gradient_norm,
            "h_at_min": res.h_at_min,
            "hessian_projected_det": res.hessian_projected_det,
            "iterations": res.iterations,
            "run": echo,
        }
        _emit(out / "asymptotics_critical_point.json", result)
    elif args.action == "edge-mean":
        x = [*args.x[0], *args.x[1]]
        k, j = args.type
        value = asym.asymptotic_edge_mean(x, q, k, j, tol=args.tol)
        result = {
            "run": echo,
            "type": [k, j],
            "value": value,
        }
        _emit(out / "asymptotics_edge_mean.json", result, line=f"{value:.10f}")
    else:
        e = [*args.margins[0], *args.margins[1]]
        edge_total = sum(args.margins[0])
        log_lap = asym.log_laplace_I_approx(e, q, tol=args.tol)
        log_ex = None
        ratio = None
        if edge_total <= args.cap:
            log_ex = asym.log_exact_I(e, q, cap=args.cap)
            ratio = math.exp(log_ex - log_lap)
        result = {
            "edge_total": edge_total,
            "exact_over_laplace": ratio,
            "log_exact": log_ex,
            "log_laplace": log_lap,
            "run": echo,
        }
        _emit(out / "asymptotics_laplace_check.json", result)
    return 0


def _cmd_configs(args, p, q, out) -> int:
    from . import config_probability as cfg

    h = load_json(args.config_file, InvalidConfiguration, cfg.config_from_dict)
    if args.action == "predict":
        value = cfg.tree_config_prob(h, p, q)
        result = {
            "configuration": cfg.config_to_dict(h),
            "run": _run_echo(args),
            "value": value,
        }
        _emit(out / "configs_predict.json", result, line=f"{value:.10f}")
        return 0
    report = cfg.count_in_samples(h, p, q, args.n, args.samples, args.seed, delta=args.delta)
    result = {
        "configuration": cfg.config_to_dict(h),
        "count": report.count,
        "frequency": report.frequency,
        "graphs_scanned": report.graphs_scanned,
        "predicted": report.predicted,
        "run": _run_echo(args),
    }
    _emit(out / "configs_count.json", result)
    return 0


# suite name -> (its run on (stats_validation, p, q, args, n, reps), its --n default, its --reps default);
# the LLN suites read --sizes, so their --n default is None.  --suite all runs them in this order.
SUITES = {
    "node-lln": (lambda sv, p, q, a, n, reps: sv.node_lln(p, a.sizes, reps, a.seed, a.delta), None, 5),
    "edge-lln": (lambda sv, p, q, a, n, reps: sv.edge_lln(p, q, a.sizes, reps, a.seed, a.delta), None, 5),
    "first-edges": (
        lambda sv, p, q, a, n, reps: sv.first_edges_distribution(p, q, n, a.length, reps, a.seed, a.delta),
        10000,
        2000,
    ),
    "self-loops": (lambda sv, p, q, a, n, reps: sv.self_loop_poisson(p, q, n, reps, a.seed, a.delta), 2000, 200),
    "assortativity": (
        lambda sv, p, q, a, n, reps: sv.assortativity_replicates(p, q, n, reps, a.seed, a.delta),
        10000,
        20,
    ),
}


def _run_suite(suite, p, q, args):
    from . import stats_validation

    run, n, reps = SUITES[suite]
    return run(stats_validation, p, q, args, n if args.n is None else args.n, reps if args.reps is None else args.reps)


def _cmd_validate(args, p, q, out) -> int:
    """Run every requested suite, then write meta.json and the reports: a failed suite leaves no file."""
    from .degree_model import params_dict

    suites = list(SUITES) if args.suite == "all" else [args.suite]
    reports = [(suite, _run_suite(suite, p, q, args)) for suite in suites]
    _write_json(out / "meta.json", {**_run_echo(args, "suite"), "params": params_dict(p, q), "suites": suites})
    for suite, rep in reports:
        stem = "validate_" + suite.replace("-", "_")
        header, rows, summary = rep.table()
        _write_json(out / f"{stem}.json", {"report": rep, "suite": suite})
        _write_tsv(out / f"{stem}.tsv", header, rows)
        print(f"{suite}: {summary} -> {out / (stem + '.json')}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="acg",
        description="Assortative configuration graphs: sampling, exact kernels, asymptotics, validation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # every command reads --params and writes to --out-dir; the sampling ones also take --seed and --delta
    io = argparse.ArgumentParser(add_help=False)
    io.add_argument(
        "--params", dest="params_file", metavar="PARAMS", required=True, help="JSON parameter file with K, P, Q"
    )
    io.add_argument("--out-dir", default=".", help="output directory (default current)")
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=_int_at_least(0), default=None, help="RNG seed (default: ACG_SEED, else random, logged)")
    seeded.add_argument("--delta", type=_finite_above(), default=DEFAULT_DELTA, help="clip exponent offset (default %(default)s)")
    # the list flags: one grammar, each entry read by a scalar rule
    margins = _halves(_int_at_least(0))
    pair = _entries(_int_at_least(None), length=2)
    pairs = _entries(pair, ";")

    gen = sub.add_parser("generate", parents=[io, seeded], help="sample graphs and write nodes.csv / edges.tsv / meta.json")
    gen.add_argument("--n", type=_int_at_least(1), required=True, help="number of nodes")
    gen.add_argument("--samples", type=_int_at_least(1), default=1, help="independent graphs to draw (default %(default)s)")
    gen.add_argument("--max-redraws", type=_int_at_least(0), default=DEFAULT_MAX_REDRAWS, help="node sequence redraw budget")
    gen.add_argument("--max-restarts", type=_int_at_least(0), default=DEFAULT_MAX_RESTARTS, help="wiring restart budget per graph")
    gen.set_defaults(func=_cmd_generate)

    exact = sub.add_parser("exact", help="finite-size exact quantities from the wiring distribution")
    exact_sub = exact.add_subparsers(dest="action", required=True)
    for name, help_text in (
        ("partition", "partition constant for fixed margins"),
        ("mean", "exact mean of one edge-type count"),
        ("var", "exact variance of one edge-type count"),
        ("joint", "joint law of the first edge types for a node sequence"),
        ("oracle", "brute-force wiring enumeration for a node sequence"),
    ):
        sp = exact_sub.add_parser(name, parents=[io], help=help_text)
        sp.add_argument(
            "--cap",
            type=_int_at_least(0),
            default=ORACLE_CAP if name == "oracle" else DEFAULT_TABLE_CAP,
            help="edge-count cap (default %(default)s)",
        )
        if name in ("partition", "mean", "var"):
            sp.add_argument("--margins", type=margins, required=True, help="counts for degrees 1..K, '1,2:1,2'")
        if name in ("mean", "var"):
            sp.add_argument("--type", type=pair, required=True, help="edge type 'k,j'")
        if name in ("joint", "oracle"):
            sp.add_argument("--sequence", type=pairs, required=True, help="node types 'j,k;j,k;...'")
        if name == "joint":
            sp.add_argument("--types", type=pairs, required=True, help="leading edge types 'k,j;k,j;...'")
        sp.set_defaults(func=_cmd_exact, action=name)

    asy = sub.add_parser("asymptotics", help="saddlepoint quantities for large margins")
    asy_sub = asy.add_subparsers(dest="action", required=True)
    for name, help_text in (
        ("critical-point", "minimize the wiring exponent over the gauge-fixed slice"),
        ("edge-mean", "asymptotic per-edge fraction of one edge type"),
        ("laplace-check", "compare the Laplace approximation against the exact partition sum"),
    ):
        sp = asy_sub.add_parser(name, parents=[io], help=help_text)
        sp.add_argument("--tol", type=_finite_above(0), default=DEFAULT_TOL, help="gradient tolerance (default %(default)s)")
        if name == "laplace-check":
            sp.add_argument("--margins", type=margins, required=True, help="counts for degrees 1..K, '1,2:1,2'")
            sp.add_argument("--cap", type=_int_at_least(0), default=DEFAULT_TABLE_CAP, help="exact-side edge cap")
        else:
            sp.add_argument("--x", type=_halves(_finite_above()), required=True, help="margin point 'a,b:c,d' for degrees 1..K")
        if name == "critical-point":
            sp.add_argument("--max-iter", type=_int_at_least(1), default=DEFAULT_MAX_ITER)
        if name == "edge-mean":
            sp.add_argument("--type", type=pair, required=True, help="edge type 'k,j'")
        sp.set_defaults(func=_cmd_asymptotics, action=name)

    cfgp = sub.add_parser("configs", help="small-configuration probabilities and counts")
    cfg_sub = cfgp.add_subparsers(dest="action", required=True)
    pred = cfg_sub.add_parser("predict", parents=[io], help="limiting probability of a tree configuration")
    pred.add_argument("--config", dest="config_file", metavar="CONFIG", required=True, help="configuration JSON file")
    pred.set_defaults(func=_cmd_configs, action="predict")
    cnt = cfg_sub.add_parser("count", parents=[io, seeded], help="occurrence counts of a configuration in sampled graphs")
    cnt.add_argument("--config", dest="config_file", metavar="CONFIG", required=True, help="configuration JSON file")
    cnt.add_argument("--n", type=_int_at_least(1), required=True, help="nodes per sampled graph")
    cnt.add_argument("--samples", type=_int_at_least(1), default=50, help="graphs to sample (default %(default)s)")
    cnt.set_defaults(func=_cmd_configs, action="count")

    val = sub.add_parser("validate", parents=[io, seeded], help="simulation test suites with JSON + TSV reports")
    val.add_argument("--suite", choices=(*SUITES, "all"), required=True)
    val.add_argument("--sizes", type=_entries(_int_at_least(1)), default=[1000, 10000], help="graph sizes for LLN suites")
    val.add_argument("--reps", type=_int_at_least(1), default=None, help="repetitions (default depends on suite)")
    val.add_argument("--n", type=_int_at_least(1), default=None, help="graph size for non-LLN suites")
    val.add_argument("--length", type=_int_at_least(1), choices=range(1, 6), default=1, help="leading edge count for first-edges")
    val.set_defaults(func=_cmd_validate)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else int(exc.code)
    try:
        k_cut, p_rows, q_rows = read_params(args.params_file)
        if args.command in ("exact", "asymptotics"):
            pair = k_cut, q_rows
        else:
            from .degree_model import pair_of_rows, require_consistent

            pair = pair_of_rows(p_rows, q_rows)
            if "seed" in vars(args):  # a sampling command
                require_consistent(*pair)
                args.seed, args.seed_source = _resolve_seed(args.seed)
        out = Path(args.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        return args.func(args, *pair, out)
    except (AcgError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
