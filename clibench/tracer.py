"""Traced `acg` CLI child: wraps every public acg function, runs one command.

Usage (from the repository root, with `src` on PYTHONPATH):

    python -X importtime clibench/tracer.py SPANS.json -- <acg arguments>

The tracing lives outside the package.  After `acg.cli` is imported, every
public function defined in an `acg` module is replaced by a wrapper in
every acg module namespace that holds it, so calls bound by
`from ... import` are traced as well.  A wrapper records one span
(name, start, end, parent) per call and, for a few functions, counters
read from the arguments or the result.  Generator functions are counted
by the items they yield instead of timed.  Spans stay in memory and are
written to SPANS.json when the command returns; the command's own
outputs are untouched.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time


class Recorder:
    """Spans and counters of one traced process."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = {}
        self._stack = []

    def add(self, key, value):
        self.counts[key] = self.counts.get(key, 0) + value

    def wrap(self, name, fn, count_result=None):
        if inspect.isgeneratorfunction(fn):
            key = f"{name}.items"

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                for item in fn(*args, **kwargs):
                    self.counts[key] = self.counts.get(key, 0) + 1
                    yield item

            return gen_wrapper

        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                span[2] = clock()
                stack.pop()
                if count_result is not None:
                    count_result(self, args, kwargs, result)

        return wrapper


def _count_wiring(rec, args, kwargs, g):
    if g is not None:
        rec.add("sampler.edges_wired", g.n_edges)
        rec.add("sampler.wiring_restarts", g.meta.get("wiring_restarts", 0))
        rec.add("sampler.uniform_fallbacks", int(bool(g.meta.get("uniform_fallback", False))))
        rec.add("sampler.graphs", 1)


def _count_first_edges(rec, args, kwargs, types):
    if types is not None:
        rec.add("sampler.graphs", 1)


def _count_draw(rec, args, kwargs, x):
    rec.add("sampler.sequences_drawn", 1)


def _count_clip(rec, args, kwargs, x):
    rec.add("sampler.sequences_accepted", int(x is not None))


def _count_write(rec, args, kwargs, _):
    out_dir = kwargs.get("out_dir", args[1] if len(args) > 1 else None)
    if out_dir is not None:
        for name in ("nodes.csv", "edges.tsv", "meta.json"):
            path = os.path.join(out_dir, name)
            if os.path.exists(path):
                rec.add("sampler.write_sample.bytes", os.path.getsize(path))


def _count_newton(rec, args, kwargs, result):
    if result is not None:
        rec.add("asymptotics.newton_iterations", result.iterations)


def _count_embeddings(rec, args, kwargs, result):
    if result is not None:
        rec.add("config_probability.embeddings", int(result))


# counters read at a layer boundary, keyed by span name
COUNTERS = {
    "sampler.sequential_wiring": _count_wiring,
    "sampler.first_edge_types": _count_first_edges,
    "sampler.draw_node_sequence": _count_draw,
    "sampler.clip_sequence": _count_clip,
    "sampler.write_sample": _count_write,
    "asymptotics.solve_critical_point": _count_newton,
    "config_probability.count_config_occurrences": _count_embeddings,
}


def install(recorder: Recorder) -> int:
    """Wrap every public acg function in every loaded acg module; return how many."""
    modules = [m for n, m in sorted(sys.modules.items()) if n == "acg" or n.startswith("acg.")]
    wrappers = {}
    for module in modules:
        for attr, obj in list(vars(module).items()):
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            home = obj.__module__ or ""
            if not home.startswith("acg.") or obj.__name__.startswith("_"):
                continue
            if id(obj) not in wrappers:
                name = f"{home[len('acg.'):]}.{obj.__qualname__}"
                wrappers[id(obj)] = recorder.wrap(name, obj, COUNTERS.get(name))
            setattr(module, attr, wrappers[id(obj)])
    return len(wrappers)


def main(argv) -> int:
    if len(argv) < 3 or argv[1] != "--":
        print("usage: tracer.py SPANS.json -- <acg arguments>", file=sys.stderr)
        return 2
    spans_path, acg_args = argv[0], argv[2:]
    import acg.cli

    recorder = Recorder()
    install(recorder)
    try:
        code = acg.cli.run(acg_args)
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"spans": recorder.spans, "counts": recorder.counts}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
