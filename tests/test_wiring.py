"""The loader of the compiled wiring kernel: built on first use, or the Python loops."""

import ctypes
import shutil

import numpy as np
import pytest

from acg import _wiring, sampler

needs_compiler = pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler on PATH")


@pytest.fixture()
def source(tmp_path, monkeypatch):
    """A copy of the kernel source in an empty package directory."""
    path = tmp_path / "_wiring.c"
    path.write_bytes(_wiring.SOURCE.read_bytes())
    monkeypatch.setattr(_wiring, "SOURCE", path)
    return path


def test_no_compiler_means_the_python_loops(monkeypatch, capfd):
    monkeypatch.setattr(shutil, "which", lambda name: None)
    assert _wiring.load() is None
    assert sampler._kernel.__wrapped__() is None
    assert capfd.readouterr() == ("", "")


@needs_compiler
def test_a_compiler_on_path_loads_the_kernel():
    assert isinstance(sampler._kernel(), ctypes.CDLL)


@needs_compiler
def test_the_build_is_named_by_its_source_and_reused(source, capfd):
    cache = source.parent / "__pycache__"
    assert _wiring.load() is not None
    (built,) = cache.iterdir()
    assert built.name.startswith("_wiring-") and built.suffix == ".so"
    stamp = built.stat().st_mtime_ns
    assert _wiring.load() is not None
    assert built.stat().st_mtime_ns == stamp
    source.write_bytes(source.read_bytes() + b"/* edited */\n")
    assert _wiring.load() is not None
    assert len(list(cache.iterdir())) == 2
    assert capfd.readouterr() == ("", "")


@needs_compiler
def test_an_unwritable_cache_builds_in_a_temporary_directory(source):
    (source.parent / "__pycache__").write_text("a file where the cache directory would go")
    assert isinstance(_wiring.load(), ctypes.CDLL)


@needs_compiler
def test_a_failed_build_means_the_python_loops(source, capfd):
    source.write_text("this is not C\n")
    assert _wiring.load() is None
    assert list((source.parent / "__pycache__").iterdir()) == []
    assert capfd.readouterr() == ("", "")


@needs_compiler
@pytest.mark.parametrize(
    "argument, bad",
    [
        ("em", lambda a: a.astype(np.int32)),
        ("rate", lambda a: a.astype(np.float32)),
        ("us", lambda a: np.asfortranarray(a)),
        ("jt", lambda a: a[:-1]),
    ],
    ids=["int32-counts", "float32-rates", "fortran-uniforms", "short-output"],
)
def test_a_mistyped_array_raises_before_the_kernel_runs(argument, bad):
    lib = sampler._kernel()
    size, steps = 3, 4
    args = {
        "rate": np.ones((size, size)),
        "em": np.array([0, 4, 0], dtype=np.int64),
        "ep": np.array([0, 4, 0], dtype=np.int64),
        "us": np.full((steps, 4), 0.5),
        "kt": np.full(steps, -1, dtype=np.int64),
        "jt": np.full(steps, -1, dtype=np.int64),
    }
    args[argument] = bad(args[argument])
    with pytest.raises(TypeError, match=argument):
        lib.type_chain(args["rate"], args["em"], args["ep"], args["us"], False, 4096, args["kt"], args["jt"])
    assert (args["kt"] == -1).all() and args["ep"].tolist() == [0, 4, 0]  # the C never ran


@needs_compiler
def test_a_short_text_buffer_raises_before_the_kernel_runs():
    block = np.zeros((2, 3), dtype=np.int64)
    out = np.zeros(3 * 3 * 20 - 1, dtype=np.uint8)
    with pytest.raises(TypeError, match="out"):
        sampler._kernel().format_rows(0, block, ",", out)
    assert not out.any()
    assert sampler._kernel().format_rows(0, block, ",", np.zeros(3 * 3 * 20, dtype=np.uint8)) == len("0,0,0\n") * 3


@needs_compiler
def test_stub_matching_needs_one_step_per_stub():
    degrees = np.array([1, 2], dtype=np.int64)  # three stubs, which the C lays out in pool
    steps = 2
    pool, owners = np.zeros(steps, dtype=np.int64), np.zeros(steps, dtype=np.int64)
    with pytest.raises(ValueError, match="2 steps for 3 stubs"):
        sampler._kernel().assign_stubs(degrees, np.ones(steps, dtype=np.int64), np.zeros((steps, 4)), 2, pool, owners)
