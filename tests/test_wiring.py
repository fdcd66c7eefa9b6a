"""The loader of the compiled wiring kernel: built on first use, or the Python loops."""

import ctypes
import shutil
import subprocess
import sys

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


def test_cli_import_builds_no_kernel():
    # numpy itself may import ctypes; acg.cli must add neither it nor the kernel
    code = (
        "import sys, numpy; before = 'ctypes' in sys.modules; import acg.cli, acg.sampler; "
        "print(('ctypes' in sys.modules) == before, 'acg._wiring' in sys.modules, "
        "acg.sampler._kernel.cache_info().currsize)"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True", "False", "0"]
