"""dgopt.parallel is the one module that starts threads and processes.

Every other module holds numerics only: it imports none of the modules
that fork, signal, pickle or load C libraries, and uses threading only
for per-thread state (threading.local).
"""

import ast
import contextlib
import io
import signal
import threading
import types
from pathlib import Path

import pytest

from dgopt import parallel

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "dgopt"
PROCESS_MODULES = ("os", "ctypes", "signal", "pickle", "multiprocessing",
                   "concurrent.futures")


def _imports(tree):
    """The dotted name each absolute import in tree binds, nested imports
    included: 'a.b' for import a.b, 'a.b.c' for from a.b import c."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            yield from (f"{node.module}.{alias.name}" for alias in node.names)


def _process_imports(tree):
    return sorted({name for name in _imports(tree) for module in PROCESS_MODULES
                   if name == module or name.startswith(module + ".")})


def _parsed(name):
    return ast.parse((PACKAGE / name).read_text())


@pytest.mark.parametrize("name", sorted(
    path.name for path in PACKAGE.glob("*.py") if path.name != "parallel.py"))
def test_only_parallel_starts_threads_and_processes(name):
    tree = _parsed(name)
    assert _process_imports(tree) == []
    threading_uses = {node.attr for node in ast.walk(tree)
                      if isinstance(node, ast.Attribute)
                      and isinstance(node.value, ast.Name)
                      and node.value.id == "threading"}
    assert threading_uses <= {"local"}
    assert {name for name in _imports(tree)
            if name.startswith("threading.")} <= {"threading.local"}
    assert "threading" not in {alias.name for node in ast.walk(tree)
                               if isinstance(node, ast.Import)
                               for alias in node.names if alias.asname}


def test_the_check_sees_parallels_own_imports():
    # the function-local imports of split_runs and concurrent_halves too
    assert _process_imports(_parsed("parallel.py")) == [
        "concurrent.futures.ProcessPoolExecutor",
        "concurrent.futures.ThreadPoolExecutor", "ctypes", "multiprocessing",
        "os"]


@contextlib.contextmanager
def _deadline(seconds, release):
    """A SIGALRM after seconds raises TimeoutError here, once release()
    has let any blocked thunk go on: a deadlock fails the test."""
    def hung(signum, frame):
        release()
        raise TimeoutError("the pair is still waiting for the busy worker")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


class TestNestedPairs:
    """A run_pair started inside either thunk of a concurrent pair runs in
    sequence on the thread that started it: neither waits for the worker,
    which is busy with the outer first thunk."""

    def test_inner_pairs_run_in_sequence_on_their_threads(self):
        second_done = threading.Event()

        def inner(tag):
            if tag == "first":   # the worker holds until the other pair ends
                assert second_done.wait(30)
            names = []

            def thunk(i):
                return lambda: names.append(
                    threading.current_thread().name) or (tag, i)

            pair = parallel.run_pair(thunk(1), thunk(2))
            if tag == "second":
                second_done.set()
            return pair, names

        main = threading.current_thread().name
        with _deadline(20, second_done.set), parallel.concurrent_halves():
            pool = parallel._halves.pool
            first, second = parallel.run_pair(lambda: inner("first"),
                                              lambda: inner("second"))
            assert parallel._halves.pool is pool
        assert first == ((("first", 1), ("first", 2)), ["dg-descent_0"] * 2)
        assert second == ((("second", 1), ("second", 2)), [main] * 2)

    @pytest.mark.parametrize("failing", ["first", "second", "both"])
    def test_scope_is_restored_after_a_failing_pair(self, failing):
        seen = []

        def thunk(tag):
            def run():
                seen.append((tag, getattr(parallel._halves, "pool", None)))
                if failing in (tag, "both"):
                    raise ValueError(tag)
                return tag
            return run

        with _deadline(20, lambda: None), parallel.concurrent_halves():
            pool = parallel._halves.pool
            with pytest.raises(ValueError, match="first" if failing == "both"
                               else failing):
                parallel.run_pair(thunk("first"), thunk("second"))
            assert parallel._halves.pool is pool
            # the worker has no scope, and this thread's is closed while
            # second runs; the next pair is concurrent again
            assert set(seen) == {("first", None), ("second", None)}
            names = parallel.run_pair(lambda: threading.current_thread().name,
                                      lambda: threading.current_thread().name)
        assert names == ("dg-descent_0", threading.current_thread().name)


class TestNoOpenBlas:
    """Where _openblas_thread_calls finds no OpenBLAS to pin, thread_setup
    pins nothing and opens no halves scope, even with two CPUs."""

    # a /proc/self/maps line of a loaded library whose name says openblas
    MAPS = ("7f0000000000-7f0000001000 r-xp 00000000 08:01 42 "
            "/usr/lib/libopenblas.so.0\n")

    @pytest.fixture(autouse=True)
    def fresh_cache(self):
        parallel._openblas_thread_calls.cache_clear()
        yield
        parallel._openblas_thread_calls.cache_clear()

    @pytest.mark.parametrize("case", ["unreadable maps", "fails to load",
                                      "no thread-count symbols"])
    def test_nothing_is_pinned(self, monkeypatch, case):
        def read_maps(path):
            if case == "unreadable maps":
                raise OSError(f"cannot read {path}")
            return io.StringIO(self.MAPS)

        def load(path):
            if case == "fails to load":
                raise OSError(f"cannot load {path}")
            return types.SimpleNamespace()

        monkeypatch.setattr(parallel, "open", read_maps, raising=False)
        monkeypatch.setattr(parallel.ctypes, "CDLL", load)
        assert parallel._openblas_thread_calls() is None
        monkeypatch.setattr(parallel, "cpu_mask", lambda: [0, 1])
        with parallel.thread_setup() as setup:
            assert setup == {"openblas_pinned": False, "cpu_mask": [0, 1],
                             "concurrent_halves": False}
            assert getattr(parallel._halves, "pool", None) is None
