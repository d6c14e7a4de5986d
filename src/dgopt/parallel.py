"""Every thread and process dgopt starts, and the BLAS thread count.

Each runs independent work beside the calling thread, with the results
of a run in sequence: run_pair (a DG evaluation's two halves, MoG co's
two finite-difference sides, a MoG oracle pass's real and fake rows)
in a concurrent_halves() scope, a MoG training run's thread_setup(),
and split_runs for the rate harness.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import os
import threading


def cpu_mask() -> list:
    """The sorted ids of the CPUs this process may use: its affinity
    mask, else every CPU of the machine where the OS keeps no mask."""
    return sorted(os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity")
                  else range(os.cpu_count() or 1))


class _Halves(threading.local):
    """Per thread, the worker of the innermost open concurrent_halves()
    scope.  The class default stands for no scope, so a thread that never
    opened one reads None without a failed attribute lookup."""

    pool = None


_halves = _Halves()


@contextlib.contextmanager
def concurrent_halves():
    """Within the block, run_pair calls on this thread run their first
    thunk on one worker thread beside the second, with the same results;
    only this starts the worker (and imports concurrent.futures)."""
    from concurrent.futures import ThreadPoolExecutor
    before = _halves.pool
    try:
        with ThreadPoolExecutor(1, "dg-descent") as _halves.pool:
            yield
    finally:
        _halves.pool = before


def run_pair(first, second):
    """(first(), second()) for two thunks that share no state.

    They run in sequence, first first, or in a concurrent_halves() scope
    with first on its worker; when both fail, first's error wins.  A pair
    started inside either thunk runs in sequence on that thunk's thread:
    the worker opens no scope, and this thread's is closed while second
    runs, so neither waits for the busy worker.
    """
    pool = _halves.pool
    if pool is None:
        return first(), second()
    future = pool.submit(first)
    _halves.pool = None
    try:
        out = second()
    except Exception:
        future.result()
        raise
    finally:
        _halves.pool = pool
    return future.result(), out


@functools.cache
def _openblas_thread_calls():
    """(get, set) for the thread count of the OpenBLAS this process has
    loaded, or None when there is none to find (another BLAS, or no
    /proc/self/maps to list the loaded libraries)."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split(None, 5)[5].strip() for line in fh
                            if "openblas" in line.rpartition("/")[2]})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in (("scipy_openblas", "64_"), ("scipy_openblas", ""),
                               ("openblas", "64_"), ("openblas", "")):
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            put = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return None


@contextlib.contextmanager
def thread_setup():
    """A training run's thread scope: OpenBLAS held at one thread, then
    restored, and a concurrent_halves() scope when it was found and the
    process may use two or more CPUs.  BLAS threads would compete with
    the two halves for the cores, and their count changes how BLAS
    splits some reductions.  The block gets the setup as a dict:
    openblas_pinned, cpu_mask and concurrent_halves."""
    cpus, calls = cpu_mask(), _openblas_thread_calls()
    pinned = calls is not None
    setup = {"openblas_pinned": pinned, "cpu_mask": cpus,
             "concurrent_halves": pinned and len(cpus) >= 2}
    with contextlib.ExitStack() as scope:
        if pinned:
            get, put = calls
            scope.callback(put, get())
            put(1)
        if setup["concurrent_halves"]:
            scope.enter_context(concurrent_halves())
        yield setup


def _run_each(run, items):
    return [run(item) for item in items]


def split_runs(run, items: list) -> list:
    """[run(item) for item in items], the back half in a forked worker
    process while this one runs the front half.

    The runs share no state, so the list is the same as in sequence,
    which is how they run without os.fork, on fewer than two CPUs, or
    while a second thread is alive (a fork copies one thread).  A process
    and not a thread, since the loops' numpy calls are too small to
    release the GIL; run, the items and the results go through pickle.
    An error in the back half re-raises here as itself, and a worker
    that ends without a result raises BrokenProcessPool.  When the front
    half fails, its error is raised once the back half has finished:
    the worker is waited for, not killed.
    """
    cut = (len(items) + 1) // 2
    if (cut == len(items) or not hasattr(os, "fork")
            or len(cpu_mask()) < 2 or threading.active_count() != 1):
        return _run_each(run, items)
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(1, multiprocessing.get_context("fork")) as pool:
        back = pool.submit(_run_each, run, items[cut:])
        return _run_each(run, items[:cut]) + back.result()
