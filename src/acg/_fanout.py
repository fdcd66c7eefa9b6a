"""Independent replicates spread over the CPUs this process may use.

fan_out(fn, keys) returns [fn(key) for key in keys].  The keys are cut into
contiguous chunks, one per usable CPU; forked workers run every chunk but
the first, which runs in this process meanwhile.  Results come back in key
order, and a failure raises the exception of the first failing key, as the
serial loop would.  Each replicate seeds its own stream from its key, so the
results do not depend on how many CPUs there are.  With one usable CPU or
one key, or where the platform cannot fork, the loop runs in this process
alone.  Every worker is joined before fan_out returns or raises, and
multiprocessing is imported only when a worker is forked.

Workers are forked, not spawned: a forked worker starts at once with this
process's imports, loaded kernel and fn, none of them pickled, so fn may be
a closure; only results and exceptions come back pickled.  A spawned worker
would import numpy and acg again, about 0.3 s on a 2-core Xeon, longer than
most suites' replicates take.  acg starts no thread of its own to be caught
mid-lock by the fork.
"""

import os

from . import sampler
from .errors import AcgError


def fan_out(fn, keys) -> list:
    """[fn(key) for key in keys], the keys split over the usable CPUs."""
    keys = list(keys)
    workers = min(_usable_cpus(), len(keys))
    if workers < 2:
        return [fn(key) for key in keys]
    import multiprocessing

    sampler._kernel()  # resolved before the fork, so no worker compiles _wiring.c
    context = multiprocessing.get_context("fork")
    cuts = [len(keys) * w // workers for w in range(workers + 1)]
    chunks = [keys[a:b] for a, b in zip(cuts, cuts[1:])]
    started = []
    try:
        for chunk in chunks[1:]:
            receiver, sender = context.Pipe(duplex=False)
            worker = context.Process(target=_work, args=(sender, fn, chunk))
            worker.start()
            started.append((worker, receiver))
            sender.close()
        outcomes = [_run(fn, chunks[0])] + [_receive(receiver) for _, receiver in started]
    except BaseException:
        for worker, _ in started:
            worker.terminate()
        raise
    finally:
        for worker, receiver in started:
            worker.join()
            receiver.close()
    results = []
    for ok, value in outcomes:
        if not ok:
            raise value
        results.extend(value)
    return results


def _usable_cpus() -> int:
    """CPUs this process may run on; 1 where the platform cannot say or cannot fork."""
    if not hasattr(os, "sched_getaffinity") or not hasattr(os, "fork"):
        return 1
    return len(os.sched_getaffinity(0))


def _run(fn, chunk):
    """(True, the chunk's results in key order), or (False, the exception of its first failing key)."""
    try:
        return True, [fn(key) for key in chunk]
    except Exception as exc:
        return False, exc


def _work(sender, fn, chunk):
    sender.send(_run(fn, chunk))
    sender.close()


def _receive(receiver):
    try:
        return receiver.recv()
    except EOFError:
        return False, AcgError("a replicate worker exited without sending its results")
