"""What the serving pool may leave behind, for the leak checks.

Not collected by pytest; ``conftest.py`` and the serving model import it
as ``from leaks import ...``.
"""

import os


def kbtim_shm_entries() -> set:
    """Names of this library's segments in /dev/shm (empty off-Linux)."""
    try:
        return {e for e in os.listdir("/dev/shm") if e.startswith("kbtim-")}
    except (FileNotFoundError, NotADirectoryError):
        return set()


def _tracker_fds() -> set:
    """Descriptors multiprocessing keeps for the process's lifetime once a
    ``spawn`` start has launched its resource tracker."""
    from multiprocessing import resource_tracker

    fd = getattr(resource_tracker._resource_tracker, "_fd", None)
    return set() if fd is None else {fd}


def pool_descriptors():
    """The open descriptors and mappings of the kinds the serving pool
    creates — pipes, sockets and ``kbtim-*`` segments — as a sorted list
    of ``/proc`` targets, or ``None`` where ``/proc`` is absent."""
    try:
        fds = os.listdir("/proc/self/fd")
        with open("/proc/self/maps") as fh:
            maps = [line.split()[-1] for line in fh if "/kbtim-" in line]
    except OSError:
        return None
    targets = []
    for fd in set(map(int, fds)) - _tracker_fds():
        try:
            target = os.readlink(f"/proc/self/fd/{fd}")
        except OSError:
            continue  # the listing's own descriptor, already closed
        if target.startswith(("pipe:", "socket:")) or "/kbtim-" in target:
            targets.append(target)
    return sorted(targets + maps)
