"""The Ray session under test, and what it costs across all its processes.

A local Ray session started by ``ray.init`` is a process tree rooted at
the calling process: GCS, raylet, log monitor, workers (spawned by the
raylet).
CPU and memory are read from ``/proc`` for that whole tree, because
Ray's own task CPU leaves out the calling process, raylet and GCS.
"""

from __future__ import annotations

import os
import signal
import threading
import time
from typing import Dict, Iterable, List

#: Ray logical CPUs, fixed so every host runs the same plan (it equals
#: ``nproc`` on the host the benchmark was tuned on)
NUM_CPUS = 1
OBJECT_STORE_BYTES = 256 * 1024 * 1024
#: longest AF_UNIX socket path Ray accepts, and what Ray appends to its
#: temp dir ("/session_<date>_<usec>_<pid>/sockets/plasma_store")
_SOCKET_PATH_MAX = 107
_SESSION_SUFFIX = 64
_RAY_DAEMONS = ("raylet", "gcs_server")
_CLK_TCK = os.sysconf("SC_CLK_TCK")


def _stat_fields(pid: int) -> List[str]:
    with open(f"/proc/{pid}/stat") as f:
        s = f.read()
    # comm may hold spaces and parens: split after its closing paren
    return s[s.rindex(")") + 2:].split()


def process_tree(root: int) -> List[int]:
    """``root`` and all its live descendants."""
    children: Dict[int, List[int]] = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            ppid = int(_stat_fields(int(name))[1])
        except (OSError, IndexError, ValueError):
            continue  # exited while listing
        children.setdefault(ppid, []).append(int(name))
    out = [root]
    i = 0
    while i < len(out):
        out.extend(children.get(out[i], ()))
        i += 1
    return out


def tree_cpu_seconds(pids: Iterable[int]) -> float:
    """User + system CPU of ``pids``, plus that of their reaped children.

    Counting reaped children (cutime/cstime) keeps the CPU of a worker
    that exits inside the window: its parent, the raylet, absorbs it."""
    ticks = 0
    for pid in pids:
        try:
            f = _stat_fields(pid)
        except OSError:
            continue
        # fields 14-17 of stat(5): utime stime cutime cstime; index is
        # field number - 3 after dropping pid and comm
        ticks += sum(int(x) for x in f[11:15])
    return ticks / _CLK_TCK


def tree_pss_bytes(pids: Iterable[int]) -> int:
    total = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/smaps_rollup") as f:
                for line in f:
                    if line.startswith("Pss:"):
                        total += int(line.split()[1]) * 1024
                        break
        except OSError:
            continue
    return total


class PssSampler:
    """Background thread: peak PSS of the session's process tree."""

    def __init__(self, root: int, interval_s: float = 0.25):
        self.root = root
        self.interval_s = interval_s
        self._peak = 0
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while not self._stop.is_set():
            pss = tree_pss_bytes(process_tree(self.root))
            with self._lock:
                self._peak = max(self._peak, pss)
            self._stop.wait(self.interval_s)

    def start(self) -> "PssSampler":
        self._thread.start()
        return self

    def take_peak(self) -> int:
        """Peak since the last call; the window restarts at the current
        footprint."""
        now = tree_pss_bytes(process_tree(self.root))
        with self._lock:
            peak, self._peak = max(self._peak, now), now
        return peak

    def stop(self) -> None:
        self._stop.set()
        self._thread.join(timeout=10)


def ray_daemons() -> List[int]:
    """PIDs of this user's Ray daemons (GCS, raylet)."""
    uid = os.getuid()
    out = []
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            if os.stat(f"/proc/{name}").st_uid != uid:
                continue
            with open(f"/proc/{name}/comm") as f:
                comm = f.read().strip()
        except OSError:
            continue
        if comm in _RAY_DAEMONS:
            out.append(int(name))
    return out


def wait_gone(pids: Iterable[int], timeout_s: float) -> List[int]:
    """Wait for ``pids`` to exit; returns those still alive."""
    left = list(pids)
    deadline = time.monotonic() + timeout_s
    while left and time.monotonic() < deadline:
        time.sleep(0.1)
        left = [p for p in left if _alive(p)]
    return left


def _alive(pid: int) -> bool:
    try:
        state = _stat_fields(pid)[0]
    except OSError:
        return False
    return state != "Z"


def ray_temp_dir(work_root: str) -> str | None:
    """A Ray temp dir inside the work root, or None when its socket
    paths would be too long (Ray then uses its default location)."""
    path = os.path.join(os.path.abspath(work_root), "ray")
    if len(path) + _SESSION_SUFFIX > _SOCKET_PATH_MAX:
        return None
    return path


class RaySession:
    """One ``ray.init`` .. ``ray.shutdown`` with every process reaped."""

    def __init__(self, temp_dir: str | None, pythonpath: str):
        self.temp_dir = temp_dir
        self.pythonpath = pythonpath
        self.root_pid = os.getpid()

    def start(self) -> None:
        import ray
        from ray.data import DataContext

        # workers inherit the raylet's environment, which is ours
        os.environ["PYTHONPATH"] = self.pythonpath
        kw = {"_temp_dir": self.temp_dir} if self.temp_dir else {}
        ray.init(address="local", num_cpus=NUM_CPUS,
                 object_store_memory=OBJECT_STORE_BYTES,
                 include_dashboard=False, logging_level="ERROR",
                 log_to_driver=False, **kw)
        ctx = DataContext.get_current()
        ctx.enable_progress_bars = False
        ctx.enable_auto_log_stats = False
        ctx.print_on_execution_start = False

    def stop(self) -> int:
        """Shut Ray down and wait until every process it started ended;
        returns how many had to be killed."""
        import ray

        started = [p for p in process_tree(self.root_pid)
                   if p != self.root_pid]
        ray.shutdown()
        # a process that ignores shutdown for 10 s (seen once in 30 runs)
        # would otherwise cost the run that much more
        left = wait_gone(started, 10)
        for pid in left:
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass
        if wait_gone(left, 10):
            raise RuntimeError(f"Ray processes did not exit: {left}")
        return len(left)
