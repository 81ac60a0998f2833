"""The system under test as seen from outside: spawn, probe, measure, kill.

Every process started here is registered and killed (then reaped) by
:func:`cleanup`, which ``run.py`` calls on every exit path, including
SIGTERM; every scratch directory lives under ``.e2e_bench/work`` in the
checkout and is removed with it.
"""

from __future__ import annotations

import http.client
import os
import select
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".e2e_bench" / "work"
RESULTS = ROOT / ".e2e_bench" / "results"

#: Socket timeout of every request: far above any legitimate /estimate
#: (the largest cold one takes about a second), far below a hang.
REQUEST_TIMEOUT_S = 30.0
SPAWN_TIMEOUT_S = 60.0
CLK_TCK = os.sysconf("SC_CLK_TCK")

_LIVE: List[subprocess.Popen] = []
_DIRS: List[Path] = []


def require_program() -> None:
    """Exit 2 unless the checkout holds the program's sources."""
    if not (SRC / "repro" / "service" / "http.py").is_file() or \
            not (SRC / "repro" / "pipeline" / "cli.py").is_file():
        print(f"e2e_bench: no repro sources under {SRC}; run from the repository root",
              file=sys.stderr)
        raise SystemExit(2)


def env() -> Dict[str, str]:
    """The environment of every process under test: the checkout's
    sources first on the path, and unbuffered output, so the service's
    ready line reaches the pipe :class:`Server` reads as soon as it is
    printed (block-buffered, it would wait for the process to exit)."""
    out = dict(os.environ)
    out["PYTHONUNBUFFERED"] = "1"
    out["PYTHONPATH"] = str(SRC) + (os.pathsep + out["PYTHONPATH"] if out.get("PYTHONPATH") else "")
    return out


def scratch(name: str) -> Path:
    path = WORK / f"{name}-{os.getpid()}-{len(_DIRS)}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    _DIRS.append(path)
    return path


def spawn(args: List[str], **kwargs) -> subprocess.Popen:
    proc = subprocess.Popen([sys.executable, *args], env=env(), cwd=str(ROOT), **kwargs)
    _LIVE.append(proc)
    return proc


def stop(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.terminate()
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    if proc.stdout is not None:
        proc.stdout.close()
    if proc in _LIVE:
        _LIVE.remove(proc)


def cleanup() -> None:
    for proc in list(_LIVE):
        stop(proc)
    for path in _DIRS:
        shutil.rmtree(path, ignore_errors=True)
    _DIRS.clear()


def _on_signal(signum, _frame) -> None:
    cleanup()
    raise SystemExit(128 + signum)


def install_signal_handlers() -> None:
    for sig in (signal.SIGTERM, signal.SIGINT, signal.SIGHUP):
        signal.signal(sig, _on_signal)


def _stat_fields(path: str) -> List[str]:
    return Path(path).read_text().rsplit(")", 1)[1].split()


def proc_cpu_s(pid: int, ended: bool = True) -> float:
    """User+system CPU of ``pid`` (ended threads included) and of its
    reaped children (the ShardPool workers), in seconds; with
    ``ended=False`` of its live threads only.

    Live threads count by their scheduler run time
    (``/proc/<pid>/task/*/schedstat``, nanoseconds); the kernel's tick
    counts are sampled, so a request costing a millisecond is charged a
    whole 10 ms tick or nothing, which scatters a run's total by ~20%.
    Ended threads and children only exist in ticks, and only cost enough
    to be counted fairly that way in the cold workload.  The process line
    is read first, so a thread ending meanwhile is counted once, in ticks.
    That difference of tick totals jitters by a tick even when no thread
    ended, so a measurement in which none ends and no child is spawned
    (a hot or disk pass on one keep-alive connection) leaves it out.
    """
    fields = _stat_fields(f"/proc/{pid}/stat")
    ticks = sum(int(v) for v in fields[11:15])  # utime stime cutime cstime
    live_ns = 0
    for task in os.listdir(f"/proc/{pid}/task"):
        try:
            live_ns += int(Path(f"/proc/{pid}/task/{task}/schedstat").read_text().split()[0])
            ticks -= sum(int(v) for v in _stat_fields(f"/proc/{pid}/task/{task}/stat")[11:13])
        except (FileNotFoundError, ProcessLookupError):
            pass  # ended meanwhile: its ticks stay in the process total
    return live_ns / 1e9 + (ticks / CLK_TCK if ended else 0.0)


def _status_mib(pid: int, field: str) -> float:
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith(field + ":"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no {field} for pid {pid}")


def proc_peak_rss_mib(pid: int) -> float:
    return _status_mib(pid, "VmHWM")


def reset_peak_rss(pid: int) -> None:
    """Restart ``pid``'s peak resident set (``VmHWM``) from its current
    resident set; nothing else of the process is touched."""
    Path(f"/proc/{pid}/clear_refs").write_text("5")


class Endpoint:
    """A closed-loop HTTP client on one keep-alive connection to ``port``."""

    port: int
    conn: Optional[http.client.HTTPConnection] = None

    def get(self, path: str) -> Tuple[int, Dict[str, str], bytes]:
        """One GET (the connection is reopened after a transport error)."""
        if self.conn is None:
            self.conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                                   timeout=REQUEST_TIMEOUT_S)
        try:
            self.conn.request("GET", path)
            response = self.conn.getresponse()
            body = response.read()
        except (OSError, http.client.HTTPException):
            self.close_conn()
            raise
        return response.status, {k.lower(): v for k, v in response.getheaders()}, body

    def close_conn(self) -> None:
        if self.conn is not None:
            self.conn.close()
            self.conn = None


class Server(Endpoint):
    """One ``python -m repro.service`` subprocess on an ephemeral port.

    ``setup_s`` is spawn to the first successful ``/healthz``.
    """

    def __init__(self, store: Path) -> None:
        start = time.perf_counter()
        self.proc = spawn(
            ["-m", "repro.service", "--port", "0", "--store", str(store)],
            stdout=subprocess.PIPE, text=True,
        )
        line = self._first_line()
        self.port = int(line.split("http://", 1)[1].split()[0].rsplit(":", 1)[1])
        while True:
            try:
                status, _, _ = self.get("/healthz")
                if status == 200:
                    break
            except OSError:
                pass
            if time.perf_counter() - start > SPAWN_TIMEOUT_S:
                raise RuntimeError("service never answered /healthz")
            time.sleep(0.005)
        self.setup_s = time.perf_counter() - start

    def _first_line(self) -> str:
        assert self.proc.stdout is not None
        ready, _, _ = select.select([self.proc.stdout], [], [], SPAWN_TIMEOUT_S)
        line = self.proc.stdout.readline() if ready else ""
        if "http://" not in line:
            self.stop()
            raise RuntimeError(f"service did not start (said {line!r})")
        return line

    def cpu_s(self, ended: bool = True) -> float:
        return proc_cpu_s(self.proc.pid, ended)

    def peak_rss_mib(self) -> float:
        return proc_peak_rss_mib(self.proc.pid)

    def stop(self) -> None:
        self.close_conn()
        stop(self.proc)


def run_cli(args: List[str], timeout: float) -> Tuple[int, float, float, float]:
    """Run ``python <args>`` to completion.

    Returns ``(exit code, wall s, CPU s of it and its reaped children,
    peak RSS MiB of the largest of them)``.
    """
    log = scratch("cli-log") / "stderr.txt"
    start = time.perf_counter()
    with open(log, "wb") as err:
        proc = spawn(args, stdout=subprocess.DEVNULL, stderr=err)
    deadline = start + timeout
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.perf_counter() > deadline:
            stop(proc)
            raise RuntimeError(f"{' '.join(args)} timed out")
        time.sleep(0.002)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    _LIVE.remove(proc)
    if proc.returncode:
        sys.stderr.write(log.read_text(errors="replace")[-2000:])
    return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0
