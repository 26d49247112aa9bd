"""What the benchmark reads about the host and its processes."""

import os
import subprocess

#: The CPUs this process may use, read at import, before any pinning.
CPUS = sorted(os.sched_getaffinity(0))


def peak_rss_mb(pid="self") -> float:
    """Peak resident set size (``VmHWM``) of a process, in MB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc status")


def git_commit(root: str) -> str:
    """HEAD of the checkout's own ``.git``, or ``unknown`` outside one."""
    try:
        out = subprocess.run(
            ["git", f"--git-dir={os.path.join(root, '.git')}", "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"
