"""Run one genki command in this process, traced or not.

    python3 perfbench/child.py [--rss FILE] [--spans FILE] -- <genki arguments>

With --rss the process's peak resident set (VmHWM, in KiB) is written to
FILE when the command ends.  With --spans the calls into genki's modules
are recorded and written to FILE as JSON when the command ends.  The exit
code is the command's.
"""

from __future__ import annotations

import sys
from pathlib import Path


def peak_rss_kib() -> int:
    """High-water resident set of this process since exec, from /proc."""
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def run(argv: list[str], spans_path: str | None) -> int:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import genki.cli

    if spans_path is None:
        return genki.cli.main(argv)
    import tracer

    recorder = tracer.Recorder()
    recorder.install()
    try:
        return genki.cli.main(argv)
    finally:
        recorder.uninstall()
        recorder.dump(spans_path)


def main(argv: list[str]) -> int:
    options = {}
    while argv[:1] in (["--rss"], ["--spans"]):
        options[argv[0]], argv = argv[1], argv[2:]
    if argv[:1] == ["--"]:
        argv = argv[1:]
    try:
        return run(argv, options.get("--spans"))
    finally:
        if "--rss" in options:
            Path(options["--rss"]).write_text(f"{peak_rss_kib()}\n")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
