"""Self-test of the benchmark's own machinery.

    python3 perfbench/selftest.py

Shows that the input generator is deterministic for a seed, that the
retrieval oracle rejects perturbed results, and that the tracer wraps
every lookup site and restores every one of them.  Exits non-zero on the
first failed check.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def check(condition: bool, label: str) -> None:
    print(f"[{'PASS' if condition else 'FAIL'}] {label}")
    if not condition:
        raise SystemExit(1)


def genki(*argv: str) -> None:
    import genki.cli

    with contextlib.redirect_stdout(io.StringIO()):
        code = genki.cli.main(list(argv))
    check(code == 0, f"genki {argv[0]} succeeds")


def test_generator(work: Path) -> None:
    for name in workloads.SPECS:
        a, b, c = work / f"{name}-a", work / f"{name}-b", work / f"{name}-c"
        workloads.write_inputs(name, 7, a)
        workloads.write_inputs(name, 7, b)
        workloads.write_inputs(name, 8, c)
        check(files(a) == files(b), f"{name}: seed 7 twice gives identical inputs")
        check(files(a) != files(c), f"{name}: seeds 7 and 8 give different inputs")
    qids = [json.loads(line)["id"] for line in (work / "answer-a" / "stream.jsonl").open()]
    check(len(set(qids)) == len(qids), "answer stream ids are unique")


def test_oracle(work: Path) -> None:
    workloads.SPECS["retrieve"] = workloads.Spec(400, 40, 0)
    setup = work / "retrieve"
    inputs = workloads.write_inputs("retrieve", 3, setup)
    os.chdir(setup)
    genki(*run.INDEX)
    genki(*run.RETRIEVE, "out.jsonl")
    out = setup / "out.jsonl"
    good = out.read_text().splitlines()
    result = run.check_retrieval(setup, out, inputs.gold_passage)
    check(not result.problems and result.failed_per_command == 0, "oracle accepts genki's results")

    def perturbed(edit) -> run.Check:
        records = [json.loads(line) for line in good]
        edit(records[5]["retrieved"])
        out.write_text("".join(json.dumps(r) + "\n" for r in records))
        return run.check_retrieval(setup, out, inputs.gold_passage)

    def swap(got):
        got[0]["passage_id"], got[1]["passage_id"] = got[1]["passage_id"], got[0]["passage_id"]

    def nudge(got):
        got[0]["score"] *= 1 + 1e-7

    def replace(got):
        got[1]["passage_id"] = "p999"

    for label, edit in (("swapped order", swap), ("score off by 1e-7", nudge),
                        ("wrong passage", replace)):
        result = perturbed(edit)
        check(result.failed_per_command == 1 and bool(result.problems),
              f"oracle rejects a {label}")
    out.write_text("\n".join(good) + "\n")

    index = setup / "index.bin"
    raw = bytearray(index.read_bytes())
    raw[40] ^= 0x01
    index.write_bytes(bytes(raw))
    result = run.check_retrieval(setup, out, inputs.gold_passage)
    check(bool(result.problems), "oracle rejects an index.bin whose vectors changed")
    os.chdir(ROOT)


def _namespaces() -> list[dict]:
    """Copies of every namespace the tracer may patch."""
    owners = [m for n, m in sorted(sys.modules.items()) if n == "genki" or n.startswith("genki.")]
    owners.append(sys.modules["urllib.request"])
    for module_name, path in tracer.TARGETS:
        if "." in path:
            owners.append(getattr(sys.modules[module_name], path.split(".")[0]))
    return [dict(vars(owner)) for owner in owners]


def test_tracer() -> None:
    import genki.cli  # noqa: F401  (loads every traced module)
    import genki.retriever

    before = _namespaces()
    original = genki.retriever.top_k
    recorder = tracer.Recorder()
    recorder.install()
    try:
        import genki.generation

        wrapped = [getattr(sys.modules[m], "top_k").__wrapped__ is original
                   for m in ("genki.retriever", "genki.generation", "genki.cli")]
        check(all(wrapped), "top_k is wrapped in genki.retriever, genki.generation and genki.cli")
        embed = genki.retriever.HashEmbedder.__dict__["embed"]
        check(hasattr(embed, "__wrapped__"), "methods are wrapped on their class")
    finally:
        recorder.uninstall()
    check(before == _namespaces(), "uninstall restores every wrapped name")


def main() -> int:
    work = ROOT / ".bench_work" / f"selftest-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        test_generator(work)
        test_oracle(work)
        test_tracer()
    finally:
        os.chdir(ROOT)
        shutil.rmtree(work, ignore_errors=True)
    print("all self-tests passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
