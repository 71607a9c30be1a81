"""genki benchmark: one workload per call, end-to-end or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Every genki command runs in a
fresh process through genki.cli.main (see child.py) on inputs that
workloads.py writes from the seed.  The command sets up the workload
at least SETUPS times and for SETUP_SECONDS (write the inputs, then the
prerequisite genki commands), then repeats the measured command until
--seconds have passed, then checks the outputs.  With --trace 1 it sets up once with tracing, runs the
measured command untraced and traced in turn TRACE_PAIRS times, and
reports per-layer metrics.

The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
The exit code is 0 when every check passed, 1 when a check failed and 2
when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import threading
import time
import urllib.request
from dataclasses import dataclass, field
from statistics import median
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Set up at least SETUPS times and until SETUP_SECONDS have passed, so a
# cheap set-up gets a median over more samples.
SETUPS = 3
SETUP_SECONDS = 3.0
# Untraced/traced command pairs in a traced run, for the tracing overhead.
TRACE_PAIRS = 3
# Median wall time of reference.py on a quiet 2-core x86-64 VM (Python 3.11,
# numpy 2.4).  Timed steps are reported at that speed; see Reference.
REFERENCE_S = 0.6
COMMAND_TIMEOUT_S = 150.0

# name -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "command_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "artifact_mb": ("MB", "lower"),
    "quality": ("share", "higher"),
}

INDEX = ["index", "--config", "config.json", "--corpus", "corpus.jsonl", "--out", "index.bin"]
TRAIN = ["train", "--config", "config.json", "--corpus", "corpus.jsonl", "--qa", "qa.jsonl",
         "--index", "index.bin", "--out"]
ANSWER = ["answer", "--config", "config.json", "--corpus", "corpus.jsonl", "--index", "index.bin"]
RETRIEVE = ["retrieve", "--config", "config.json", "--index", "index.bin", "--qa", "qa.jsonl",
            "--out"]
INPUT_FILES = {"corpus.jsonl", "qa.jsonl", "stream.jsonl", "config.json"}


# genki runs with single-threaded BLAS: on two shared cores a two-thread
# product waits for whichever core a neighbour slows, and it was no faster
# (retrieve's command took about 3.3 s either way on a 2-core x86-64 VM).
ONE_THREAD_ENV = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


class BenchError(Exception):
    """The benchmark could not run to the end."""


@dataclass
class Command:
    wall_s: float
    rss_mb: float
    returncode: int


def genki(argv: list[str], cwd: Path, log: Path, spans: Path | None = None) -> Command:
    """Run one genki command in a fresh process; wall time and peak RSS."""
    rss_file = log.with_name("peak_rss.kib")
    rss_file.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "child.py"), "--rss", str(rss_file)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    cmd += ["--", *argv]
    with open(log, "ab") as out:
        out.write(("$ genki " + " ".join(argv) + "\n").encode())
        out.flush()
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, stdout=out, stderr=subprocess.STDOUT,
                                env=ONE_THREAD_ENV)
        watchdog = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status = os.waitpid(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    # The child's own high-water mark: ru_maxrss would also count the pages
    # it shared with this process between fork and exec.
    rss_kib = int(rss_file.read_text()) if rss_file.is_file() else float("nan")
    return Command(wall, rss_kib * 1024 / 1e6, proc.returncode)


def must(result: Command, argv: list[str], log: Path) -> Command:
    if result.returncode != 0:
        tail = log.read_text(errors="replace")[-2000:]
        raise BenchError(f"genki {argv[0]} exited {result.returncode}:\n{tail}")
    return result


def tree_bytes(path: Path, skip: set[str]) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file() and p.name not in skip)


def same_bytes(a: Path, b: Path) -> bool:
    if a.is_file():
        return b.is_file() and a.read_bytes() == b.read_bytes()
    names = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    other = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
    return names == other and all((a / n).read_bytes() == (b / n).read_bytes() for n in names)


class Reference:
    """Times reference.py between timed steps to follow the host's speed.

    On a shared host the speed a process gets drifts by a third or more
    over minutes as neighbours come and go, so the median of a run moved
    with the host more than genki would.  reference.py runs before the
    first timed step and after every one; a step's wall time is scaled by
    REFERENCE_S over the mean of the reference times before and after it.
    The reference is a fresh process started like a genki command, so the
    two share the CPUs alike.
    """

    def __init__(self):
        self.times: list[float] = []
        self.last = self._run()

    def _run(self) -> float:
        start = time.perf_counter()
        done = subprocess.run([sys.executable, str(HERE / "reference.py")],
                              timeout=COMMAND_TIMEOUT_S)
        if done.returncode != 0:
            raise BenchError(f"reference.py exited {done.returncode}")
        self.times.append(time.perf_counter() - start)
        return self.times[-1]

    def scale(self, wall_s: float) -> float:
        """wall_s of the step that just ended, at the reference speed."""
        before, self.last = self.last, self._run()
        return wall_s * REFERENCE_S / ((before + self.last) / 2)


class StubServer:
    """The answer_remote scorer and judge, in its own process."""

    def __init__(self, seed: int, log: Path):
        self._log = open(log, "ab")
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "stub_server.py"), "--seed", str(seed)],
            stdout=subprocess.PIPE, stderr=self._log, text=True,
        )
        line = self.proc.stdout.readline()
        if not line.startswith("PORT "):
            self.close()
            raise BenchError("stub server did not start")
        self.url = f"http://127.0.0.1:{int(line.split()[1])}"

    def call(self, path: str) -> dict:
        data = b"{}" if path == "/reset" else None
        with urllib.request.urlopen(self.url + path, data=data, timeout=10) as resp:
            return json.loads(resp.read())

    def close(self) -> None:
        self.proc.terminate()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        self._log.close()


# -- output checks ------------------------------------------------------------


@dataclass
class Check:
    quality: float
    failed_per_command: int
    problems: list[str] = field(default_factory=list)


def check_answers(run_dir: Path, qa_path: Path) -> Check:
    """runs.jsonl has one consistent record per question; EM over all questions.

    Records with an error are failed operations and score 0.
    """
    from genki.corpus import ingest_qa_pairs
    from genki.metrics import exact_match

    qa_pairs = ingest_qa_pairs(qa_path)
    rows = [json.loads(line) for line in (run_dir / "runs.jsonl").read_text().splitlines()]
    check = Check(0.0, 0)
    if [r["qid"] for r in rows] != [qa.id for qa in qa_pairs]:
        check.problems.append("runs.jsonl does not hold one record per question in order")
        return check
    em = 0.0
    for qa, row in zip(qa_pairs, rows):
        if row["error"]:
            check.failed_per_command += 1
            continue
        bundle = row["bundle"]
        if bundle is None or row["final_answer"] not in (row["post_full"], row["post_retrieved"]):
            check.problems.append(f"{qa.id}: final answer is not one of the two candidates")
        elif (bundle["route"] == "RewardPick") != (bundle["s_c"] < 0):
            check.problems.append(f"{qa.id}: route {bundle['route']} disagrees with s_c")
        em += exact_match(list(qa.answers), row["final_answer"])
    audit_rows = len((run_dir / "audit.jsonl").read_text().splitlines())
    if audit_rows != len(rows) - check.failed_per_command:
        check.problems.append("audit.jsonl does not hold one row per answered question")
    check.quality = em / len(qa_pairs)
    return check


def read_index_file(path: Path):
    """Parse index.bin by its documented layout, without genki's reader."""
    import numpy as np

    raw = path.read_bytes()
    if raw[:5] != b"GKIX1":
        raise ValueError("bad magic")
    dim = int.from_bytes(raw[5:9], "little")
    count = int.from_bytes(raw[9:17], "little")
    end = 17 + count * dim * 4
    matrix = np.frombuffer(raw[17:end], dtype="<f4").reshape(count, dim)
    ids, pos = [], end
    for _ in range(count):
        length = int.from_bytes(raw[pos:pos + 4], "little")
        ids.append(raw[pos + 4:pos + 4 + length].decode("utf-8"))
        pos += 4 + length
    if pos != len(raw):
        raise ValueError("trailing bytes")
    return matrix, ids


def check_retrieval(setup: Path, out: Path, gold: dict[str, str]) -> Check:
    """Every query's ids and scores against a float64 full-scan oracle.

    The oracle orders by score descending, then id ascending, and scores
    must agree at rel 1e-9.  Quality is recall@k of the gold passage.
    """
    import math

    import numpy as np

    from genki.corpus import ingest_passages, ingest_qa_pairs
    from genki.retriever import HashEmbedder

    config = json.loads((setup / "config.json").read_text())
    k = config["k"]
    embedder = HashEmbedder(config["embedder"]["dim"], config["embedder"]["seed"])
    passages = ingest_passages(setup / "corpus.jsonl")
    queries = ingest_qa_pairs(setup / "qa.jsonl")
    records = [json.loads(line) for line in out.read_text().splitlines()]
    check = Check(0.0, 0)

    try:
        matrix, ids = read_index_file(setup / "index.bin")
    except ValueError as exc:
        check.problems.append(f"index.bin: {exc}")
        return check
    expected = np.stack([embedder.embed_passage(p.text) for p in passages])
    if ids != [p.id for p in passages] or not np.array_equal(matrix, expected):
        check.problems.append("index.bin does not hold the corpus embeddings in corpus order")
    if [r["qid"] for r in records] != [q.id for q in queries]:
        check.problems.append("retrieve output does not hold one record per query in order")
        return check

    full = matrix.astype(np.float64)
    id_order = np.argsort(np.array(ids), kind="stable")
    id_rank = np.empty(len(ids), dtype=np.int64)
    id_rank[id_order] = np.arange(len(ids))
    hits = 0
    for query, record in zip(queries, records):
        scores = full @ np.asarray(embedder.embed_question(query.question), dtype=np.float64)
        top = np.lexsort((id_rank, -scores))[:k]
        got = record["retrieved"]
        ok = (
            [g["passage_id"] for g in got] == [ids[i] for i in top]
            and [g["rank"] for g in got] == list(range(1, len(top) + 1))
            and all(math.isclose(g["score"], scores[i], rel_tol=1e-9, abs_tol=0.0)
                    for g, i in zip(got, top))
        )
        if not ok:
            check.failed_per_command += 1
        hits += gold[query.id] in {g["passage_id"] for g in got}
    if check.failed_per_command:
        check.problems.append(f"{check.failed_per_command} queries differ from the oracle")
    check.quality = hits / len(queries)
    return check


# -- workloads ------------------------------------------------------------------


@dataclass
class Workload:
    prereqs: list[list[str]]
    measured: list[str]  # argv without the trailing output path
    items: int  # operations in one measured command
    remote: bool = False


def workload_table() -> dict[str, Workload]:
    from workloads import SPECS

    toy = ANSWER + ["--qa", "stream.jsonl", "--models", "models", "--backend", "toy",
                    "--jobs", "1", "--out"]
    remote = ANSWER + ["--qa", "stream.jsonl", "--models", "models", "--backend", "remote",
                       "--jobs", "2", "--out"]
    return {
        "train": Workload([INDEX], TRAIN, 1),
        "answer": Workload([INDEX, TRAIN + ["models"]], toy, SPECS["answer"].stream),
        "retrieve": Workload([INDEX], RETRIEVE, SPECS["retrieve"].questions),
        "answer_remote": Workload([INDEX, TRAIN + ["models"]], remote,
                                  SPECS["answer_remote"].stream, remote=True),
    }


class Bench:
    def __init__(self, name: str, seed: int, seconds: int, work: Path):
        self.name = name
        self.seed = seed
        self.seconds = seconds
        self.work = work
        self.setup_dir = work / "setup"
        self.log = work / "commands.log"
        self.spec = workload_table()[name]
        self.server: StubServer | None = None

    def run_genki(self, argv: list[str], spans: Path | None = None) -> Command:
        return must(genki(argv, self.setup_dir, self.log, spans), argv, self.log)

    def set_up(self, trace_dir: Path | None = None):
        """Write the inputs and run the prerequisites; (seconds, index seconds, inputs)."""
        from workloads import write_inputs

        shutil.rmtree(self.setup_dir, ignore_errors=True)
        start = time.perf_counter()
        inputs = write_inputs(self.name, self.seed, self.setup_dir,
                              self.server.url if self.server else "")
        index_s = 0.0
        for i, argv in enumerate(self.spec.prereqs):
            spans = trace_dir / f"setup{i}.json" if trace_dir else None
            result = self.run_genki(argv, spans)
            if argv[0] == "index":
                index_s = result.wall_s
        return time.perf_counter() - start, index_s, inputs

    def measure(self, out: str, spans: Path | None = None) -> Command:
        if self.server:
            self.server.call("/reset")
        return self.run_genki(self.spec.measured + [out], spans)

    def check(self, out: str, inputs) -> Check:
        setup = self.setup_dir
        if self.name == "retrieve":
            return check_retrieval(setup, setup / out, inputs.gold_passage)
        if self.name == "train":
            # The checkpoints must reload: answer the training questions with them.
            argv = ANSWER + ["--qa", "qa.jsonl", "--models", out, "--out", "reload"]
            result = genki(argv, setup, self.log)
            if result.returncode != 0:
                return Check(0.0, 1, [f"trained checkpoints did not reload (exit {result.returncode})"])
            check = check_answers(setup / "reload", setup / "qa.jsonl")
            # Quality only: one training command is the operation here.
            check.failed_per_command = 0
            return check
        return check_answers(setup / out, setup / "stream.jsonl")


def run_untraced(bench: Bench) -> tuple[dict, int, int, list[str], list[str]]:
    reference = Reference()
    setups, raw_setups, index_times = [], [], []
    start = time.perf_counter()
    while len(setups) < SETUPS or time.perf_counter() - start < SETUP_SECONDS:
        setup_s, index_s, inputs = bench.set_up()
        raw_setups.append(setup_s)
        setups.append(reference.scale(setup_s))
        index_times.append(index_s)

    walls, raw_walls, rss = [], [], []
    problems: list[str] = []
    start = time.perf_counter()
    while True:
        out = f"out{len(walls)}"
        result = bench.measure(out)
        raw_walls.append(result.wall_s)
        walls.append(reference.scale(result.wall_s))
        rss.append(result.rss_mb)
        if out != "out0":
            if not same_bytes(bench.setup_dir / "out0", bench.setup_dir / out):
                problems.append(f"{out} differs from out0: the command is not deterministic")
            shutil.rmtree(bench.setup_dir / out, ignore_errors=True)
            (bench.setup_dir / out).unlink(missing_ok=True)
        if time.perf_counter() - start >= bench.seconds:
            break

    artifact = tree_bytes(bench.setup_dir, INPUT_FILES) / 1e6
    check = bench.check("out0", inputs)
    problems += check.problems
    runs = len(walls)
    items = bench.spec.items
    metrics = {
        "setup_s": median(setups),
        "command_s": median(walls),
        "peak_rss_mb": median(rss),
        "artifact_mb": artifact,
        "quality": check.quality,
    }
    samples = {"setup_s": len(setups), "command_s": runs, "peak_rss_mb": runs,
               "artifact_mb": 1, "quality": 1}
    lines = [f"{name} {metrics[name]:.6g} {END_TO_END[name][0]} (n={samples[name]})"
             for name in END_TO_END]
    lines += workload_names(bench.name, metrics, items, median(index_times), inputs.distinct_share)
    lines.append(f"  unscaled setup_s {median(raw_setups):.6g} s, command_s "
                 f"{median(raw_walls):.6g} s; reference.py median {median(reference.times):.6g} s "
                 f"over {len(reference.times)} runs (REFERENCE_S {REFERENCE_S:g} s)")
    if bench.server:
        stats = bench.server.call("/stats")
        lines.append(f"  stub server, last command: {stats['requests']} requests, "
                     f"{stats['faults']} injected 503s, {stats['busy_s']:.6g} s busy")
    return metrics, items * runs, check.failed_per_command * runs, problems, lines


def workload_names(name: str, m: dict, items: int, index_s: float, distinct: float) -> list[str]:
    """The same numbers under the per-workload names used in the benchmark's docs."""
    rate = items / m["command_s"]
    named = {
        "train": [("train_s", m["command_s"], "s"), ("em_train_questions", m["quality"], "share")],
        "answer": [("answer_qps", rate, "questions/s"), ("em", m["quality"], "share")],
        "answer_remote": [("answer_qps", rate, "questions/s"), ("em", m["quality"], "share")],
        "retrieve": [("retrieve_qps", rate, "queries/s"),
                     ("recall_at_k", m["quality"], "share")],
    }[name]
    named += [("index_s", index_s, "s"), ("distinct_question_share", distinct, "share")]
    return [f"  {label} {value:.6g} {unit}" for label, value, unit in named]


def run_traced(bench: Bench) -> tuple[dict, int, int, list[str], list[str]]:
    from layers import load_spans, per_layer

    trace_dir = bench.work / "spans"
    trace_dir.mkdir()
    _, _, inputs = bench.set_up(trace_dir)
    # Untraced and traced commands alternate; only the last traced one's
    # spans (and stub statistics) are kept.
    plain_s, traced_s = [], []
    problems = []
    for i in range(TRACE_PAIRS):
        plain_s.append(bench.measure("out0").wall_s)
        last = i == TRACE_PAIRS - 1
        spans = trace_dir / "measured.json" if last else bench.work / "discarded_spans.json"
        traced_s.append(bench.measure("out1", spans).wall_s)
        if not same_bytes(bench.setup_dir / "out0", bench.setup_dir / "out1"):
            problems.append("traced outputs differ from untraced outputs")
            break
    server_busy = 0.0
    if bench.server:
        stats = bench.server.call("/stats")
        server_busy = stats["busy_s"]
    check = bench.check("out0", inputs)
    problems += check.problems

    files = sorted(str(p) for p in trace_dir.iterdir())
    spans, oov = load_spans(files)
    metrics = per_layer(spans, oov, server_busy, median(traced_s) / median(plain_s) - 1.0)
    if bench.server and (metrics["clients.requests"], metrics["clients.retries"]) != (
            stats["requests"], stats["faults"]):
        problems.append(f"client counted {metrics['clients.requests']} requests and "
                        f"{metrics['clients.retries']} retries, server {stats['requests']} "
                        f"requests and {stats['faults']} injected faults")
    lines = [f"median of {len(plain_s)}: untraced {median(plain_s):.6g} s, traced "
             f"{median(traced_s):.6g} s; {len(spans)} spans from {len(files)} commands"]
    commands = len(plain_s) + len(traced_s)
    return (metrics, commands * bench.spec.items, commands * check.failed_per_command,
            problems, lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="genki benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "genki" / "cli.py").is_file():
        print(f"error: no genki sources under {ROOT / 'src'}; run from a genki checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload not in workload_table():
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(workload_table())}",
              file=sys.stderr)
        return 2

    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    bench = Bench(args.workload, args.seed, args.seconds, work)
    try:
        if bench.spec.remote:
            bench.server = StubServer(args.seed, work / "stub_server.log")
        runner = run_traced if args.trace else run_untraced
        metrics, attempted, failed, problems, lines = runner(bench)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if bench.server:
            bench.server.close()
        shutil.rmtree(work, ignore_errors=True)

    from layers import PER_LAYER

    units = PER_LAYER if args.trace else END_TO_END
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{attempted} operations attempted, {failed} failed")
    for line in lines:
        print(line)
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name][0]} for name in units},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
