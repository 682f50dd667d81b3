#!/usr/bin/env python3
"""End-to-end benchmark of the proxitri CLI.

    python3 perfbench/run.py --workload general --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from
./src, nothing needs installing. One client runs the CLI as its users do:
one job after another, each a fresh `python -m proxitri.cli` process
(closed loop, at most one job process at a time). Set-up generates the
corpus with `proxitri gen` from the seed. Jobs repeat in passes until
--seconds is used up, and every job's output is checked by verify.py.

--trace 0 prints the end-to-end metrics. --trace 1 also replays one pass
in-process, untraced and then traced (see tracing.py), and prints the
per-layer metrics. The last line of stdout is one JSON object; the lines
above it are a readable summary. Work files go to ./.perfbench_work.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import select
import shutil
import statistics
import subprocess
import sys
import traceback
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from io import StringIO
from pathlib import Path
from time import perf_counter

import verify
from tracing import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
DEFAULT_SEED = 1
JOB_TIMEOUT_S = 60.0
SETUP_REPEATS = 3
STARTUP_SAMPLES = 5
SUITES = ("delaunay", "dual", "lemma2", "theorem-equivalence", "regions", "leader")


@dataclass(frozen=True)
class Input:
    distribution: str
    n: int
    jobs: tuple[str, ...]


# Why each workload exists is recorded in README.md next to this file.
GENERAL_JOBS = ("triangulate", "render-overlay", "render-regions", "query-strong-v", "query-near-t")
COCIRCULAR_JOBS = ("triangulate", "render-delaunay", "query-near-t")
WORKLOADS = {
    "general": (
        Input("uniform", 300, GENERAL_JOBS),
        Input("clustered", 100, GENERAL_JOBS),
        Input("collinear-heavy", 100, GENERAL_JOBS),
        Input("uniform", 16, ("check",)),
        Input("clustered", 16, ("check",)),
    ),
    # Two inputs per distribution and per small check: the cost of one input
    # varies a lot with the seed (bit length on cocircular, line layout on
    # collinear-heavy, hull size at n=16).
    "cocircular": (
        Input("cocircular", 250, COCIRCULAR_JOBS),
        Input("cocircular", 250, COCIRCULAR_JOBS),
        Input("cocircular", 16, ("check",)),
        Input("cocircular", 16, ("check",)),
    ),
    "checks": (
        Input("uniform", 24, COCIRCULAR_JOBS + ("check",)),
        Input("clustered", 24, ("check",)),
        Input("cocircular", 24, ("check",)),
        Input("collinear-heavy", 24, ("check",)),
        Input("uniform", 24, ("check",)),
        Input("clustered", 24, ("check",)),
        Input("cocircular", 24, ("check",)),
        Input("collinear-heavy", 24, ("check",)),
    ),
}
COMMANDS = ("triangulate", "render", "query", "check")

END_TO_END = {
    "sites_per_s": "sites/s",
    "triangulate_s": "s",
    "render_s": "s",
    "query_s": "s",
    "check_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
SPAN_TIMES = (
    "io.parse_site_file", "io.render_document", "delaunay.triangulate",
    "delaunay.is_locally_delaunay", "voronoi.voronoi_diagram",
    "voronoi.cells_strongly_near", "voronoi.common_vertex",
    "regions.extract_regions", "regions.region_union_polygon",
    "regions.leader_neighborhoods", "render.render_svg", "proximity.near",
) + tuple(f"checks.{suite}" for suite in SUITES)
CALL_COUNTS = (
    "voronoi.closed_cell_intersection", "proximity.near", "geometry.in_circumcircle",
    "geometry.orientation", "geometry.segment_intersection", "geometry.locate_point",
    "geometry.convex_closed_intersection", "geometry.circumcircle",
)
WORK_COUNTS = (
    "delaunay.scaled_bits_max", "delaunay.triangles", "regions.regions",
    "checks.records", "checks.failed", "checks.degenerate_skip",
)
PER_LAYER = (
    {"cli.startup_s": "s", "cli.overhead_s": "s", "geometry.predicates_s": "s"}
    | {f"{name}_s": "s" for name in SPAN_TIMES}
    | {f"{name}_calls": "count" for name in CALL_COUNTS}
    | {name: "count" for name in WORK_COUNTS}
    | {"host.calib_s": "s", "trace.overhead_ratio": "ratio"}
)


class SetupError(Exception):
    pass


@dataclass
class Job:
    index: int
    input_index: int
    kind: str
    argv: list[str]
    sites: int
    stdout: Path
    svg: Path | None = None
    query: tuple[str, str, str] | None = None
    expect_near_t: tuple[int, int] | None = None

    @property
    def command(self) -> str:
        return self.argv[0]


@dataclass
class JobRun:
    wall_s: float
    returncode: int
    maxrss_kb: int
    timed_out: bool


# ---------------------------------------------------------------------------
# Processes.


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def cli_argv(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "proxitri.cli", *args]


def run_process(args: list[str], stdout: Path, timeout: float) -> JobRun:
    """Run one CLI process; wall time is spawn to exit, memory from wait4."""
    with open(stdout, "wb") as out, open(stdout.with_suffix(".err"), "wb") as err:
        t0 = perf_counter()
        proc = subprocess.Popen(cli_argv(args), stdout=out, stderr=err, env=cli_env(), cwd=ROOT)
        pidfd = os.pidfd_open(proc.pid)
        try:
            ready, _, _ = select.select([pidfd], [], [], timeout)
            if not ready:
                proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            os.close(pidfd)
        wall = perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return JobRun(wall, proc.returncode, usage.ru_maxrss, not ready)


def calibrate() -> float:
    """A fixed pure-Python loop; its time tracks the host's CPU speed."""
    t0 = perf_counter()
    acc = 0
    for i in range(400_000):
        acc = (acc * 31 + i) % 1_000_003
    return perf_counter() - t0


# ---------------------------------------------------------------------------
# Set-up: corpus and jobs.


def gen_seed(seed: int, index: int) -> int:
    return seed * 100 + index


def setup_once(inputs, seed: int, corpus: Path) -> float:
    if corpus.exists():
        shutil.rmtree(corpus)
    corpus.mkdir(parents=True)
    t0 = perf_counter()
    for idx, inp in enumerate(inputs):
        args = ["gen", str(inp.n), "--seed", str(gen_seed(seed, idx)),
                "--distribution", inp.distribution, "--out", str(corpus / f"in{idx}.sites")]
        done = subprocess.run(cli_argv(args), env=cli_env(), cwd=ROOT, capture_output=True,
                              timeout=JOB_TIMEOUT_S)
        if done.returncode != 0:
            raise SetupError(f"gen {inp.distribution} {inp.n} failed: {done.stderr.decode()}")
    warm = subprocess.run(cli_argv(["--version"]), env=cli_env(), cwd=ROOT, capture_output=True,
                          timeout=JOB_TIMEOUT_S)
    if warm.returncode != 0:
        raise SetupError(f"--version failed: {warm.stderr.decode()}")
    return perf_counter() - t0


def setup(inputs, seed: int, work: Path) -> tuple[list[float], Path]:
    """Generate the corpus several times; every copy must be byte-identical."""
    times = [setup_once(inputs, seed, work / f"corpus{rep}") for rep in range(SETUP_REPEATS)]
    first = work / "corpus0"
    for rep in range(1, SETUP_REPEATS):
        for idx in range(len(inputs)):
            name = f"in{idx}.sites"
            if (work / f"corpus{rep}" / name).read_bytes() != (first / name).read_bytes():
                raise SetupError(f"gen output {name} differs between repeats")
    return times, first


def build_jobs(inputs, seed: int, salt: str, corpus: Path, out: Path):
    jobs: list[Job] = []
    site_lists = []
    for idx, inp in enumerate(inputs):
        path = str(corpus / f"in{idx}.sites")
        sites = verify.parse_sites(Path(path).read_text(encoding="utf-8"))
        if len(sites) != inp.n:
            raise SetupError(f"{path} holds {len(sites)} sites, expected {inp.n}")
        site_lists.append(sites)
        rng = random.Random(f"{seed}:{salt}:{idx}")
        for kind in inp.jobs:
            j = len(jobs)
            job = Job(j, idx, kind, [], inp.n, out / f"job{j}.out")
            if kind == "triangulate":
                job.argv = ["triangulate", path]
            elif kind.startswith("render-"):
                job.svg = out / f"job{j}.svg"
                job.argv = ["render", path, "--what", kind[len("render-"):], "--out", str(job.svg)]
            elif kind == "query-near-t":
                # Triangles are sorted, so t and t+1 often share a vertex:
                # both verdicts occur. T >= n - 2, so both ids exist.
                t = rng.randrange(inp.n - 3)
                job.query = ("near", f"t:{t}", f"t:{t + 1}")
                job.expect_near_t = (t, t + 1)
            elif kind == "query-strong-v":
                a = rng.randrange(inp.n)
                job.query = ("strong", f"v:{a}", f"v:{verify.nearest_neighbor(sites, a)}")
            elif kind == "check":
                job.argv = ["check", path, "--suite", "all"]
            else:
                raise ValueError(kind)
            if job.query:
                job.argv = ["query", path, *job.query]
            jobs.append(job)
    return jobs, site_lists


# ---------------------------------------------------------------------------
# Output checks.


class Checker:
    """Checks each job's output once; a repeat must be byte-identical."""

    def __init__(self, inputs, seed: int, site_lists):
        self.inputs = inputs
        self.seed = seed
        self.site_lists = site_lists
        self.meshes: dict[int, verify.Mesh] = {}
        self.seen: dict[int, tuple[str, str | None]] = {}
        self.stored = json.loads((HERE / "digests.json").read_text())
        self.triangle_digests: dict[str, str] = {}

    def output_digest(self, job: Job) -> str:
        text = (job.svg or job.stdout).read_text(encoding="utf-8")
        if job.kind == "check":
            return verify.check_records_digest(verify.check_records(text))
        return verify.digest(text)

    def check(self, job: Job, run: JobRun) -> str | None:
        """None when the output is right, else the reason it is not."""
        if run.timed_out:
            return f"timed out after {JOB_TIMEOUT_S:.0f} s"
        if run.returncode != 0:
            return f"exit code {run.returncode}"
        try:
            d = self.output_digest(job)
            if job.index in self.seen:
                first, reason = self.seen[job.index]
                return reason if d == first else "output changed between passes"
            self._verify(job)
            reason = None
        except (verify.OutputError, OSError, UnicodeDecodeError) as exc:
            d, reason = None, str(exc) or type(exc).__name__
        self.seen[job.index] = (d, reason)
        return reason

    def _verify(self, job: Job) -> None:
        inp = self.inputs[job.input_index]
        sites = self.site_lists[job.input_index]
        if job.kind == "triangulate":
            mesh = verify.parse_mesh_document(job.stdout.read_text(encoding="utf-8"))
            verify.check_triangulation(mesh, sites)
            key = f"{inp.distribution}:{inp.n}:{gen_seed(self.seed, job.input_index)}"
            self.meshes[job.input_index] = mesh
            self.triangle_digests[key] = mesh.triangle_digest()
            if self.stored.get(key, self.triangle_digests[key]) != self.triangle_digests[key]:
                raise verify.OutputError(f"triangle digest differs from the stored one for {key}")
        elif job.svg is not None:
            verify.check_svg(job.svg.read_text(encoding="utf-8"), len(sites))
        elif job.expect_near_t is not None:
            mesh = self.meshes.get(job.input_index)
            if mesh is None:
                raise verify.OutputError("no checked mesh to compare the query with")
            expected = verify.shared_vertices(mesh, *job.expect_near_t) >= 1
            verify.check_query(job.stdout.read_text(encoding="utf-8"), *job.query, expected)
        elif job.query is not None:
            # Nearest-neighbour cells always share an edge.
            verify.check_query(job.stdout.read_text(encoding="utf-8"), *job.query, True)
        # check jobs: output_digest already rejected any fail record.


# ---------------------------------------------------------------------------
# Measurement.


@dataclass
class Measurement:
    job_walls: dict[int, list[float]] = field(default_factory=dict)
    passes: int = 0
    peak_rss_kb: int = 0
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    stalled: bool = False


def measure(jobs: list[Job], checker: Checker, seconds: float) -> Measurement:
    """Closed loop: whole passes over the jobs until `seconds` is used up."""
    m = Measurement()
    t_start = perf_counter()
    while True:
        t_pass = perf_counter()
        for job in jobs:
            run = run_process(job.argv, job.stdout, JOB_TIMEOUT_S)
            m.attempted += 1
            m.peak_rss_kb = max(m.peak_rss_kb, run.maxrss_kb)
            reason = checker.check(job, run)
            if reason is not None:
                m.failures.append(f"job {job.index} ({' '.join(job.argv[:1] + job.argv[2:])}): {reason}")
            if run.timed_out:
                m.stalled = True
                return m
            m.job_walls.setdefault(job.index, []).append(run.wall_s)
        m.passes += 1
        now = perf_counter()
        if now - t_start + (now - t_pass) > seconds:
            return m


def end_to_end_metrics(jobs: list[Job], m: Measurement, setup_times: list[float]) -> dict:
    """Times per pass, each job counted at its median over the passes."""
    median_wall = {j: statistics.median(walls) for j, walls in m.job_walls.items()}
    done = [job for job in jobs if job.index in median_wall]
    wall = sum(median_wall.values())
    out = {"sites_per_s": sum(job.sites for job in done) / wall if wall else 0.0}
    for cmd in COMMANDS:
        out[f"{cmd}_s"] = sum(median_wall[job.index] for job in done if job.command == cmd)
    out["peak_rss_mb"] = m.peak_rss_kb / 1024
    out["setup_s"] = statistics.median(setup_times)
    return out


def startup_time() -> float:
    walls = []
    for _ in range(STARTUP_SAMPLES):
        t0 = perf_counter()
        subprocess.run(cli_argv(["--version"]), env=cli_env(), cwd=ROOT, capture_output=True,
                       timeout=JOB_TIMEOUT_S)
        walls.append(perf_counter() - t0)
    return statistics.median(walls)


# ---------------------------------------------------------------------------
# In-process replay.


def _trace_hooks() -> dict:
    def triangulated(counts, args, mesh):
        bits = max(max(abs(x).bit_length(), abs(y).bit_length()) for x, y in args[0].scaled)
        counts["delaunay.scaled_bits_max"] = max(counts["delaunay.scaled_bits_max"], bits)
        counts["delaunay.triangles"] += len(mesh.triangles)

    def regions_found(counts, args, regions):
        counts["regions.regions"] += len(regions)

    def checked(counts, args, result):
        records = result[0]
        counts["checks.records"] += len(records)
        counts["checks.failed"] += sum(r.status == "fail" for r in records)
        counts["checks.degenerate_skip"] += sum(r.status == "degenerate-skip" for r in records)

    return {
        "delaunay.triangulate": (None, triangulated),
        "regions.extract_regions": (None, regions_found),
        "checks.run_checks": (lambda args: f"checks.{args[0]}", checked),
    }


def replay_job(job: Job) -> str:
    """Run one job in this process; returns the digest its output would have.

    A check job runs one `run_checks` call per suite so that each suite gets
    its own span; the others go through `cli.main` with the job's argv.
    """
    from proxitri import checks, cli, io

    if job.kind == "check":
        path = job.argv[1]
        sites = io.parse_site_file(Path(path).read_text(encoding="utf-8"), path)
        # The CLI's one run_checks("all") call builds the diagram once; the
        # six per-suite calls here share one build too, so the replay does
        # the same work as the job.
        build = checks.voronoi_diagram
        diagrams = {}

        def shared_diagram(s, frame=None):
            if frame not in diagrams:
                diagrams[frame] = build(s, frame)
            return diagrams[frame]

        checks.voronoi_diagram = shared_diagram
        records = []
        try:
            for suite in SUITES:
                results, _ = checks.run_checks(suite, sites)
                records += [(r.name, r.status, r.witness) for r in results]
        finally:
            checks.voronoi_diagram = build
        return verify.check_records_digest(records)
    buf = StringIO()
    with redirect_stdout(buf), redirect_stderr(StringIO()):
        code = cli.main(job.argv)
    if code != 0:
        raise verify.OutputError(f"in-process exit code {code}")
    return verify.digest(job.svg.read_text(encoding="utf-8") if job.svg else buf.getvalue())


def replay(jobs: list[Job], tracer: Tracer | None = None) -> list[tuple[float, str]]:
    out = []
    for job in jobs:
        if tracer is not None:
            tracer.current_job = job.index
        ctx = tracer.span(f"job.{job.command}", "job") if tracer else nullcontext()
        t0 = perf_counter()
        with ctx:
            d = replay_job(job)
        out.append((perf_counter() - t0, d))
    return out


def per_layer_metrics(jobs, m: Measurement, checker: Checker, spans_path: Path) -> dict:
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    plain = replay(jobs)
    tracer = Tracer()
    tracer.install(_trace_hooks())
    try:
        traced = replay(jobs, tracer)
    finally:
        tracer.uninstall()
    tracer.write(spans_path)
    for job, (_, d_plain), (_, d_traced) in zip(jobs, plain, traced):
        first = checker.seen.get(job.index, (None, None))[0]
        if not d_plain == d_traced == first:
            m.failures.append(f"job {job.index}: in-process output differs from the CLI's")
    out = {
        "cli.overhead_s": sum(
            statistics.median(m.job_walls[job.index]) - t for job, (t, _) in zip(jobs, plain)
            if job.index in m.job_walls
        ),
        "geometry.predicates_s": tracer.layer_self_s["geometry"],
        "trace.overhead_ratio": sum(t for t, _ in traced) / sum(t for t, _ in plain),
    }
    out |= {f"{name}_s": tracer.self_s[name] for name in SPAN_TIMES}
    out |= {f"{name}_calls": tracer.calls[name] for name in CALL_COUNTS}
    out |= {name: tracer.counts[name] for name in WORK_COUNTS}
    return out


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "proxitri" / "cli.py").is_file():
        print(f"error: no proxitri sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2

    calib_start = calibrate()
    work = WORK / args.workload
    if work.exists():
        shutil.rmtree(work)
    out_dir = work / "out"
    out_dir.mkdir(parents=True)
    try:
        inputs = WORKLOADS[args.workload]
        setup_times, corpus = setup(inputs, args.seed, work)
        jobs, site_lists = build_jobs(inputs, args.seed, args.workload, corpus, out_dir)
    except (SetupError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"error: set-up failed: {exc}", file=sys.stderr)
        return 1
    checker = Checker(inputs, args.seed, site_lists)
    m = measure(jobs, checker, args.seconds)
    e2e = end_to_end_metrics(jobs, m, setup_times)
    startup = startup_time()

    layer = dict.fromkeys(PER_LAYER, 0.0)
    if args.trace and not m.stalled:
        spans_path = WORK / f"spans-{args.workload}-{args.seed}.tsv.gz"
        try:
            layer |= per_layer_metrics(jobs, m, checker, spans_path)
        except Exception as exc:  # a program error in-process: report it, still print a result
            traceback.print_exc()
            m.failures.append(f"in-process replay: {type(exc).__name__}: {exc}")
    layer["cli.startup_s"] = startup
    calib = layer["host.calib_s"] = (calib_start + calibrate()) / 2

    failed = len(m.failures)
    print(f"workload {args.workload}  seed {args.seed}  passes {m.passes}  "
          f"jobs {m.attempted}  failed {failed}  failed_ratio {failed / max(m.attempted, 1):.3f}  "
          f"stored digests checked {len(checker.triangle_digests.keys() & checker.stored.keys())}")
    for reason in m.failures:
        print(f"  FAIL {reason}")
    print(f"  host.calib_s {calib:.4f}  cli.startup_s {startup:.4f}")
    for key, d in checker.triangle_digests.items():
        print(f"  triangles {key} digest {d}")
    for job in jobs:
        if job.index in m.job_walls:
            walls = m.job_walls[job.index]
            print(f"  job {job.index:2d} median {statistics.median(walls):8.4f} s "
                  f"(min {min(walls):.4f}, max {max(walls):.4f}, {len(walls)} runs)  "
                  f"{' '.join(job.argv[:1] + job.argv[2:])}  n={job.sites}")
    shown = {k: (v, END_TO_END[k]) for k, v in e2e.items()}
    if args.trace:
        shown |= {k: (layer[k], PER_LAYER[k]) for k in PER_LAYER}
    for name, (value, unit) in shown.items():
        print(f"  {name:42s} {value:14.4f} {unit}")
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in shown.items()
               if (name in PER_LAYER) == bool(args.trace)}
    print(json.dumps({"correct": failed == 0, "attempted": m.attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
