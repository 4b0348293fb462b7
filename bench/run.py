"""Benchmark of the enscribe package: four seeded closed-loop workloads.

Run from the repository root:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --smoke

Workloads (see workloads.py for the inputs and the checks):
    search-feasible    16-start feasibility searches on feasible inputs
    search-infeasible  64-start searches that must run every start
    procedure-clone    build_procedure + verify_procedure + the cloning machine
    screen             CLI classify/qrange/solve plus texts.equivalent

Each run is a closed loop: one caller, one thread, and the next op starts only
after the previous one returns. The thread variables of the BLAS libraries are
pinned to 1 before numpy is imported. Inputs come from the seed; the loop runs
whole rounds of the workload's input mix until --seconds have passed. Every
op's output is checked outside its timed region; a failed check, an exception
or an inconclusive search counts as a failed op.

With --trace 0 the run prints the end-to-end metrics:
    setup_s      import of enscribe + building the inputs + one warm-up op;
                 the median over this process and two fresh child processes
    op_p50_s     median time per op
    op_tail_s    the workload's fixed tail percentile of the op time
    ops_per_s    ops completed per second of op time, each op counted at
                 the median time of its input kind
    peak_rss_mb  peak resident memory of the workload process
    failed_op_ratio is printed with its base; the final JSON line carries it
    as "failed" over "attempted".

Op times are wall times. On the search and screen workloads, whose ops are
bound by Python execution, each op's wall time is rescaled to a nominal
machine speed measured by a fixed kernel that runs between ops (Speedometer):
on a shared host the speed drifts by about 25 % over tens of seconds, which
otherwise dominates the run-to-run spread. The plain wall-time figures are
printed beside the rescaled ones and kept in the result file.

With --trace 1 the run alternates untraced and traced rounds for --seconds,
then probes single library calls on one round of inputs, and prints the
per-layer metrics: busy_s and self_s are wall seconds per workload op, calls
are calls per op, failed is a count over the run, and verification.* are wall
seconds per acceptance check. Spans are kept in memory and written, with the result,
to .bench_out/ at the end.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.
"""

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
POOL_ROUNDS = 4  # distinct rounds of inputs drawn per seed, cycled by the loop
SETUP_CHILDREN = 2  # fresh processes that repeat the set-up for setup_s
# a traced run stops timing acceptance checks once this long after it started,
# so that it still ends well inside three minutes on a slower machine
VERIFICATION_DEADLINE_S = 110.0
# A fixed kernel that does not touch enscribe is timed between ops; each op's
# wall time is rescaled by REF_NOMINAL_S over the kernel's current time.
REF_NOMINAL_S = 2e-3
REF_EVERY_S = 0.05  # the kernel runs before an op when this long has passed since it last ran
SPAN_SLACK = 0.05  # run-to-run noise allowed when comparing span sums to op times
# the three acceptance checks that run the numeric search; the smoke mode skips them
SLOW_CHECKS = ("no-cloning-boundary", "two-text-q-range", "eigen-sign-screen")

MODULES = ("search", "certificates", "engine", "texts", "linalg", "procedures", "machine",
           "files", "cli", "verification")
FUNCTIONS = (
    "search.feasibility_search", "certificates.certificate", "certificates.entangled_input",
    "engine.illegibility_screen", "engine.closed_form", "texts.classify",
    "linalg.complete_orthonormal", "linalg.unitary_from_correspondence", "linalg.swap_operator",
    "procedures.build_procedure", "procedures.verify_procedure", "machine.run_clone",
    "machine.failure_state_symmetry_check", "files.load_text", "cli.main.classify",
    "cli.main.qrange", "cli.main.solve",
)
CHECK_NAMES = ("z0-threshold", "qubit-example", "no-cloning-boundary", "two-text-q-range",
               "uniform-q-range", "eigen-sign-screen", "q-minus-one-rank", "cloning-machine",
               "structural-properties")

# Which end-to-end metric each layer metric should move, and on which workload.
LAYER_MAP = {
    "search.feasibility_search.busy_s, search.starts_run, search.evaluations_reported":
        "op_p50_s and ops_per_s on search-feasible and search-infeasible; flat on procedure-clone and screen "
        "(evaluations_reported is the program's own estimate, polish.nfev * (n + 1), not a count)",
    "search.winner_start_index_mean, search.feasible_ratio":
        "op_p50_s on search-feasible only; they bound what an early stop can save",
    "search.floor_min":
        "correctness margin on search-infeasible (must stay > 1e-4); not a timing",
    "linalg.complete_orthonormal.busy_s, linalg.unitary_from_correspondence.busy_s, linalg.swap_operator.busy_s":
        "op_tail_s and ops_per_s on procedure-clone (probed directly on build_procedure's families)",
    "procedures.build_procedure.busy_s, procedures.verify_procedure.busy_s":
        "op_tail_s and ops_per_s on procedure-clone",
    "machine.run_clone.busy_s, machine.failure_state_symmetry_check.busy_s":
        "ops_per_s on procedure-clone",
    "machine.controlled_swap.bytes, procedures.unitary.bytes":
        "peak_rss_mb on procedure-clone (computed from array sizes)",
    "texts.equivalent.match_busy_s, texts.equivalent.nomatch_busy_s":
        "op_tail_s on screen",
    "texts.classify.busy_s, engine.illegibility_screen.busy_s, engine.closed_form.busy_s, "
    "files.load_text.busy_s, cli.main.<command>.busy_s, cli.exit_mismatch":
        "op_p50_s on screen",
    "certificates.certificate.busy_s, certificates.entangled_input.busy_s":
        "a small share on every workload",
}


def per_layer_names() -> list:
    names = [f"{m}.{k}" for m in MODULES for k in ("busy_s", "self_s", "calls", "failed")]
    names += [f"{f}.{k}" for f in FUNCTIONS for k in ("busy_s", "calls", "failed")]
    names += ["search.start.busy_s", "search.starts_run", "search.evaluations_reported",
              "search.winner_start_index_mean", "search.feasible_ratio", "search.floor_min",
              "texts.equivalent.match_busy_s", "texts.equivalent.nomatch_busy_s",
              "texts.equivalent.calls", "texts.equivalent.failed",
              "machine.controlled_swap.bytes", "procedures.unitary.bytes", "cli.exit_mismatch"]
    names += [f"verification.{c}.busy_s" for c in CHECK_NAMES]
    names += ["trace.ops", "trace.untraced_ops_per_s", "trace.traced_ops_per_s", "trace.overhead",
              "trace.span_gap", "trace.span_check", "trace.chosen_layer_share"]
    return names


def unit_of(name: str) -> str:
    tail = name.rsplit(".", 1)[-1]
    if tail.endswith("_s") and not name.endswith("ops_per_s"):
        return "s"
    if name.endswith("ops_per_s"):
        return "1/s"
    if tail == "bytes":
        return "bytes"
    if tail.endswith("_mb"):
        return "MB"
    if tail in ("feasible_ratio", "overhead", "span_gap", "chosen_layer_share"):
        return "ratio"
    if tail == "floor_min":
        return "residual"
    if tail == "winner_start_index_mean":
        return "index"
    if tail == "span_check":
        return "bool"
    return "count"


def load_package():
    """Import enscribe from this checkout's src/ (never from anywhere else)."""
    pkg = ROOT / "src" / "enscribe"
    if not (pkg / "__init__.py").is_file():
        sys.exit(f"error: {pkg} not found; run the benchmark from a checkout of the repository")
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    import enscribe

    if Path(enscribe.__file__).resolve().parent != pkg.resolve():
        sys.exit(f"error: imported enscribe from {enscribe.__file__}, expected {pkg}")
    import workloads

    return workloads


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "enscribe").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": git_sha(),
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "platform": platform.platform(),
    }


def git_sha():
    """HEAD of the checkout when it is a git work tree, else None (read, no git process)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


class Tally:
    """Attempted and failed ops, with their failure messages and per-op facts."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list = []
        self.check_failed: dict = defaultdict(int)
        self.facts: list = []

    def record(self, wl, item, out, err, traced=False) -> None:
        self.attempted += 1
        if err is not None:
            failures = [f"{item['kind']}: raised {type(err).__name__}: {err}"]
            if len(self.messages) < 5:
                failures.append("".join(traceback.format_exception(err)))
        else:
            failures = wl.check(item, out)
            if traced:
                self.facts.append(wl.facts(item, out))
        if failures:
            self.failed += 1
            self.messages.extend(failures)
            if traced and err is None:
                for msg in failures:
                    self.check_failed[msg.split(":", 1)[0]] += 1


class Speedometer:
    """Follows the machine's speed with a fixed kernel that does not touch enscribe.

    On a shared host the same op can take 25 % longer for tens of seconds when a
    neighbour is busy, which moves every timing of a run alike. The kernel mixes
    Python complex arithmetic and dict updates, small numpy products with a
    40 x 40 eigh, and matrix-vector products over a 4 MB matrix; without the
    last part it reacted more strongly to the drift than the search ops do.
    ``scale`` turns a wall time into seconds at the nominal speed, where the
    kernel takes REF_NOMINAL_S.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(2024)
        self._np = np
        self._small = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        self._big = rng.standard_normal((512, 512)) + 1j * rng.standard_normal((512, 512))
        self._vec = self._big[:, 0].copy()
        self._herm = self._big[:40, :40] + self._big[:40, :40].conj().T
        self.samples: list = []
        self._last = float("-inf")

    def _kernel(self) -> float:
        np = self._np
        acc, table = 0.0, {}
        for i in range(1200):
            z = complex(i, 1.0) * (0.5 - 0.25j)
            acc += abs(z) ** 0.5
            table[i % 61] = z
        for _ in range(25):
            acc += float(np.linalg.norm(self._small @ self._small))
        acc += float(np.linalg.eigh(self._herm)[0][0])
        for _ in range(3):
            acc += abs(complex(np.vdot(self._vec, self._big @ self._vec)))
        return acc

    def sample(self) -> None:
        now = time.perf_counter()
        if now - self._last >= REF_EVERY_S:
            self._kernel()
            self._last = time.perf_counter()
            self.samples.append(self._last - now)

    def scale(self) -> float:
        return REF_NOMINAL_S / statistics.median(self.samples[-3:])


def timed_op(wl, item, call):
    start = time.perf_counter()
    try:
        out, err = wl.op(item, call), None
    except Exception as exc:  # an op that raises is a failed op; the loop goes on
        out, err = None, exc
    return time.perf_counter() - start, out, err


def measure(wl, pool, seconds, tally, tracer=None, speed=None) -> dict:
    """Closed loop over whole rounds of the pool until ``seconds`` have passed.

    Returns {traced: (durations, kinds)}. With a tracer, rounds alternate
    between untraced and traced on the same inputs, so that a change of machine
    speed during the run reaches both alike and their difference is the
    tracing overhead. With a speedometer, each op's wall time is also rescaled
    to the nominal machine speed and kept under the key "scaled".
    """
    from spans import direct

    runs = {False: ([], []), True: ([], []), "scaled": []}
    begin = time.perf_counter()
    r = 0
    while True:
        traced = tracer is not None and r % 2 == 1
        durations, kinds = runs[traced]
        call = tracer.call if traced else direct
        if tracer is not None:
            tracer.active = traced
        for item in pool[(r // 2 if tracer is not None else r) % len(pool)]:
            if traced:
                tracer.op_id = len(durations)
            if speed is not None:
                speed.sample()
            dt, out, err = timed_op(wl, item, call)
            if speed is not None:
                runs["scaled"].append(dt * speed.scale())
            durations.append(dt)
            kinds.append(item["kind"])
            tally.record(wl, item, out, err, traced=traced)
        r += 1
        if time.perf_counter() - begin >= seconds and (tracer is None or r % 2 == 0):
            if tracer is not None:
                tracer.active = False
            return runs


def setup(name, seed, tiny):
    """Import, build the inputs, run one warm-up op; returns the set-up time too."""
    start = time.perf_counter()
    workloads = load_package()
    import numpy as np
    from spans import direct

    wl = workloads.WORKLOADS.get(name)
    if wl is None:
        sys.exit(f"error: unknown workload {name!r}; choose from {sorted(workloads.WORKLOADS)}")
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT))
    tally = Tally()
    pool = wl.rounds(np.random.default_rng(seed), 1 if tiny else POOL_ROUNDS, workdir, tiny)
    _, out, err = timed_op(wl, pool[0][0], direct)
    tally.record(wl, pool[0][0], out, err)
    return wl, pool, workdir, tally, time.perf_counter() - start


def child_setup_seconds(name, seed, tiny) -> float:
    cmd = [sys.executable, str(BENCH / "run.py"), "--setup-probe", "--workload", name, "--seed", str(seed)]
    if tiny:
        cmd.append("--tiny")
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed ({proc.returncode}): {proc.stderr[-2000:]}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def kind_medians(durations, kinds) -> dict:
    by_kind = defaultdict(list)
    for d, k in zip(durations, kinds):
        by_kind[k].append(d)
    return {k: {"median_s": statistics.median(v), "n": len(v)} for k, v in sorted(by_kind.items())}


def op_stats(wl, durations, kinds) -> dict:
    import numpy as np

    by_kind = kind_medians(durations, kinds)
    return {
        "op_p50_s": statistics.median(durations),
        "op_tail_s": float(np.percentile(durations, wl.tail_pct)),
        # every op counted at the median time of its kind, so a stall of the
        # machine during a few ops does not move the throughput of the mix
        "ops_per_s": len(durations) / sum(by_kind[k]["median_s"] for k in kinds),
        "by_kind": by_kind,
    }


def end_to_end(wl, runs, setup_samples, speed) -> tuple:
    wall, kinds = runs[False]
    scaled = runs["scaled"] if speed is not None else wall
    stats = op_stats(wl, scaled, kinds)
    raw = op_stats(wl, wall, kinds)
    metrics = {
        "setup_s": statistics.median(setup_samples),
        "op_p50_s": stats["op_p50_s"],
        "op_tail_s": stats["op_tail_s"],
        "ops_per_s": stats["ops_per_s"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    detail = {
        "samples": len(wall),
        "tail_percentile": wl.tail_pct,
        "samples_beyond_tail": sum(d > stats["op_tail_s"] for d in scaled),
        "timed_op_seconds": sum(wall),
        "rescaled": speed is not None,
        "speed_kernel_median_s": statistics.median(speed.samples) if speed is not None else None,
        "wall": {k: v for k, v in raw.items() if k != "by_kind"},
        "wall_ops_completed_per_s": len(wall) / sum(wall),
        "setup_samples_s": setup_samples,
        "by_kind": stats["by_kind"],
        "by_kind_wall": raw["by_kind"],
    }
    return metrics, detail


def hook_search_starts(tracer):
    """Span each optimizer start of feasibility_search; returns the undo, or None."""
    from enscribe import search

    original = getattr(search, "_minimize_start", None)
    if original is None:
        return None

    def start(*args, **kwargs):
        if tracer.active:
            return tracer.call("search.start", original, *args, **kwargs)
        return original(*args, **kwargs)

    search._minimize_start = start
    return lambda: setattr(search, "_minimize_start", original)


def traced_run(wl, pool, seconds, tally, tiny, started):
    from spans import PROBE, VERIFICATION, Tracer

    tracer = Tracer()
    undo = hook_search_starts(tracer)
    try:
        runs = measure(wl, pool, seconds, tally, tracer)
    finally:
        if undo is not None:
            undo()
    untraced, (traced, kinds) = runs[False][0], runs[True]
    tracer.op_id = PROBE
    probe_facts = [wl.probe(item, tracer.call) for item in pool[0]]
    checks = {}
    if wl.runs_verification:
        from enscribe import verification

        tracer.op_id = VERIFICATION
        for check_name, fn in verification.ALL_CHECKS:
            if tiny and check_name in SLOW_CHECKS:
                continue
            if time.perf_counter() - started > VERIFICATION_DEADLINE_S:
                checks[check_name] = "not run: past the run's deadline"
                continue
            tally.attempted += 1
            try:
                passed = tracer.call(f"verification.{check_name}", fn, seed=0).passed
            except Exception as exc:  # a raising check is a failed check; the others still run
                passed = False
                tally.messages.append(f"verification.{check_name}: raised {exc!r}")
            checks[check_name] = passed
            if not passed:
                tally.failed += 1
                tally.check_failed[f"verification.{check_name}"] += 1
    metrics = layer_metrics(wl, tracer, tally, untraced, traced, pool, probe_facts, hook=undo is not None)
    detail = {"untraced_samples": len(untraced), "traced_samples": len(traced), "checks": checks,
              "by_kind_traced": kind_medians(traced, kinds)}
    return metrics, detail, tracer


def layer_metrics(wl, tracer, tally, untraced, traced, pool, probe_facts, hook) -> dict:
    from spans import PROBE, VERIFICATION

    n_ops, n_probe = len(traced), len(pool[0])
    op_names, op_mods = tracer.totals(lambda op: op >= 0)
    pr_names, pr_mods = tracer.totals(lambda op: op == PROBE)
    ver_names, ver_mods = tracer.totals(lambda op: op == VERIFICATION)
    zero = [0.0, 0.0, 0, 0]

    def per_op(op_table, probe_table, key, col):
        return op_table.get(key, zero)[col] / n_ops + probe_table.get(key, zero)[col] / n_probe

    failed_by = tally.check_failed
    m = {}
    for mod in MODULES:
        if mod == "verification":
            row = ver_mods.get(mod, zero)
            m[f"{mod}.busy_s"], m[f"{mod}.self_s"], m[f"{mod}.calls"] = row[0], row[1], row[2]
            m[f"{mod}.failed"] = row[3] + sum(v for k, v in failed_by.items() if k.startswith("verification."))
            continue
        m[f"{mod}.busy_s"] = per_op(op_mods, pr_mods, mod, 0)
        m[f"{mod}.self_s"] = per_op(op_mods, pr_mods, mod, 1)
        m[f"{mod}.calls"] = per_op(op_mods, pr_mods, mod, 2)
        m[f"{mod}.failed"] = (op_mods.get(mod, zero)[3] + pr_mods.get(mod, zero)[3]
                              + sum(v for k, v in failed_by.items() if k.split(".", 1)[0] == mod))
    for fn in FUNCTIONS:
        m[f"{fn}.busy_s"] = per_op(op_names, pr_names, fn, 0)
        m[f"{fn}.calls"] = per_op(op_names, pr_names, fn, 2)
        m[f"{fn}.failed"] = op_names.get(fn, zero)[3] + pr_names.get(fn, zero)[3] + failed_by[fn]

    searches = [f["search"] for f in tally.facts if "search" in f]
    feasible = [s for s in searches if s[0] == "feasible"]
    infeasible = [s for s in searches if s[0] != "feasible"]
    m["search.start.busy_s"] = per_op(op_names, pr_names, "search.start", 0)
    if hook:
        starts = op_names.get("search.start", zero)[2]
        m["search.starts_run"] = starts / len(searches) if searches else 0.0
    else:  # the per-start hook is gone from the package: fall back to the requested count
        m["search.starts_run"] = statistics.mean(s[4] for s in searches) if searches else 0.0
    m["search.evaluations_reported"] = statistics.mean(s[2] for s in searches) if searches else 0.0
    m["search.winner_start_index_mean"] = statistics.mean(s[1] for s in feasible) if feasible else 0.0
    m["search.feasible_ratio"] = len(feasible) / len(searches) if searches else 0.0
    m["search.floor_min"] = min(s[3] for s in infeasible) if infeasible else 0.0

    m["texts.equivalent.match_busy_s"] = per_op(op_names, pr_names, "texts.equivalent.match", 0)
    m["texts.equivalent.nomatch_busy_s"] = per_op(op_names, pr_names, "texts.equivalent.nomatch", 0)
    eq = ("texts.equivalent.match", "texts.equivalent.nomatch")
    m["texts.equivalent.calls"] = sum(per_op(op_names, pr_names, k, 2) for k in eq)
    m["texts.equivalent.failed"] = sum(op_names.get(k, zero)[3] + failed_by[k] for k in eq)
    m["machine.controlled_swap.bytes"] = max((f.get("controlled_swap_bytes", 0) for f in probe_facts), default=0)
    m["procedures.unitary.bytes"] = max((f.get("unitary_bytes", 0) for f in tally.facts), default=0)
    m["cli.exit_mismatch"] = sum(f.get("exit_mismatch", 0) for f in tally.facts)
    for c in CHECK_NAMES:
        m[f"verification.{c}.busy_s"] = ver_names.get(f"verification.{c}", zero)[0]

    top = tracer.top_level_seconds()
    untraced_rate = len(untraced) / sum(untraced)
    traced_rate = n_ops / sum(traced)
    overhead = untraced_rate / traced_rate - 1.0
    span_gap = (sum(top.values()) / n_ops) / statistics.mean(untraced) - 1.0
    chosen = sum(op_mods.get(mod, zero)[0] for mod in wl.chosen)
    m["trace.ops"] = n_ops
    m["trace.untraced_ops_per_s"] = untraced_rate
    m["trace.traced_ops_per_s"] = traced_rate
    m["trace.overhead"] = overhead
    m["trace.span_gap"] = span_gap
    m["trace.span_check"] = int(abs(span_gap) <= abs(overhead) + SPAN_SLACK)
    m["trace.chosen_layer_share"] = chosen / sum(traced)
    return m


def run_workload(name, seed, seconds, trace, tiny=False) -> dict:
    started = time.perf_counter()
    wl, pool, workdir, tally, setup_main = setup(name, seed, tiny)
    try:
        if trace:
            metrics, detail, tracer = traced_run(wl, pool, seconds, tally, tiny, started)
        else:
            speed = Speedometer() if wl.rescale else None
            runs = measure(wl, pool, seconds, tally, speed=speed)
            samples = [setup_main] + [child_setup_seconds(name, seed, tiny) for _ in range(SETUP_CHILDREN)]
            metrics, detail = end_to_end(wl, runs, samples, speed)
            tracer = None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {
        "workload": name, "why": wl.why, "seed": seed, "seconds": seconds, "trace": trace,
        "environment": environment(), "attempted": tally.attempted, "failed": tally.failed,
        "failure_messages": tally.messages[:20], "metrics": metrics, "detail": detail,
        "layer_map": LAYER_MAP,
    }
    stem = OUT / f"{name}-seed{seed}-trace{trace}"
    Path(f"{stem}.json").write_text(json.dumps(result, indent=1, default=str) + "\n")
    if tracer is not None:
        Path(f"{stem}-spans.json").write_text(json.dumps(tracer.dump()) + "\n")
    return result


def report(result) -> None:
    """Human-readable summary; the JSON line follows it."""
    env, d, m = result["environment"], result["detail"], result["metrics"]
    print(f"workload {result['workload']}  seed {result['seed']}  seconds {result['seconds']}  "
          f"trace {result['trace']}")
    print(f"  why: {result['why']}")
    print(f"  env: git {env['git_sha']}  src {env['source_sha256'][:12]}  python {env['python']}  "
          f"numpy {env['numpy']}  scipy {env['scipy']}  blas {env['blas']}  nproc {env['nproc']}  "
          f"threads {env['threads']}")
    ratio = result["failed"] / result["attempted"]
    print(f"  failed_op_ratio {ratio:.4g}  ({result['failed']} of {result['attempted']} attempted)")
    for msg in result["failure_messages"][:5]:
        print(f"  FAILED {msg.splitlines()[0]}")
    if not result["trace"]:
        print(f"  setup_s      {m['setup_s']:.4f} s    (median of {len(d['setup_samples_s'])} set-ups)")
        w = d["wall"]
        if d["rescaled"]:
            print(f"  (op times below are rescaled to the nominal machine speed; the speed kernel's median "
                  f"was {d['speed_kernel_median_s'] * 1e3:.3f} ms against {REF_NOMINAL_S * 1e3:g} ms nominal)")
        print(f"  op_p50_s     {m['op_p50_s']:.6f} s  (n={d['samples']}; wall {w['op_p50_s']:.6f} s)")
        print(f"  op_tail_s    {m['op_tail_s']:.6f} s  (p{d['tail_percentile']:g}, n={d['samples']}, "
              f"{d['samples_beyond_tail']} beyond; wall {w['op_tail_s']:.6f} s)")
        print(f"  ops_per_s    {m['ops_per_s']:.4f} 1/s  (each op at its kind's median time; wall {w['ops_per_s']:.4f}; "
              f"{d['samples']} ops completed in {d['timed_op_seconds']:.2f} s of op wall time)")
        print(f"  peak_rss_mb  {m['peak_rss_mb']:.1f} MB")
        for kind, row in d["by_kind"].items():
            print(f"    {kind:18s} median {row['median_s']:.6f} s  n={row['n']}  "
                  f"(wall {d['by_kind_wall'][kind]['median_s']:.6f} s)")
    else:
        print(f"  tracing overhead {m['trace.overhead']:+.3%}  (untraced {m['trace.untraced_ops_per_s']:.4f} "
              f"vs traced {m['trace.traced_ops_per_s']:.4f} ops/s); span sums vs untraced op time "
              f"{m['trace.span_gap']:+.3%} ({'ok' if m['trace.span_check'] else 'OUTSIDE the overhead'})")
        print(f"  chosen-layer share of op time {m['trace.chosen_layer_share']:.3f}")
        for mod in MODULES:
            per = "" if mod == "verification" else "/op"
            print(f"    {mod:13s} busy {m[mod + '.busy_s']:.6f} s{per}  self {m[mod + '.self_s']:.6f} s{per}  "
                  f"calls {m[mod + '.calls']:.3f}{per}  failed {m[mod + '.failed']}")


def final_line(result) -> str:
    metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in result["metrics"].items()}
    return json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                       "failed": result["failed"], "metrics": metrics})


def smoke() -> int:
    """Tiny inputs on every workload: all metric names emitted, a wrong reference trips the count."""
    from spans import direct

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {0: {x["name"] for x in declared["end_to_end"]}, 1: {x["name"] for x in declared["per_layer"]}}
    assert want[1] == set(per_layer_names()), "BENCHMARK.json per_layer differs from run.py"
    for name in [w["name"] for w in declared["workloads"]]:
        for trace in (0, 1):
            result = run_workload(name, seed=1, seconds=0, trace=trace, tiny=True)
            got = set(result["metrics"])
            assert got == want[trace], f"{name} trace {trace}: metric names differ: {got ^ want[trace]}"
            assert result["failed"] == 0, f"{name} trace {trace}: {result['failure_messages']}"
            if trace:
                import workloads

                for mod in workloads.WORKLOADS[name].chosen:
                    assert result["metrics"][f"{mod}.calls"] > 0, f"{name}: no calls into {mod}"
            print(f"smoke {name} trace {trace}: {len(got)} metrics, {result['attempted']} ops ok")
        wl, pool, workdir, tally, _ = setup(name, seed=1, tiny=True)
        try:
            wrong = Tally()
            for item in pool[0]:
                _, out, err = timed_op(wl, item, direct)
                wrong.record(wl, wl.corrupt(item), out, err)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        assert wrong.failed == wrong.attempted > 0, f"{name}: a wrong reference did not fail every op"
        print(f"smoke {name}: wrong references failed {wrong.failed} of {wrong.attempted} ops")
    print("smoke ok")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="run the self-test on tiny inputs")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.smoke:
        return smoke()
    if args.setup_probe:
        _, _, workdir, _, seconds = setup(args.workload, args.seed, args.tiny)
        shutil.rmtree(workdir, ignore_errors=True)
        print(json.dumps({"setup_s": seconds}))
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    report(result)
    print(final_line(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
