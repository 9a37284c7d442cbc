"""posetcode benchmark: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload decompose-sweep --seed 0 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from
its ``src`` directory.  With ``--trace 0`` the last line of standard
output is a JSON object carrying the end-to-end metrics; with
``--trace 1`` it carries the per-layer metrics of a traced replay.
Lines before it report the correctness result, the failure ratio and
how each percentile was taken.  Workloads, seeds and the layer map are
described in perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import resource
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

DEFAULT_SEED = 0
SETUP_MODULES = ("posetcode", "posetcode.randgen")  # imported inside the timed set-up
SETUP_MIN_REPS = 3  # set-ups per run: at least this many,
SETUP_MAX_REPS = 15  # and more, up to this many,
SETUP_BUDGET_S = 2.0  # while their total stays under this
MAX_SAMPLES_PER_OP = 15  # per-op latency samples kept for the medians

E2E = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("peak_rss_mib", "MiB"),
    ("class1_ops_per_s", "1/s"),
    ("class2_ops_per_s", "1/s"),
    ("class3_ops_per_s", "1/s"),
)

LAYERS = (
    ("poset.ideal_mask.calls", "count"),
    ("poset.upper_neighbor.self_s", "s"),
    ("poset.lower_neighbor.self_s", "s"),
    ("poset.from_relations.self_s", "s"),
    ("linear.row_reduce_inverse.calls", "count"),
    ("linear.row_reduce_inverse.self_s", "s"),
    ("linear.Matrix.rank.calls", "count"),
    ("linear.Matrix.rank.self_s", "s"),
    ("linear.p_weight.calls", "count"),
    ("linear.p_weight.self_s", "s"),
    ("linear.invert_matrix.self_s", "s"),
    ("linear.Vector.created_per_decode.full", "count"),
    ("linear.Vector.created_per_decode.leveled1", "count"),
    ("linear.Vector.created_per_decode.leveled2", "count"),
    ("linear.Code.codewords.self_s", "s"),
    ("decomp.canonical_form.calls", "count"),
    ("decomp.canonical_form.self_s", "s"),
    ("decomp.canonical_form.sparse.self_s", "s"),
    ("decomp.canonical_form.structured.self_s", "s"),
    ("decomp.canonical_form.calls_per_canonicalize", "count"),
    ("decomp.components_from_matrix.self_s", "s"),
    ("decode.build_table.self_s", "s"),
    ("decode.build_table.vectors", "count"),
    ("decode.build_table.entries", "count"),
    ("decode.build_plan_for_code.self_s", "s"),
    ("decode.plan.groups", "count"),
    ("decode.plan.stored_entries", "count"),
    ("decode.decode_full.p50_us", "us"),
    ("decode.decode_leveled_alg1.p50_us", "us"),
    ("decode.decode_leveled_alg2.p50_us", "us"),
    ("decode.leveled1.optimal_ratio", "ratio"),
    ("decode.leveled2.optimal_ratio", "ratio"),
    ("decode.leveled2.guaranteed_ratio", "ratio"),
    ("radius.packing_radius_exact.calls", "count"),
    ("radius.packing_radius_exact.self_s", "s"),
    ("radius.packing_radius_exact.q2.self_s", "s"),
    ("radius.packing_radius_exact.q3.self_s", "s"),
    ("radius.packing_radius_exact.points", "count"),
    ("radius.packing_radius_bounds.self_s", "s"),
    ("files.load_poset.self_s", "s"),
    ("files.load_code.self_s", "s"),
    ("files.load_vectors.self_s", "s"),
    ("cli.import_s", "s"),
    ("cli.interpreter_s", "s"),
) + tuple((f"cli.{cmd}.self_s", "s") for cmd in tracing.CLI_COMMANDS) + (
    ("trace.overhead_ratio", "ratio"),
)


def reference_kernel() -> None:
    """Fixed interpreter work of the library's kind that calls no
    posetcode code: Gauss-Jordan elimination of fixed 12 x 24 matrices
    over GF(2) and GF(3), on lists of ints.  Under load from other
    tenants it slows down as the library's ops do; a loop over small
    dicts and tuples slowed down more, by about a quarter."""
    for _ in range(3):
        for p in (2, 3):
            m = [[(i * 7 + j * 5 + i * j * j) % p for j in range(24)] for i in range(12)]
            r = 0
            for c in range(24):
                pivot = next((i for i in range(r, 12) if m[i][c]), None)
                if pivot is None:
                    continue
                m[r], m[pivot] = m[pivot], m[r]
                inv = pow(m[r][c], p - 2, p)
                m[r] = [x * inv % p for x in m[r]]
                for i in range(12):
                    if i != r and m[i][c]:
                        f = m[i][c]
                        m[i] = [(a - f * b) % p for a, b in zip(m[i], m[r])]
                r += 1
                if r == 12:
                    break


def start_interpreter(code: str = "pass", *options: str) -> None:
    """A child interpreter that can import the package."""
    subprocess.run([sys.executable, *options, "-c", code], cwd=ROOT,
                   env=workloads.package_env(ROOT), check=True, timeout=60)


def start_bare_interpreter() -> None:
    """The reference for ops that are child processes: an interpreter
    start without the `site` import, which tracks a child op's speed as
    well as a full start at a fifth of its cost."""
    start_interpreter("pass", "-S")


class Calibration:
    """Speed of this machine around each op, from a reference timed
    between ops.

    On a shared host the same work runs up to 1.7x slower for seconds
    at a time, which moves every timing in that stretch together.  Each
    op's time is divided by `local()`, the median of the latest
    `window` reference samples over the reference's nominal time, so
    reported times are seconds on a machine that runs the reference in
    its nominal time.

    A bracketing calibration instead samples the reference once between
    every two ops, and an op's speed is the mean of the samples just
    before and just after it.
    """

    def __init__(self, reference, nominal_s: float, every_s: float, window: int, reps: int,
                 timer=time.perf_counter, bracket: bool = False):
        self.reference = reference
        self.timer = timer  # the clock that the ops are timed with
        self.bracket = bracket
        self.nominal_s = nominal_s
        self.every_s = every_s  # sampling interval between ops
        self.window = window
        self.reps = reps  # samples per sampling point
        self.samples: list[float] = []
        self.last = 0.0

    def sample(self, reps: int | None = None) -> None:
        timer = self.timer
        for _ in range(self.reps if reps is None else reps):
            t0 = timer()
            self.reference()
            self.samples.append(timer() - t0)
        self.last = time.perf_counter()

    def maybe_sample(self, now: float) -> None:
        if now - self.last >= self.every_s:
            self.sample()

    def local(self) -> float:
        return statistics.median(self.samples[-self.window:]) / self.nominal_s

    def bracketed(self) -> float:
        return (self.samples[-2] + self.samples[-1]) / (2 * self.nominal_s)

    def overall(self, since: int = 0) -> float:
        return statistics.median(self.samples[since:]) / self.nominal_s


def kernel_calibration() -> Calibration:
    """About 2 ms of kernel every 50 ms; the local speed spans ~0.25 s."""
    return Calibration(reference_kernel, 1e-3, 0.05, 10, 2)


def children_cpu_s() -> float:
    """CPU time (user + system) of the waited-for child processes.

    A child op is timed by this clock, not by the wall: on a shared
    host a child's wall time also counts the time it waits for a CPU,
    which varies far more between runs than the work it does."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def interpreter_calibration() -> Calibration:
    """One bare interpreter start between every two ops, timed in child
    CPU time; each op is bracketed by two of them.  In-process work
    tracks a child's speed poorly: the child may run on the other CPU,
    and spawning has costs of its own.  The speed moves within a
    second, so a wider window tracks it worse."""
    return Calibration(start_bare_interpreter, 0.015, 0.0, 1, 1, timer=children_cpu_s,
                       bracket=True)


class OpDeadlineExceeded(Exception):
    """An op ran past the workload's per-op safety deadline."""


def _on_alarm(signum, frame):
    raise OpDeadlineExceeded()


@dataclass
class Measured:
    """Per-op latency samples and per-class totals of one measurement.

    Times are normalized by the calibration when there is one; the
    `raw_` fields keep them as measured."""

    samples: dict[str, list[float]] = field(default_factory=dict)
    raw_samples: dict[str, list[float]] = field(default_factory=dict)
    op_class: dict[str, int] = field(default_factory=dict)
    class_time: list[float] = field(default_factory=lambda: [0.0, 0.0, 0.0])
    raw_class_time: list[float] = field(default_factory=lambda: [0.0, 0.0, 0.0])
    class_ops: list[int] = field(default_factory=lambda: [0, 0, 0])
    tag_ops: Counter = field(default_factory=Counter)
    attempted: int = 0
    failed: int = 0
    failures: Counter = field(default_factory=Counter)
    passes: int = 0

    @property
    def ops(self) -> int:
        return sum(self.class_ops)

    def ops_per_s(self, cls: int | None = None, raw: bool = False) -> float:
        times = self.raw_class_time if raw else self.class_time
        ops = self.ops if cls is None else self.class_ops[cls]
        busy = sum(times) if cls is None else times[cls]
        return ops / busy if busy else 0.0

    def medians(self, cls: int | None = None, raw: bool = False) -> list[float]:
        samples = self.raw_samples if raw else self.samples
        return sorted(
            statistics.median(v)
            for key, v in samples.items()
            if cls is None or self.op_class[key] == cls
        )

    def record(self, op, dt: float, speed: float) -> None:
        samples = self.samples.setdefault(op.key, [])
        if len(samples) < MAX_SAMPLES_PER_OP:
            samples.append(dt / speed)
            self.raw_samples.setdefault(op.key, []).append(dt)
        self.op_class[op.key] = op.cls
        self.class_time[op.cls] += dt / speed
        self.raw_class_time[op.cls] += dt
        self.class_ops[op.cls] += 1
        self.tag_ops[op.tag] += 1


class Checker:
    """Checks every op's output: the workload's own check on the first
    execution of each op, the recorded digest where one exists, and
    equality with the first execution on every later one."""

    def __init__(self, recorded: dict[str, str], seed: int):
        self.recorded = recorded
        self.seed = seed
        self.first: dict[str, str] = {}
        self.fresh: dict[str, str] = {}  # digests in recorded form, for recording

    def verify(self, op, args, out) -> None:
        digest = op.digest(out)
        seen = self.first.get(op.key)
        if seen is not None:
            if digest != seen:
                raise workloads.CheckFailed(f"{op.key}: output differs from its first execution")
            return
        facts = op.check(args, out)
        recorded_form = workloads.digest_text(f"{digest}|{facts}") if facts else digest
        key = self.record_key(op)
        want = self.recorded.get(key)
        if want is not None and want != recorded_form:
            raise workloads.CheckFailed(
                f"{op.key}: output digest {recorded_form} != recorded {want}"
            )
        if want is None and (self.seed == DEFAULT_SEED or not op.seed_bound) and self.recorded:
            raise workloads.CheckFailed(f"{op.key}: no recorded digest")
        self.first[op.key] = digest
        self.fresh[key] = recorded_form

    def record_key(self, op) -> str:
        return f"{op.key}@{self.seed}" if op.seed_bound else op.key


def measure(ops, checker: Checker, seconds: float, deadline: float, tracer=None,
            max_passes: int | None = None, calibration: Calibration | None = None,
            whole_passes: bool = False) -> Measured:
    """Closed loop, one client: whole passes over `ops` until `seconds`
    have elapsed (always at least one pass).  Only the call itself is
    timed; input preparation, the deadline alarm and the checks sit
    outside the timer.  With a calibration, each op's time is divided by
    the local speed, and the call is timed with the calibration's clock.
    With `whole_passes` the time is checked only between passes, so
    every op is timed equally often.
    """
    m = Measured()
    clock = time.perf_counter
    timer = calibration.timer if calibration is not None else clock
    stop_at = clock() + seconds
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    try:
        if calibration is not None and calibration.bracket:
            calibration.sample()
        while max_passes is None or m.passes < max_passes:
            if whole_passes and m.passes and clock() >= stop_at:
                return m
            for op in ops:
                now = clock()
                if m.passes and not whole_passes and now >= stop_at:
                    return m
                if calibration is not None and not calibration.bracket:
                    calibration.maybe_sample(now)
                _run_one(op, m, checker, deadline, tracer, timer, calibration)
            m.passes += 1
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return m


def _run_one(op, m: Measured, checker: Checker, deadline: float, tracer, clock,
             calibration: Calibration | None) -> None:
    m.attempted += 1
    try:
        args = op.prepare()
        signal.setitimer(signal.ITIMER_REAL, deadline)
        try:
            if tracer is not None:
                tracer.tag = op.tag
                tracer.active = True
            t0 = clock()
            out = op.call(args)
            t1 = clock()
        finally:
            if tracer is not None:
                tracer.active = False
                tracer.tag = ""
            signal.setitimer(signal.ITIMER_REAL, 0)
        speed = 1.0
        if calibration is not None:
            if calibration.bracket:
                calibration.sample()
                speed = calibration.bracketed()
            else:
                speed = calibration.local()
        checker.verify(op, args, out)
    except Exception as exc:  # every failure is counted, none is skipped
        m.failed += 1
        m.failures[f"{type(exc).__name__}: {exc}"[:160]] += 1
        return
    m.record(op, t1 - t0, speed)


def _purge_package() -> None:
    for name in [n for n in sys.modules if n == "posetcode" or n.startswith("posetcode.")]:
        del sys.modules[name]


def timed_setup(wl, seed: int, scale: str, reps: int, tracer=None, in_process=False,
                calibration: Calibration | None = None, budget_s: float = 0.0):
    """Import the package and build the workload's inputs from a clean
    module state, `reps` times and then again while the total stays
    under `budget_s`.  Returns every time (normalized by the kernel
    samples of the whole set-up phase when there is a calibration; a
    long set-up outlasts the local window), every time as measured,
    and the last set-up."""
    raw_times, state, pc = [], None, None
    first_sample = len(calibration.samples) if calibration is not None else 0
    modules = SETUP_MODULES + (("posetcode.files", "posetcode.cli") if in_process else ())
    while len(raw_times) < reps or (sum(raw_times) < budget_s and len(raw_times) < SETUP_MAX_REPS):
        if state is not None:
            state.close()
            state = None
        _purge_package()
        gc.collect()
        if calibration is not None:
            calibration.sample(5)
        t0 = time.perf_counter()
        for name in modules:
            importlib.import_module(name)
        pc = sys.modules["posetcode"]
        if tracer is not None:
            tracer.install()
            tracer.active = True
        try:
            state = workloads.setup(wl.name, pc, seed, scale, ROOT, in_process)
        finally:
            if tracer is not None:
                tracer.active = False
        raw_times.append(time.perf_counter() - t0)
        if calibration is not None:
            calibration.sample(5)  # with the five before, they bracket the set-up
    speed = 1.0
    if calibration is not None:
        speed = calibration.overall(since=first_sample)
    return [t / speed for t in raw_times], raw_times, state, pc


def harrell_davis(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile of sorted `values`: a
    beta-weighted mean of the order statistics centred on rank p*n.
    Unlike a single order statistic, it does not jump when per-op
    times near the cut trade places across a gap."""
    n = len(values)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    k = -(-20000 // n)  # midpoint-rule cells per order statistic
    logs = [(a - 1) * math.log(t) + (b - 1) * math.log1p(-t)
            for t in ((j + 0.5) / (n * k) for j in range(n * k))]
    top = max(logs)
    dens = [math.exp(x - top) for x in logs]
    total = sum(dens)
    return sum(v * sum(dens[i * k:(i + 1) * k]) for i, v in enumerate(values)) / total


def tail(values: list[float]) -> tuple[float, float]:
    """Value at the highest percentile with at least ten samples beyond
    it, by the Harrell-Davis estimate, and that percentile; the maximum
    when there are too few."""
    n = len(values)
    if n <= 10:
        return values[-1], 100.0
    p = (n - 10) / n
    return harrell_davis(values, p), 100.0 * p


def _rss_mib(who) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def _fresh_interpreter_s(code: str, runs: int = 5) -> float:
    times = []
    for _ in range(runs):
        t0 = time.perf_counter()
        start_interpreter(code)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def end_to_end(wl, setup_times, raw_setup_times, m: Measured,
               calibration: Calibration) -> tuple[dict, list[str]]:
    """The end-to-end metrics; `calibration` is the one the ops used."""
    rss = _rss_mib(resource.RUSAGE_CHILDREN if wl.in_child else resource.RUSAGE_SELF)

    def values(raw: bool) -> dict[str, float]:
        medians = m.medians(raw=raw)
        out = {
            "setup_s": statistics.median(raw_setup_times if raw else setup_times),
            "ops_per_s": m.ops_per_s(raw=raw),
            "op_p50_ms": 1e3 * statistics.median(medians) if medians else 0.0,
            "op_tail_ms": 1e3 * tail(medians)[0] if medians else 0.0,
            "peak_rss_mib": rss,
        }
        for cls in range(3):
            out[f"class{cls + 1}_ops_per_s"] = m.ops_per_s(cls, raw=raw)
        return out

    normalized, measured = values(False), values(True)
    medians = m.medians()
    pct = tail(medians)[1] if medians else 0.0
    speeds = [s / calibration.nominal_s for s in calibration.samples]
    notes = [
        f"speed factor median {calibration.overall():.4f} (range {min(speeds):.3f}-"
        f"{max(speeds):.3f}) over {len(speeds)} samples of {calibration.reference.__name__}",
        "as measured: " + ", ".join(f"{name} {measured[name]:.6g}" for name, _ in E2E),
        f"op_tail_ms is p{pct:.1f} (Harrell-Davis) of {len(medians)} per-op medians "
        f"({min(10, len(medians))} beyond it); {m.passes} full passes",
        "set-up times (s, as measured): " + ", ".join(f"{t:.4f}" for t in raw_setup_times),
        "classes: "
        + "; ".join(
            f"class{i + 1} = {name} ({m.class_ops[i]} ops)" for i, name in enumerate(wl.classes)
        ),
        f"peak_rss_mib is the peak of {'the op subprocesses' if wl.in_child else 'this process'}",
    ]
    return normalized, notes


def per_layer(wl, state, tracer, untraced: Measured, traced: Measured, extra: dict) -> tuple[dict, list[str]]:
    agg, counts = tracer.summary()

    def calls(name):
        return agg.get(name, (0, 0.0))[0]

    def self_s(name):
        return agg.get(name, (0, 0.0))[1]

    v: dict[str, float] = dict.fromkeys((name for name, _ in LAYERS), 0)
    for name, _ in LAYERS:
        base, _, stat = name.rpartition(".")
        if stat == "self_s":
            v[name] = self_s(base)
        elif stat == "calls":
            v[name] = calls(base)
    # splits by op class (tags) and by field (spans split at call time)
    v["decomp.canonical_form.sparse.self_s"] = self_s("decomp.canonical_form@sparse")
    v["decomp.canonical_form.structured.self_s"] = self_s("decomp.canonical_form@structured")
    canon_cmds = traced.tag_ops["canonicalize"]
    v["decomp.canonical_form.calls_per_canonicalize"] = (
        calls("decomp.canonical_form@canonicalize") / canon_cmds if canon_cmds else 0
    )
    v["poset.ideal_mask.calls"] = counts.get("poset.ideal_mask", 0)
    v["linear.p_weight.calls"] = counts.get("linear.p_weight", 0)
    v["linear.p_weight.self_s"] = tracer.timed.get("linear.p_weight", 0.0)
    for dec in workloads.DECODERS:
        ops = traced.tag_ops[dec]
        created = counts.get(f"linear.Vector.created@{dec}", 0)
        v[f"linear.Vector.created_per_decode.{dec}"] = created / ops if ops else 0
    v["radius.packing_radius_exact.points"] = counts.get("radius.packing_radius_exact.points", 0)
    for cls, name in enumerate(("decode_full", "decode_leveled_alg1", "decode_leveled_alg2")):
        meds = untraced.medians(cls) if wl.name == "decode-stream" else []
        v[f"decode.{name}.p50_us"] = 1e6 * statistics.median(meds) if meds else 0.0
    stats = state.stats
    for dec, stat in (("leveled1", "optimal"), ("leveled2", "optimal"), ("leveled2", "guaranteed")):
        checked = stats.get(f"{dec}.checked", 0)
        v[f"decode.{dec}.{stat}_ratio"] = stats.get(f"{dec}.{stat}", 0) / checked if checked else 0.0
    v.update(state.layers)
    v.update(extra)
    base = untraced.ops_per_s()
    v["trace.overhead_ratio"] = traced.ops_per_s() / base if base else 0.0
    absent = [name for name, _ in LAYERS if not v.get(name)]
    notes = [
        f"traced replay of {traced.ops} ops against {untraced.ops} untraced; "
        f"tracing overhead (traced / untraced ops_per_s) = {v['trace.overhead_ratio']:.3f}",
        "self times sum the traced set-up and the traced replay",
    ]
    if absent:
        notes.append(
            "zero because the layer does not run, or is not measured, on this workload: "
            + ", ".join(absent)
        )
    return v, notes


def run(args) -> int:
    src = ROOT / "src" / "posetcode" / "__init__.py"
    if not src.is_file():
        print(f"error: no posetcode source under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    wl = workloads.WORKLOADS[args.workload]
    digests_path = HERE / "digests.json"
    recorded = json.loads(digests_path.read_text()).get(wl.name, {}) if digests_path.is_file() else {}
    checker = Checker(recorded, args.seed)
    notes: list[str] = []
    if not args.trace:
        # Set-up runs in this process on every workload, so the kernel is its reference.
        calibration = kernel_calibration()
        setup_times, raw_setup_times, state, _ = timed_setup(
            wl, args.seed, args.scale, SETUP_MIN_REPS, calibration=calibration,
            budget_s=SETUP_BUDGET_S,
        )
        if wl.in_child:
            calibration = interpreter_calibration()
        try:
            gc.collect()
            m = measure(state.ops, checker, args.seconds, wl.deadline_s, calibration=calibration,
                        whole_passes=wl.in_child)
        finally:
            state.close()
        metrics, notes = end_to_end(wl, setup_times, raw_setup_times, m, calibration)
        units = dict(E2E)
    else:
        tracer = tracing.Tracer()
        in_process = wl.in_child  # the traced replay runs the CLI in this process
        _, _, state, _ = timed_setup(wl, args.seed, args.scale, 1, tracer, in_process)
        try:
            prefix = state.ops[: state.trace_ops]
            tracer.uninstall()
            gc.collect()
            untraced = measure(prefix, checker, 0.0, wl.deadline_s, max_passes=1)
            tracer.install()
            gc.collect()
            m = measure(prefix, checker, 0.0, wl.deadline_s, tracer, max_passes=1)
            tracer.uninstall()
        finally:
            state.close()
        extra = {}
        if in_process:
            extra["cli.import_s"] = _fresh_interpreter_s("import posetcode.cli")
            extra["cli.interpreter_s"] = _fresh_interpreter_s("pass")
        metrics, notes = per_layer(wl, state, tracer, untraced, m, extra)
        m.attempted += untraced.attempted
        m.failed += untraced.failed
        m.failures.update(untraced.failures)
        units = dict(LAYERS)
    correct = m.failed == 0
    print(f"workload {wl.name}, seed {args.seed}, trace {args.trace}, scale {args.scale}")
    print(f"correct: {correct}; attempted {m.attempted}, failed {m.failed}, "
          f"failed_ratio {m.failed / m.attempted if m.attempted else 0.0:.6f} (ratio)")
    for reason, count in m.failures.most_common(5):
        print(f"  failure x{count}: {reason}")
    for line in notes:
        print(line)
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    result = {
        "correct": correct,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny pools, for the smoke check")
    return parser.parse_args(argv)


if __name__ == "__main__":
    sys.exit(run(parse_args()))
