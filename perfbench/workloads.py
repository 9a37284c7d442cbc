"""The four workloads: their inputs, op definitions and output checks.

Instances (posets and codes) come from fixed catalogs, and the run seed
re-presents each one: every generator matrix is multiplied by a seeded
invertible matrix, so the program sees a different generator for the
same code.  Decomposition and radius costs vary between random
instances by orders of magnitude (per-instance coefficient of variation
1.6-3.4 on sparse posets), so a seed-drawn set small enough for one run
would move every metric by tens of percent from seed to seed; holding
the catalog fixed keeps runs comparable while the seed still changes
what the program receives, the received-word streams and the op order.

Every op gets fresh `Poset` and `Code` objects built outside the timer,
so caches inside them (the order-ideal cache) start cold, as they do
for a caller with new inputs.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import importlib
import io
import itertools
import json
import os
import random
import shutil
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

CATALOG = "posetcode-bench-catalog-1"


class CheckFailed(Exception):
    """An op returned an output that fails its correctness check."""


@dataclass
class Op:
    key: str  # stable id: per-instance medians and recorded digests
    cls: int  # 0, 1 or 2: which class<i>_ops_per_s it counts toward
    tag: str  # label the trace splits self time and counts by
    prepare: Callable[[], Any]  # fresh inputs, built outside the timer
    call: Callable[[Any], Any]  # the timed call
    # Raises CheckFailed on a wrong output; may return facts about the
    # output that are costly to derive, folded into its recorded digest.
    check: Callable[[Any, Any], str | None]
    digest: Callable[[Any], str]  # cheap; compared on every execution
    seed_bound: bool  # output depends on the seed, not only on the catalog


@dataclass
class Setup:
    ops: list[Op]
    trace_ops: int  # length of the op prefix the traced run replays
    layers: dict[str, float] = field(default_factory=dict)  # per-layer counts known at setup
    stats: dict[str, float] = field(default_factory=dict)  # filled in by checks
    close: Callable[[], None] = lambda: None


def digest_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def _rows_text(rows) -> str:
    return ";".join(",".join(map(str, r)) for r in rows)


@dataclass(frozen=True)
class Instance:
    q: int
    n: int
    relations: tuple[tuple[int, int], ...]
    rows: tuple[tuple[int, ...], ...]

    def build(self, pc):
        poset = pc.Poset.from_relations(self.n, self.relations)
        code = pc.Code(pc.Matrix(pc.PrimeField(self.q), self.rows, n=self.n))
        return poset, code


def _instance(pc, seed: int, key: str, poset, code) -> Instance:
    """The instance as plain data, its generator re-presented by the seed
    as A @ G for a seeded invertible A: the same code, a new generator."""
    a = pc.randgen.random_invertible(random.Random(f"{seed}/present/{key}"), code.field, code.k)
    return Instance(
        q=code.q, n=code.n, relations=tuple(sorted(poset.relations())), rows=(a @ code.gen).rows
    )


def _cycle_classes(groups: list[list[Op]]) -> list[Op]:
    """Interleave per-class op lists, so any prefix mixes the classes."""
    out = []
    for batch in itertools.zip_longest(*groups):
        out.extend(op for op in batch if op is not None)
    return out


# -- decompose-sweep ------------------------------------------------------

SPARSE_STRATA = [(2, n, d) for n in (12, 14, 16) for d in (0.1, 0.2)] + [
    (3, n, d) for n in (8, 10, 12) for d in (0.1, 0.2)
]
STRUCTURED_KINDS = ("chain", "antichain", "hierarchical", "dense")
DECOMPOSE_SIZES = {
    "full": dict(sparse_per_stratum=3, structured_n=(16, 18, 20), structured_reps=2),
    "tiny": dict(sparse_per_stratum=1, structured_n=(16,), structured_reps=1),
}


def _structured_poset(pc, rng, kind: str, n: int):
    if kind == "chain":
        order = list(range(1, n + 1))
        rng.shuffle(order)
        return pc.Poset.chain(n, order)
    if kind == "antichain":
        return pc.Poset.antichain(n)
    if kind == "hierarchical":
        return pc.randgen.random_hierarchical_poset(rng, n)
    return pc.randgen.random_poset(rng, n, 0.5)


def _decompose_op(pc, key, cls, tag, inst: Instance) -> Op:
    # `is_p_canonical` is returned into the recorded digest rather than
    # required: canonical_form stops on a repeated matrix or keeps a split
    # that a further coset pass would undo, so about 5% of sparse outputs
    # are valid decompositions in reduced form that are not fixpoints.
    def check(args, pd):
        poset, code = args
        try:
            pc.validate_p_decomposition(pd, poset)
        except ValueError as exc:
            raise CheckFailed(f"{key}: {exc}") from None
        if pd.original is not code:
            raise CheckFailed(f"{key}: decomposition of another code")
        gen = pd.decomposition.code.gen
        if not pc.is_generalized_rref(gen):
            raise CheckFailed(f"{key}: canonical matrix is not in reduced form")
        return f"fixpoint={pc.is_p_canonical(gen, poset)}"

    def digest(pd):
        d = pd.decomposition
        return digest_text(
            "|".join(
                (
                    _rows_text(d.code.gen.rows),
                    _rows_text(pd.witness.rows),
                    ",".join(map(str, sorted(d.pointer_support))),
                    repr(list(pc.profile(d))),
                )
            )
        )

    return Op(
        key=key,
        cls=cls,
        tag=tag,
        prepare=lambda: inst.build(pc),
        call=lambda args: pc.maximal_p_decomposition(args[1], args[0]),
        check=check,
        digest=digest,
        seed_bound=False,
    )


def setup_decompose(pc, seed: int, scale: str) -> Setup:
    size = DECOMPOSE_SIZES[scale]
    sparse = {2: [], 3: []}
    for q, n, density in SPARSE_STRATA:
        if scale == "tiny" and n not in (8, 12):
            continue
        fld = pc.PrimeField(q)
        for i in range(size["sparse_per_stratum"]):
            rng = random.Random(f"{CATALOG}/decompose/q{q}/n{n}/d{density}/{i}")
            poset = pc.randgen.random_poset(rng, n, density)
            code = pc.randgen.random_code(rng, fld, n, n // 2)
            key = f"sparse-q{q}-n{n}-d{density}-{i}"
            inst = _instance(pc, seed, key, poset, code)
            sparse[q].append(_decompose_op(pc, key, q - 2, "sparse", inst))
    structured = []
    for q in (2, 3):
        fld = pc.PrimeField(q)
        for n in size["structured_n"]:
            for kind in STRUCTURED_KINDS:
                for i in range(size["structured_reps"]):
                    rng = random.Random(f"{CATALOG}/decompose/{kind}/q{q}/n{n}/{i}")
                    poset = _structured_poset(pc, rng, kind, n)
                    code = pc.randgen.random_code(rng, fld, n, n // 2)
                    key = f"structured-{kind}-q{q}-n{n}-{i}"
                    inst = _instance(pc, seed, key, poset, code)
                    structured.append(_decompose_op(pc, key, 2, "structured", inst))
    ops = sparse[2] + sparse[3] + structured
    random.Random(f"{seed}/decompose/order").shuffle(ops)
    return Setup(ops=ops, trace_ops=len(ops))


# -- radius-bracket -------------------------------------------------------

RADIUS_CLASSES = ((2, 12, 4), (2, 13, 4), (3, 7, 2))
RADIUS_SIZES = {"full": 12, "tiny": 1}
RADIUS_DENSITIES = (0.1, 0.2, 0.3)


def _radius_op(pc, key, cls, inst: Instance) -> Op:
    def call(args):
        poset, code = args
        exact = pc.packing_radius_exact(code, poset)
        bounds = pc.packing_radius_bounds(code, poset, with_exact=False)
        return exact, bounds.lower, bounds.upper

    def check(args, out):
        exact, lower, upper = out
        if not lower <= exact <= upper:
            raise CheckFailed(f"{key}: bracket {lower} <= {exact} <= {upper} fails")

    return Op(
        key=key,
        cls=cls,
        tag=f"q{inst.q}",
        prepare=lambda: inst.build(pc),
        call=call,
        check=check,
        digest=lambda out: digest_text(repr(out)),
        seed_bound=False,
    )


def setup_radius(pc, seed: int, scale: str) -> Setup:
    groups = []
    for cls, (q, n, k) in enumerate(RADIUS_CLASSES):
        fld = pc.PrimeField(q)
        group = []
        for i in range(RADIUS_SIZES[scale]):
            density = RADIUS_DENSITIES[i % len(RADIUS_DENSITIES)]
            rng = random.Random(f"{CATALOG}/radius/q{q}/n{n}/{i}")
            poset = pc.randgen.random_poset(rng, n, density)
            code = pc.randgen.random_code(rng, fld, n, k)
            key = f"q{q}-n{n}-k{k}-{i}"
            group.append(_radius_op(pc, key, cls, _instance(pc, seed, key, poset, code)))
        random.Random(f"{seed}/radius/order/{cls}").shuffle(group)
        groups.append(group)
    return Setup(ops=_cycle_classes(groups), trace_ops=2 * len(groups))


# -- decode-stream --------------------------------------------------------

# Catalog indices whose hierarchical posets give plans of several groups
# (7 for GF(2), 5 for GF(3)); a single group would bypass the leveled
# mechanism this workload exists to measure.
DECODE_CODES = ((2, 16, 2), (3, 10, 3))
DECODE_SIZES = {"full": 500, "tiny": 5}
DECODERS = ("full", "leveled1", "leveled2")


class _DecodeOracle:
    """Nearest-codeword distances by exhaustion, independent of the
    decoders: weights come from `Poset.leq` and codewords from the
    generator rows."""

    def __init__(self, poset, code, plan):
        n, q = code.n, code.q
        self.n = n
        self.down = [
            sum(1 << i for i in range(n) if poset.leq(i + 1, j + 1)) for j in range(n)
        ]
        rows = code.gen.rows
        self.codewords = set()
        for coeffs in itertools.product(range(q), repeat=code.k):
            self.codewords.add(
                tuple(sum(c * r[j] for c, r in zip(coeffs, rows)) % q for j in range(n))
            )
        self.witness = plan.to_decomposed.rows if plan.to_decomposed is not None else None
        self.pointer = plan.pointer_support
        self.q = q
        self._nearest: dict[tuple, int] = {}

    def distance(self, u, v) -> int:
        closed = 0
        for j in range(self.n):
            if u[j] != v[j]:
                closed |= self.down[j]
        return bin(closed).count("1")

    def nearest(self, y) -> int:
        best = self._nearest.get(y)
        if best is None:
            best = min(self.distance(y, c) for c in self.codewords)
            self._nearest[y] = best
        return best

    def guaranteed(self, y) -> bool:
        """Whether y's image in the decomposed domain avoids the pointer."""
        image = y
        if self.witness is not None:
            image = tuple(sum(a * b for a, b in zip(row, y)) % self.q for row in self.witness)
        return not any(image[i - 1] for i in self.pointer)


def _decode_op(key, dec_index, word, decode, get_oracle, stats) -> Op:
    name = DECODERS[dec_index]

    def check(y, out):
        oracle = get_oracle()
        coords = out.coords
        if coords not in oracle.codewords:
            raise CheckFailed(f"{key}: decoded word is not a codeword")
        d = oracle.distance(y.coords, coords)
        best = oracle.nearest(y.coords)
        guaranteed = oracle.guaranteed(y.coords)
        if d < best or (name == "full" and d != best):
            raise CheckFailed(f"{key}: distance {d}, nearest codeword at {best}")
        if guaranteed and d != best:
            raise CheckFailed(f"{key}: not nearest on a word in the guaranteed domain")
        stats[f"{name}.checked"] += 1
        stats[f"{name}.optimal"] += d == best
        stats[f"{name}.guaranteed"] += guaranteed

    return Op(
        key=key,
        cls=dec_index,
        tag=name,
        prepare=lambda: word,
        call=decode,
        check=check,
        digest=lambda out: digest_text(",".join(map(str, out.coords))),
        seed_bound=True,
    )


def setup_decode(pc, seed: int, scale: str) -> Setup:
    stats = {f"{d}.{s}": 0 for d in DECODERS for s in ("checked", "optimal", "guaranteed")}
    layers = dict.fromkeys(
        ("decode.build_table.vectors", "decode.build_table.entries",
         "decode.plan.groups", "decode.plan.stored_entries"),
        0,
    )
    streams = []
    for q, n, idx in DECODE_CODES:
        fld = pc.PrimeField(q)
        rng = random.Random(f"{CATALOG}/decode/q{q}/n{n}/{idx}")
        base_poset = pc.randgen.random_hierarchical_poset(rng, n)
        base_code = pc.randgen.random_code(rng, fld, n, n // 2)
        label = f"q{q}-n{n}"
        poset, code = _instance(pc, seed, label, base_poset, base_code).build(pc)
        table = pc.build_table(code, poset)
        plan = pc.build_plan_for_code(code, poset)
        layers["decode.build_table.vectors"] += q**n
        layers["decode.build_table.entries"] += len(table.leaders)
        layers["decode.plan.groups"] += len(plan.groups)
        layers["decode.plan.stored_entries"] += pc.table_sizes(plan)["leveled_total"]
        words_rng = random.Random(f"{seed}/decode/words/q{q}")
        words = [
            pc.Vector(fld, [words_rng.randrange(q) for _ in range(n)])
            for _ in range(DECODE_SIZES[scale])
        ]
        # The oracle is built on first use by a check, outside the timed set-up.
        get_oracle = functools.cache(functools.partial(_DecodeOracle, poset, code, plan))
        streams.append((label, table, plan, words, get_oracle))

    ops = []
    for i in range(DECODE_SIZES[scale]):
        for label, table, plan, words, get_oracle in streams:
            decoders = (
                lambda y, t=table: pc.decode_full(t, y),
                lambda y, p=plan: pc.decode_leveled_alg1(p, y),
                lambda y, p=plan: pc.decode_leveled_alg2(p, y),
            )
            for d, decode in enumerate(decoders):
                key = f"{label}/{DECODERS[d]}/{i}"
                ops.append(_decode_op(key, d, words[i], decode, get_oracle, stats))
    return Setup(ops=ops, trace_ops=len(ops), layers=layers, stats=stats)


# -- cli-oneshot ----------------------------------------------------------

CLI_SETS = ((2, 8, 4), (2, 10, 5), (2, 12, 6), (3, 6, 3))
CLI_SIZES = {"full": 2, "tiny": 1}
CLI_VECTORS = 6
CLI_COMMANDS = (
    ("validate", 0),
    ("canonicalize", 1),
    ("decompose", 1),
    ("table-plan", 1),
    ("radius", 2),
    ("decode", 2),
)


def _cli_argv(cmd: str, poset_path: str, code_path: str, vectors_path: str) -> list[str]:
    files = ["--poset", poset_path, "--code", code_path]
    if cmd == "radius":
        return ["radius", "--bounds", *files, "--json"]
    if cmd == "decode":
        return ["decode", *files, "--vectors", vectors_path, "--json"]
    return [cmd, *files, "--json"]


def _cli_check(key: str, cmd: str, out) -> None:
    status, text = out
    if status != 0:
        raise CheckFailed(f"{key}: exit status {status}")
    try:
        payload = json.loads(text)
    except ValueError:
        raise CheckFailed(f"{key}: output is not JSON") from None
    if cmd == "radius" and not payload["lower"] <= payload["exact"] <= payload["upper"]:
        raise CheckFailed(f"{key}: radius outside its bracket")
    if cmd == "decode" and len(payload["results"]) != CLI_VECTORS:
        raise CheckFailed(f"{key}: decoded {len(payload['results'])} of {CLI_VECTORS} vectors")


def package_env(root: Path) -> dict[str, str]:
    """Environment for a child interpreter that imports the checkout's package."""
    return dict(os.environ, PYTHONPATH=str(root / "src"))


def run_cli_subprocess(root: Path, argv: list[str], timeout: float):
    env = package_env(root)
    proc = subprocess.run(
        [sys.executable, "-m", "posetcode.cli", *argv],
        cwd=root,
        env=env,
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    return proc.returncode, proc.stdout


def run_cli_in_process(argv: list[str]):
    cli = importlib.import_module("posetcode.cli")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = cli.main(list(argv))
    return status, out.getvalue()


def setup_cli(pc, seed: int, scale: str, root: Path, in_process: bool, timeout: float) -> Setup:
    workdir = root / "perfbench" / ".work" / f"cli-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    filesets = []
    for q, n, k in CLI_SETS:
        fld = pc.PrimeField(q)
        for i in range(CLI_SIZES[scale]):
            rng = random.Random(f"{CATALOG}/cli/q{q}/n{n}/{i}")
            poset = pc.randgen.random_poset(rng, n, 0.2)
            code = pc.randgen.random_code(rng, fld, n, k)
            label = f"q{q}-n{n}-k{k}-{i}"
            inst = _instance(pc, seed, label, poset, code)
            poset_path = workdir / f"{label}.poset"
            code_path = workdir / f"{label}.code"
            vectors_path = workdir / f"{label}.vec"
            poset_path.write_text(
                f"poset n={n}\n" + "".join(f"{a} {b}\n" for a, b in inst.relations)
            )
            code_path.write_text(
                f"code q={q} k={k} n={n}\n" + "".join(" ".join(map(str, r)) + "\n" for r in inst.rows)
            )
            vectors_rng = random.Random(f"{seed}/cli/vectors/{label}")
            vectors_path.write_text(
                "".join(
                    " ".join(str(vectors_rng.randrange(q)) for _ in range(n)) + "\n"
                    for _ in range(CLI_VECTORS)
                )
            )
            filesets.append((label, str(poset_path), str(code_path), str(vectors_path)))
    random.Random(f"{seed}/cli/order").shuffle(filesets)
    ops = []
    for label, poset_path, code_path, vectors_path in filesets:
        for cmd, cls in CLI_COMMANDS:
            argv = _cli_argv(cmd, poset_path, code_path, vectors_path)
            if in_process:
                call = run_cli_in_process
            else:
                call = lambda a: run_cli_subprocess(root, a, timeout)  # noqa: E731
            ops.append(
                Op(
                    key=f"{label}/{cmd}",
                    cls=cls,
                    tag=cmd,
                    prepare=lambda a=argv: a,
                    call=call,
                    check=lambda _a, out, key=f"{label}/{cmd}", cmd=cmd: _cli_check(key, cmd, out),
                    digest=lambda out: digest_text(out[1]),
                    seed_bound=cmd == "decode",
                )
            )
    return Setup(
        ops=ops,
        trace_ops=2 * len(CLI_COMMANDS),
        close=lambda: _remove_workdir(workdir),
    )


def _remove_workdir(workdir: Path) -> None:
    shutil.rmtree(workdir, ignore_errors=True)
    with contextlib.suppress(OSError):
        workdir.parent.rmdir()  # only when no other run is using it


# -- registry -------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    deadline_s: float  # per-op safety deadline; an overrun is a failed op
    classes: tuple[str, str, str]  # what class1..class3_ops_per_s count
    in_child: bool = False  # each op runs in a child process


WORKLOADS = {
    w.name: w
    for w in (
        Workload("decompose-sweep", 30.0, ("sparse GF(2)", "sparse GF(3)", "structured")),
        Workload(
            "decode-stream", 5.0, ("decode_full", "decode_leveled_alg1", "decode_leveled_alg2")
        ),
        Workload("radius-bracket", 30.0, ("GF(2) n=12", "GF(2) n=13", "GF(3) n=7")),
        Workload(
            "cli-oneshot",
            60.0,
            ("validate", "canonicalize/decompose/table-plan", "radius/decode"),
            in_child=True,
        ),
    )
}


def setup(name: str, pc, seed: int, scale: str, root: Path, in_process: bool) -> Setup:
    if name == "decompose-sweep":
        return setup_decompose(pc, seed, scale)
    if name == "decode-stream":
        return setup_decode(pc, seed, scale)
    if name == "radius-bracket":
        return setup_radius(pc, seed, scale)
    return setup_cli(pc, seed, scale, root, in_process, WORKLOADS[name].deadline_s)
