"""Command-line front end.

Exit codes: 0 success, 1 input error, 2 enumeration budget exceeded,
3 internal invariant violation.

Each command imports the functions it calls in its own body, so a call
runs only the modules that command needs (the package loads lazily).
"""

from __future__ import annotations

import functools
import json
import sys
import time

import click

from . import files
from .budget import BudgetExceededError, DEFAULT_BUDGET


def _emit(payload: dict, as_json: bool, text_lines: list[str]) -> None:
    if as_json:
        click.echo(json.dumps(payload, sort_keys=True, indent=2))
    else:
        for line in text_lines:
            click.echo(line)


def _require_same_n(poset, code) -> None:
    if poset.n != code.n:
        raise ValueError(
            f"poset ground set size {poset.n} does not match code length {code.n}"
        )


def _decomposition_payload(pd) -> dict:
    from .decomp import degree, profile

    d = pd.decomposition
    return {
        "profile": [list(e) for e in profile(d)],
        "degree": degree(pd),
        "pointer_support": sorted(d.pointer_support),
        "components": [
            {"support": sorted(c.support()), "generators": [list(r) for r in c.gen.rows]}
            for c in d.components
        ],
        "witness": [list(r) for r in pd.witness.rows],
    }


poset_option = click.option("--poset", "poset_path", required=True, type=click.Path(exists=True))
code_option = click.option("--code", "code_path", required=True, type=click.Path(exists=True))
json_option = click.option("--json", "as_json", is_flag=True, help="stable JSON output")
budget_option = click.option(
    "--budget", type=int, default=DEFAULT_BUDGET, show_default=True,
    help="cap on exhaustive enumeration size",
)


def poset_and_code(command):
    """Declare --poset and --code; the command receives the loaded poset
    and code, checked to have the same size, in their place."""

    # wraps() carries over the options declared below the decorator, so
    # --poset and --code still come first in --help
    @poset_option
    @code_option
    @functools.wraps(command)
    def load(poset_path, code_path, **kwargs):
        poset = files.load_poset(poset_path)
        code = files.load_code(code_path)
        _require_same_n(poset, code)
        return command(poset, code, **kwargs)

    return load


@click.group()
def cli():
    """Canonical forms, decompositions, packing radii and syndrome
    decoders for linear codes under coordinate-order weights."""


@cli.command()
@click.option("--poset", "poset_path", type=click.Path(exists=True))
@click.option("--code", "code_path", type=click.Path(exists=True))
@json_option
def validate(poset_path, code_path, as_json):
    """Parse inputs, check invariants, report parameters."""
    if not poset_path and not code_path:
        raise ValueError("nothing to validate: pass --poset and/or --code")
    payload: dict = {}
    lines: list[str] = []
    poset = files.load_poset(poset_path) if poset_path else None
    code = files.load_code(code_path) if code_path else None
    if poset is not None:
        relations, hierarchical = poset.relations(), poset.is_hierarchical()
        payload["poset"] = {
            "n": poset.n,
            "relations": sorted(list(r) for r in relations),
            "heights": list(poset.heights()),
            "chain": poset.is_chain(),
            "antichain": poset.is_antichain(),
            "hierarchical": hierarchical,
        }
        lines.append(
            f"poset: n={poset.n} relations={len(relations)} hierarchical={hierarchical}"
        )
    if code is not None:
        payload["code"] = {
            "q": code.q,
            "k": code.k,
            "n": code.n,
            "support": sorted(code.support()),
        }
        lines.append(f"code: [{code.n},{code.k}] over GF({code.q})")
    if poset is not None and code is not None:
        _require_same_n(poset, code)
        lines.append("poset and code sizes agree")
    _emit(payload, as_json, lines)


@cli.command()
@poset_and_code
@json_option
def canonicalize(poset, code, as_json):
    """Reduce the generator matrix to its order-canonical form."""
    from .decomp import degree, is_p_canonical, maximal_p_decomposition, profile

    pd = maximal_p_decomposition(code, poset)
    gstar = pd.decomposition.code.gen
    entries, value = profile(pd.decomposition), degree(pd)
    payload = {
        "canonical": [list(r) for r in gstar.rows],
        "witness": [list(r) for r in pd.witness.rows],
        "fixpoint": is_p_canonical(gstar, poset),
        "profile": [list(e) for e in entries],
        "degree": value,
    }
    lines = ["canonical generator:"]
    lines += [" ".join(str(c) for c in row) for row in gstar.rows]
    lines.append(f"profile: {list(entries)}")
    lines.append(f"degree: {value}")
    _emit(payload, as_json, lines)


@cli.command()
@poset_and_code
@json_option
def decompose(poset, code, as_json):
    """Maximal decomposition of the code under the order weight."""
    from .decomp import maximal_p_decomposition

    pd = maximal_p_decomposition(code, poset)
    payload = _decomposition_payload(pd)
    lines = [
        f"degree: {payload['degree']}",
        f"profile: {[tuple(e) for e in payload['profile']]}",
        f"pointer support: {payload['pointer_support']}",
    ]
    for i, comp in enumerate(payload["components"], start=1):
        lines.append(f"component {i}: support {comp['support']}")
    _emit(payload, as_json, lines)


@cli.command(name="profile")
@poset_and_code
@json_option
def profile_cmd(poset, code, as_json):
    """Profile of the maximal decomposition."""
    from .decomp import maximal_p_decomposition, profile

    pd = maximal_p_decomposition(code, poset)
    entries = [list(e) for e in profile(pd.decomposition)]
    _emit({"profile": entries}, as_json, [f"profile: {[tuple(e) for e in entries]}"])


@cli.command(name="degree")
@poset_and_code
@json_option
def degree_cmd(poset, code, as_json):
    """Degree of the maximal decomposition."""
    from .decomp import degree, maximal_p_decomposition

    value = degree(maximal_p_decomposition(code, poset))
    _emit({"degree": value}, as_json, [f"degree: {value}"])


@cli.command()
@poset_option
@json_option
def neighbors(poset_path, as_json):
    """Hierarchical upper and lower neighbors of the poset."""
    from .poset import lower_neighbor, upper_neighbor

    poset = files.load_poset(poset_path)
    up, lo = upper_neighbor(poset), lower_neighbor(poset)
    payload = {
        "upper": {"n": up.n, "relations": sorted(list(r) for r in up.relations())},
        "lower": {"n": lo.n, "relations": sorted(list(r) for r in lo.relations())},
    }
    lines = [
        f"upper neighbor relations: {payload['upper']['relations']}",
        f"lower neighbor relations: {payload['lower']['relations']}",
    ]
    _emit(payload, as_json, lines)


@cli.command()
@poset_option
@click.option("--vec", "vec_text", required=True, help="space-separated residues")
@click.option("--q", "q", type=int, default=2, show_default=True)
@json_option
def weight(poset_path, vec_text, q, as_json):
    """Order weight of a vector."""
    from .field import PrimeField
    from .linear import p_weight

    poset = files.load_poset(poset_path)
    v = files.parse_vector(vec_text, PrimeField(q), poset.n, where="--vec")
    w = p_weight(v, poset)
    _emit({"weight": w}, as_json, [str(w)])


@cli.command()
@poset_and_code
@budget_option
@json_option
def mindist(poset, code, budget, as_json):
    """Minimum nonzero codeword weight, by exhaustive enumeration."""
    from .linear import min_distance

    d = min_distance(code, poset, budget)
    _emit({"min_distance": d}, as_json, [f"min distance: {d}"])


@cli.command()
@poset_and_code
@click.option("--exact", "mode", flag_value="exact", default=True)
@click.option("--bounds", "mode", flag_value="bounds")
@budget_option
@json_option
def radius(poset, code, mode, budget, as_json):
    """Packing radius: exact by support bipartition, or neighbor bounds."""
    from .radius import packing_radius_bounds, packing_radius_exact

    if mode == "exact":
        value = packing_radius_exact(code, poset, budget)
        _emit({"exact": value}, as_json, [f"packing radius: {value}"])
    else:
        b = packing_radius_bounds(code, poset, budget)
        payload = {"lower": b.lower, "upper": b.upper, "exact": b.exact}
        _emit(
            payload,
            as_json,
            [f"lower: {b.lower}", f"upper: {b.upper}", f"exact: {b.exact}"],
        )


@cli.command(name="table-plan")
@poset_and_code
@budget_option
@json_option
def table_plan(poset, code, budget, as_json):
    """Lookup-table accounting for the leveled decoder."""
    from .decode import build_plan_for_code, table_sizes

    plan = build_plan_for_code(code, poset, budget)
    sizes = table_sizes(plan)
    payload = dict(sizes)
    payload["pointer_support"] = sorted(plan.pointer_support)
    payload["groups"] = [
        {
            "components": list(g.indices),
            "support": list(g.support),
            "table_size": len(g.table.leaders),
        }
        for g in plan.groups
    ]
    lines = [
        f"full table: {sizes['full']}",
        f"reduced (projected) table: {sizes['reduced']}",
        f"leveled total: {sizes['leveled_total']}",
        f"worst single lookup: {sizes['worst_single_lookup']}",
        f"groups: {len(plan.groups)}",
    ]
    _emit(payload, as_json, lines)


@cli.command()
@poset_and_code
@click.option("--vec", "vec_text", help="one received vector inline")
@click.option("--vectors", "vectors_path", type=click.Path(exists=True))
@click.option(
    "--algorithm",
    type=click.Choice(["full", "leveled1", "leveled2"]),
    default="full",
    show_default=True,
)
@budget_option
@json_option
def decode(poset, code, vec_text, vectors_path, algorithm, budget, as_json):
    """Decode received vectors to nearest codewords."""
    from .decode import (
        build_plan_for_code,
        build_table,
        decode_full,
        decode_leveled_alg1,
        decode_leveled_alg2,
    )
    from .linear import p_distance

    received = []
    if vec_text:
        received.append(files.parse_vector(vec_text, code.field, code.n, where="--vec"))
    if vectors_path:
        received.extend(files.load_vectors(vectors_path, code.field, code.n))
    if not received:
        raise ValueError("no received vectors: pass --vec and/or --vectors")
    if algorithm == "full":
        table = build_table(code, poset, budget)
        decoder = lambda y: decode_full(table, y)  # noqa: E731
    else:
        plan = build_plan_for_code(code, poset, budget)
        alg = decode_leveled_alg1 if algorithm == "leveled1" else decode_leveled_alg2
        decoder = lambda y: alg(plan, y)  # noqa: E731
    results = []
    for y in received:
        c = decoder(y)
        results.append(
            {
                "received": list(y.coords),
                "decoded": list(c.coords),
                "distance": p_distance(y, c, poset),
            }
        )
    lines = [
        f"{' '.join(map(str, r['received']))} -> "
        f"{' '.join(map(str, r['decoded']))} (distance {r['distance']})"
        for r in results
    ]
    _emit({"algorithm": algorithm, "results": results}, as_json, lines)


@cli.command()
@click.option("--seed", type=int, default=0, show_default=True)
@budget_option
@json_option
def selftest(seed, budget, as_json):
    """Run the oracle-agreement suite; nonzero exit on any failure."""
    from .selftest import run_selftest

    results = run_selftest(seed=seed, budget=budget)
    ok = all(flag for _, flag in results)
    payload = {"ok": ok, "results": [{"name": n, "ok": f} for n, f in results]}
    lines = [f"{'PASS' if flag else 'FAIL'} {name}" for name, flag in results]
    lines.append("all properties pass" if ok else "selftest FAILED")
    _emit(payload, as_json, lines)
    if not ok:
        raise _SelftestFailure()


class _SelftestFailure(Exception):
    pass


@cli.command()
@poset_and_code
@click.option("--trials", type=int, default=1000, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@budget_option
@json_option
def bench(poset, code, trials, seed, budget, as_json):
    """Time table construction and decoding on random received vectors."""
    if trials < 0:
        raise ValueError(f"--trials must be non-negative, got {trials}")
    import random as _random

    from .decode import (
        build_plan_for_code,
        build_table,
        decode_full,
        decode_leveled_alg1,
        decode_leveled_alg2,
        table_sizes,
    )
    from .linear import Vector

    rng = _random.Random(seed)
    t0 = time.perf_counter()
    table = build_table(code, poset, budget)
    t_full_build = time.perf_counter() - t0
    t0 = time.perf_counter()
    plan = build_plan_for_code(code, poset, budget)
    t_plan_build = time.perf_counter() - t0
    vectors = [
        Vector(code.field, [rng.randrange(code.q) for _ in range(code.n)])
        for _ in range(trials)
    ]
    timings = {}
    for name, fn in (
        ("full", lambda y: decode_full(table, y)),
        ("leveled1", lambda y: decode_leveled_alg1(plan, y)),
        ("leveled2", lambda y: decode_leveled_alg2(plan, y)),
    ):
        t0 = time.perf_counter()
        for y in vectors:
            fn(y)
        timings[name] = time.perf_counter() - t0
    payload = {
        "trials": trials,
        "build_seconds": {"full_table": t_full_build, "plan": t_plan_build},
        "decode_seconds": timings,
        "table_sizes": table_sizes(plan),
    }
    lines = [
        f"built full table ({len(table.leaders)} entries) in {t_full_build:.4f}s",
        f"built plan ({len(plan.groups)} groups) in {t_plan_build:.4f}s",
    ] + [f"{name}: {trials} decodes in {secs:.4f}s" for name, secs in timings.items()]
    _emit(payload, as_json, lines)


def main(argv: list[str] | None = None) -> int:
    try:
        cli.main(args=argv, standalone_mode=False)
    except BudgetExceededError as exc:
        click.echo(f"error: {exc}", err=True)
        return 2
    except _SelftestFailure:
        return 3
    except (click.UsageError, click.ClickException) as exc:
        click.echo(f"error: {exc.format_message()}", err=True)
        return 1
    except (ValueError, OSError) as exc:
        click.echo(f"error: {exc}", err=True)
        return 1
    except click.exceptions.Abort:  # a RuntimeError, so it goes first
        click.echo("error: aborted", err=True)
        return 1
    except (AssertionError, RuntimeError) as exc:
        click.echo(f"internal error: {exc}", err=True)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
