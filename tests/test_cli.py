import inspect
import json
import random
import textwrap

import pytest

from conftest import run_fresh
from posetcode import cli as cli_module
from posetcode import decomp as decomp_module
from posetcode import files
from posetcode.budget import DEFAULT_BUDGET, BudgetExceededError
from posetcode.cli import main
from posetcode.decomp import Decomposition, validate_p_decomposition, PDecomposition
from posetcode.field import PrimeField
from posetcode.linear import Code, Matrix
from posetcode.selftest import _decoder_optimality, run_selftest

F2 = PrimeField(2)

POSET_A = """\
# two short chains
poset n=6
1 2
3 4
"""

CODE_SIX = """\
code q=2 k=3 n=6
0 0 1 1 0 1
1 0 1 1 1 0
1 1 0 0 0 0
"""

CHAIN3 = """\
poset n=3
1 2
2 3
"""


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "a.poset").write_text(POSET_A)
    (tmp_path / "g.code").write_text(CODE_SIX)
    (tmp_path / "chain3.poset").write_text(CHAIN3)
    return tmp_path


class TestFileFormats:
    def test_poset_roundtrip(self, workdir):
        p = files.load_poset(workdir / "a.poset")
        assert p.n == 6
        assert p.relations() == frozenset({(1, 2), (3, 4)})

    def test_code_roundtrip(self, workdir):
        c = files.load_code(workdir / "g.code")
        assert (c.q, c.k, c.n) == (2, 3, 6)

    def test_poset_parse_errors_carry_line_numbers(self, tmp_path):
        bad = tmp_path / "bad.poset"
        bad.write_text("poset n=3\n1 2 3\n")
        with pytest.raises(ValueError, match="bad.poset:2"):
            files.load_poset(bad)
        bad.write_text("poset n=3\n1 x\n")
        with pytest.raises(ValueError, match="bad.poset:2"):
            files.load_poset(bad)
        bad.write_text("posets n=3\n")
        with pytest.raises(ValueError, match="header"):
            files.load_poset(bad)

    def test_code_parse_errors(self, tmp_path):
        bad = tmp_path / "bad.code"
        bad.write_text("code q=2 k=1 n=3\n0 1 2\n")
        with pytest.raises(ValueError, match="outside"):
            files.load_code(bad)
        bad.write_text("code q=4 k=1 n=3\n0 1 1\n")
        with pytest.raises(ValueError, match="prime"):
            files.load_code(bad)
        bad.write_text("code q=2 k=2 n=3\n0 1 1\n")
        with pytest.raises(ValueError, match="rows"):
            files.load_code(bad)

    def test_vector_parsing(self):
        v = files.parse_vector("0 1 1", F2, 3)
        assert v.coords == (0, 1, 1)
        with pytest.raises(ValueError, match="expected 3"):
            files.parse_vector("0 1", F2, 3)


class TestCommands:
    def test_weight_command(self, workdir, capsys):
        code = main(["weight", "--poset", str(workdir / "chain3.poset"), "--vec", "0 1 1"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "3"

    def test_canonicalize_json(self, workdir, capsys):
        code = main(
            ["canonicalize", "--poset", str(workdir / "a.poset"),
             "--code", str(workdir / "g.code"), "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["degree"] == 2
        assert payload["profile"] == [[1, 1], [4, 2], [1, 1]]
        assert payload["fixpoint"] is True
        assert payload["canonical"] == [
            [0, 0, 0, 1, 0, 1],
            [1, 0, 0, 1, 1, 0],
            [0, 1, 0, 0, 0, 0],
        ]

    def test_canonicalize_canonicalizes_once(self, workdir, capsys, monkeypatch):
        real = decomp_module.canonical_form
        calls = []

        def counting(*args):
            calls.append(args)
            return real(*args)

        # Patched in the CLI module too, so a direct call from there counts.
        monkeypatch.setattr(decomp_module, "canonical_form", counting)
        monkeypatch.setattr(cli_module, "canonical_form", counting, raising=False)
        assert main(["canonicalize", "--poset", str(workdir / "a.poset"),
                     "--code", str(workdir / "g.code"), "--json"]) == 0
        capsys.readouterr()
        assert len(calls) == 1

    def test_decompose_json_roundtrips_and_revalidates(self, workdir, capsys):
        assert main(
            ["decompose", "--poset", str(workdir / "a.poset"),
             "--code", str(workdir / "g.code"), "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        original = files.load_code(workdir / "g.code")
        poset = files.load_poset(workdir / "a.poset")
        components = tuple(
            Code(Matrix(F2, comp["generators"], n=original.n))
            for comp in payload["components"]
        )
        rebuilt_code = Code(
            Matrix(F2, [row for comp in payload["components"] for row in comp["generators"]],
                   n=original.n)
        )
        d = Decomposition(
            code=rebuilt_code,
            components=components,
            pointer_support=frozenset(payload["pointer_support"]),
        )
        pd = PDecomposition(
            original=original,
            decomposition=d,
            witness=Matrix(F2, payload["witness"]),
        )
        validate_p_decomposition(pd, poset)
        assert [list(e) for e in payload["profile"]] == [[1, 1], [4, 2], [1, 1]]

    def test_profile_and_degree_commands(self, workdir, capsys):
        assert main(["profile", "--poset", str(workdir / "a.poset"),
                     "--code", str(workdir / "g.code"), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["profile"] == [[1, 1], [4, 2], [1, 1]]
        assert main(["degree", "--poset", str(workdir / "a.poset"),
                     "--code", str(workdir / "g.code"), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["degree"] == 2

    def test_neighbors_command(self, workdir, capsys):
        assert main(["neighbors", "--poset", str(workdir / "chain3.poset"), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["upper"]["relations"] == [[1, 2], [1, 3], [2, 3]]
        assert payload["lower"]["relations"] == [[1, 2], [1, 3], [2, 3]]

    def test_mindist_command(self, workdir, capsys):
        assert main(["mindist", "--poset", str(workdir / "chain3.poset"),
                     "--code", "-", "--json"]) == 1  # missing file is an input error
        capsys.readouterr()
        code_file = workdir / "rep.code"
        code_file.write_text("code q=2 k=1 n=3\n1 1 1\n")
        assert main(["mindist", "--poset", str(workdir / "chain3.poset"),
                     "--code", str(code_file), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["min_distance"] == 3

    def test_radius_commands(self, workdir, capsys):
        code_file = workdir / "rep.code"
        code_file.write_text("code q=2 k=1 n=3\n0 0 1\n")
        assert main(["radius", "--poset", str(workdir / "chain3.poset"),
                     "--code", str(code_file), "--exact", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["exact"] == 2
        assert main(["radius", "--poset", str(workdir / "chain3.poset"),
                     "--code", str(code_file), "--bounds", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["lower"] == payload["exact"] == payload["upper"] == 2

    def test_table_plan_command(self, workdir, capsys):
        assert main(["table-plan", "--poset", str(workdir / "a.poset"),
                     "--code", str(workdir / "g.code"), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["full"] == 2 ** (6 - 3)
        assert payload["full"] == 2 ** len(payload["pointer_support"]) * payload["reduced"]
        assert payload["leveled_total"] <= payload["full"]

    def test_decode_command(self, workdir, capsys):
        code_file = workdir / "rep.code"
        code_file.write_text("code q=2 k=1 n=3\n1 1 1\n")
        anti = workdir / "anti.poset"
        anti.write_text("poset n=3\n")
        assert main(["decode", "--poset", str(anti), "--code", str(code_file),
                     "--vec", "1 1 0", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["results"][0]["decoded"] == [1, 1, 1]
        assert payload["results"][0]["distance"] == 1
        for alg in ("leveled1", "leveled2"):
            assert main(["decode", "--poset", str(anti), "--code", str(code_file),
                         "--vec", "1 1 0", "--algorithm", alg, "--json"]) == 0
            payload = json.loads(capsys.readouterr().out)
            assert payload["results"][0]["distance"] == 1

    def test_decode_vectors_file(self, workdir, capsys):
        code_file = workdir / "rep.code"
        code_file.write_text("code q=2 k=1 n=3\n1 1 1\n")
        anti = workdir / "anti.poset"
        anti.write_text("poset n=3\n")
        vecs = workdir / "received.txt"
        vecs.write_text("# received words\n1 1 0\n0 0 0\n")
        assert main(["decode", "--poset", str(anti), "--code", str(code_file),
                     "--vectors", str(vecs), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["results"]) == 2

    def test_validate_command_checks_sizes(self, workdir, capsys):
        assert main(["validate", "--poset", str(workdir / "chain3.poset"),
                     "--code", str(workdir / "g.code")]) == 1
        err = capsys.readouterr().err
        assert "does not match" in err

    def test_exit_codes(self, workdir, capsys, tmp_path, monkeypatch):
        bad = tmp_path / "bad.poset"
        bad.write_text("poset n=2\n1 3\n")
        assert main(["validate", "--poset", str(bad)]) == 1
        capsys.readouterr()
        big = tmp_path / "big.code"
        # an all-ones support of 22 coordinates on an antichain is charged
        # 2^21 bipartitions, over the default budget of 2^20
        big.write_text("code q=2 k=1 n=22\n" + " ".join(["1"] * 22) + "\n")
        bigp = tmp_path / "big.poset"
        bigp.write_text("poset n=22\n")
        assert main(["radius", "--poset", str(bigp), "--code", str(big), "--exact"]) == 2
        capsys.readouterr()
        assert main(["weight", "--poset", str(bad)]) == 1  # usage + parse errors
        capsys.readouterr()
        # a broken invariant exits 3: a failing selftest check, then an internal error
        monkeypatch.setattr("posetcode.selftest.run_selftest", lambda seed, budget: [("x", False)])
        assert main(["selftest"]) == 3
        assert capsys.readouterr().out.splitlines()[-1] == "selftest FAILED"

        def broken(code, poset):
            raise RuntimeError("x")

        monkeypatch.setattr("posetcode.decomp.maximal_p_decomposition", broken)
        assert main(["decompose", "--poset", str(workdir / "a.poset"),
                     "--code", str(workdir / "g.code")]) == 3
        assert capsys.readouterr().err == "internal error: x\n"

        # an interrupt is click's Abort, a RuntimeError, and exits 1 with
        # `error: aborted`, not reported as an internal error
        def interrupted(code, poset):
            raise KeyboardInterrupt

        monkeypatch.setattr("posetcode.decomp.maximal_p_decomposition", interrupted)
        assert main(["decompose", "--poset", str(workdir / "a.poset"),
                     "--code", str(workdir / "g.code")]) == 1
        err = capsys.readouterr().err
        assert "internal error" not in err
        assert "error: aborted" in err.splitlines()

    def test_byte_identical_reruns(self, workdir, capsys):
        args = ["decompose", "--poset", str(workdir / "a.poset"),
                "--code", str(workdir / "g.code"), "--json"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first


def test_selftest_command_passes(capsys):
    for seed in ("0", "9"):
        assert main(["selftest", "--seed", seed]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert out.count("PASS") >= 8


def test_selftest_budget_reaches_the_oracle_enumerations():
    # enum_posets(3) needs 2^6 = 64, the first call of the suite over 50
    with pytest.raises(BudgetExceededError) as err:
        run_selftest(budget=50)
    assert err.value.what == "poset enumeration"


def test_selftest_decoder_optimality_catches_an_added_leader(monkeypatch):
    # y + leader is y - leader over GF(2) only, so the GF(3) draws must see it
    monkeypatch.setattr(
        "posetcode.selftest.decode_full", lambda t, y: y + t.leaders[t.syndrome(y)]
    )
    assert not _decoder_optimality(random.Random(0), DEFAULT_BUDGET)


def test_selftest_reports_a_raising_property_as_a_failure(monkeypatch, capsys):
    def broken(rng, budget):
        raise KeyError(0)

    monkeypatch.setattr("posetcode.selftest._radius_brackets", broken)
    assert main(["selftest"]) == 3
    out = capsys.readouterr().out.splitlines()
    assert out[-2:] == ["FAIL radius-brackets", "selftest FAILED"]
    assert all(line.startswith("PASS") for line in out[:-2])


def test_selftest_profile_invariance_catches_a_wrong_pivot_sign(monkeypatch, capsys):
    # rereduce tags pivot i with -1, so a reduced column carries +(its
    # coordinates); with +1 every generator is negated, unseen over GF(2)
    source = textwrap.dedent(inspect.getsource(decomp_module._Canonicalizer.rereduce))
    assert source.count("(p - 1) * scratch.unit") == 1
    namespace: dict = {}
    exec(source.replace("(p - 1) * scratch.unit", "1 * scratch.unit"), vars(decomp_module), namespace)
    monkeypatch.setattr(decomp_module._Canonicalizer, "rereduce", namespace["rereduce"])
    for seed in ("0", "9"):
        assert main(["selftest", "--seed", seed]) == 3
        assert "FAIL profile-invariance" in capsys.readouterr().out.splitlines()


def test_bench_command(workdir, capsys):
    assert main(["bench", "--poset", str(workdir / "a.poset"),
                 "--code", str(workdir / "g.code"), "--trials", "20", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["trials"] == 20
    assert set(payload["decode_seconds"]) == {"full", "leveled1", "leveled2"}
    assert main(["bench", "--poset", str(workdir / "a.poset"),
                 "--code", str(workdir / "g.code"), "--trials", "-5"]) == 1


def test_cli_import_leaves_selftest_modules_unloaded():
    # only the selftest command needs them; each command pays the import of the CLI
    script = (
        "import sys, posetcode.cli\n"
        "print(sorted(m for m in ('posetcode.selftest', 'posetcode.oracle', 'posetcode.randgen')"
        " if m in sys.modules))"
    )
    assert run_fresh(script).strip() == "[]"


def test_commands_run_only_the_modules_they_call(workdir):
    # A lazy module is still of the loader's own type until its body runs;
    # type() reads no attribute, so it does not trigger the load.
    inputs = ["--poset", str(workdir / "a.poset"), "--code", str(workdir / "g.code")]
    commands = [["validate", *inputs], ["canonicalize", *inputs], ["table-plan", *inputs],
                ["radius", "--bounds", *inputs]]
    script = f"""
import contextlib, io, sys, types
import posetcode.cli

def ran():
    names = ("posetcode.decomp", "posetcode.decode", "posetcode.radius")
    return [m for m in names if type(sys.modules[m]) is types.ModuleType]

steps = [ran()]
for argv in {commands!r}:
    with contextlib.redirect_stdout(io.StringIO()):
        assert posetcode.cli.main(argv) == 0
    steps.append(ran())
print(steps)
"""
    assert run_fresh(script).strip() == str([
        [],  # import posetcode.cli
        [],  # validate
        ["posetcode.decomp"],  # canonicalize
        ["posetcode.decomp", "posetcode.decode"],  # table-plan
        ["posetcode.decomp", "posetcode.decode", "posetcode.radius"],  # radius --bounds
    ])


def test_validate_loads_no_dataclasses(workdir):
    # the field module only checks the characteristic, so reading and
    # checking input files imports no dataclass machinery
    argv = ["validate", "--poset", str(workdir / "a.poset"), "--code", str(workdir / "g.code")]
    script = f"""
import contextlib, io, sys
import posetcode.cli

steps = ["dataclasses" in sys.modules]
with contextlib.redirect_stdout(io.StringIO()):
    assert posetcode.cli.main({argv!r}) == 0
steps.append("dataclasses" in sys.modules)
print(steps)
"""
    assert run_fresh(script).strip() == "[False, False]"
