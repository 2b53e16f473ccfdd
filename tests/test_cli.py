"""CLI: pipelines, reports, exit codes."""

import contextlib
import copy
import io
import json
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from selfishlevel import cli as cli_module, closedform, families, gamedoc
from selfishlevel.cli import main

FIXTURES = Path(__file__).parent / "fixtures"
README = Path(__file__).parent.parent / "README.md"


def run_cli(argv, stdin_text="", capsys=None, monkeypatch=None):
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin_text))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def cli(capsys, monkeypatch):
    def runner(argv, stdin_text=""):
        return run_cli(argv, stdin_text, capsys=capsys, monkeypatch=monkeypatch)

    return runner


class TestLevelPipelines:
    @pytest.mark.parametrize("family,params,expected", [
        ("pd_n", ["n=2"], "1"),
        ("travelers", [], "1/2"),
        ("matching_pennies", [], "inf"),
    ])
    def test_generate_then_level(self, cli, family, params, expected):
        argv = ["generate", family]
        if params:
            argv += ["--param", *params]
        code, doc_text, _ = cli(argv)
        assert code == 0
        code, out, _ = cli(["level"], stdin_text=doc_text)
        assert code == 0
        assert out == expected + "\n"

    def test_level_from_file(self, cli):
        code, out, _ = cli(["level", str(FIXTURES / "prisoners_dilemma.json")])
        assert code == 0
        assert out == "1\n"

    def test_level_zero_token(self, cli):
        code, out, _ = cli(["level", str(FIXTURES / "battle_of_sexes_sparse.json")])
        assert code == 0
        assert out == "0\n"


class TestAnalyze:
    def test_report_fields(self, cli):
        code, out, _ = cli(["analyze", str(FIXTURES / "prisoners_dilemma.json")])
        assert code == 0
        report = json.loads(out)["report"]
        assert report["pure_nash"] == [["D", "D"]]
        assert report["selfishness_level"]["value"] == "1"
        assert report["price_of_anarchy"] == "2"

    def test_deterministic_body(self, cli):
        _, first, _ = cli(["analyze", str(FIXTURES / "bad_nash_3x3.json")])
        _, second, _ = cli(["analyze", str(FIXTURES / "bad_nash_3x3.json")])
        assert json.loads(first)["report"] == json.loads(second)["report"]


class TestTransform:
    def test_altruistic_matches_known_table(self, cli):
        code, out, _ = cli(["transform", str(FIXTURES / "prisoners_dilemma.json"),
                            "--alpha", "1"])
        assert code == 0
        assert json.loads(out)["payoffs"] == [[[6, 6], [3, 6]], [[6, 3], [3, 3]]]

    def test_inverse_round_trip(self, cli):
        path = str(FIXTURES / "prisoners_dilemma.json")
        _, transformed, _ = cli(["transform", path, "--alpha", "2/3"])
        _, back, _ = cli(["transform", "-", "--alpha", "2/3", "--inverse"],
                         stdin_text=transformed)
        assert json.loads(back) == json.loads(Path(path).read_text())

    def test_shift_and_scale(self, cli):
        code, out, _ = cli(["transform", str(FIXTURES / "prisoners_dilemma.json"),
                            "--scale", "2", "--shift", "-1"])
        assert code == 0
        assert json.loads(out)["payoffs"][0][0] == [3, 3]

    def test_model_b_output_parses_back(self, cli):
        code, out, _ = cli(["transform", str(FIXTURES / "prisoners_dilemma.json"),
                            "--alpha", "1", "--model", "B"])
        assert code == 0
        code, level_out, _ = cli(["level"], stdin_text=out)
        assert code == 0
        assert level_out == "0\n"

    def test_inverse_restricted_to_model_a(self, cli):
        code, _, err = cli(["transform", str(FIXTURES / "prisoners_dilemma.json"),
                            "--alpha", "1", "--model", "C", "--inverse"])
        assert code == 2
        assert "model A" in err


class TestGenerateAndSweep:
    def test_generate_output_parses_back(self, cli):
        code, out, _ = cli(["generate", "congestion_integer_tight",
                            "--param", "L=2", "d_max=3", "d_min=1"])
        assert code == 0
        code, level_out, _ = cli(["level"], stdin_text=out)
        assert level_out == "2\n"

    def test_sweep(self, cli):
        code, out, _ = cli(["sweep", str(FIXTURES / "prisoners_dilemma.json"),
                            "--alphas", "0,1,2"])
        assert code == 0
        table = json.loads(out)["report"]["selfishness_function"]
        assert table == [
            {"alpha": "0", "price_of_stability": "2"},
            {"alpha": "1", "price_of_stability": "1"},
            {"alpha": "2", "price_of_stability": "1"},
        ]

    def test_closedform(self, cli):
        code, out, _ = cli(["closedform", "pd_n", "--param", "n=5"])
        assert code == 0
        result = json.loads(out)["report"]["result"]
        assert result == {"kind": "exact", "value": "1/7", "tight": None}

    def test_closedform_infinite(self, cli):
        code, out, _ = cli(["closedform", "cournot", "--param", "a=2", "b=1", "c=0"])
        assert code == 0
        assert json.loads(out)["report"]["result"]["kind"] == "infinite"

    def test_dynamics(self, cli):
        code, out, _ = cli(["dynamics", str(FIXTURES / "weakly_acyclic_3x3.json")])
        assert code == 0
        report = json.loads(out)["report"]
        assert report["weakly_acyclic"] is True
        assert report["finite_improvement_property"] is False
        assert report["ordinal_potential_certificate"] is False


class TestComposability:
    FAMILIES = [
        (["pd_n", "--param", "n=3"], "1/3"),
        (["generalized_pd", "--param", "alpha=1/2", "beta=2"], "1/2"),
        (["public_goods", "--param", "n=4", "b=1", "c=2", "k=2"], "1/2"),
        (["travelers"], "1/2"),
        (["matching_pennies"], "inf"),
        (["battle_of_sexes"], "0"),
        (["bad_nash_3x3"], "inf"),
        (["no_nash_2x2"], "1"),
        (["weakly_acyclic_3x3"], "inf"),
        (["f_level", "--param", "n=2", "f=7"], "7"),
        (["cost_sharing_singleton_tight", "--param", "c_max=10", "c_min=1"], "4"),
        (["cost_sharing_integer_tight", "--param", "L=3", "c_max=2"], "2"),
        (["congestion_singleton_tight", "--param", "delta=1/2", "a=1"], "1"),
        (["congestion_integer_tight", "--param", "L=2", "d_max=3", "d_min=1"], "2"),
        (["cost_sharing_gap", "--param", "c_max=10", "c_min=1", "gap=1"], "4"),
    ]

    @pytest.mark.parametrize("argv,expected", FAMILIES,
                             ids=[argv[0] for argv, _ in FAMILIES])
    def test_every_generator_pipes_into_level(self, cli, argv, expected):
        code, document, _ = cli(["generate", *argv])
        assert code == 0
        code, out, _ = cli(["level"], stdin_text=document)
        assert code == 0
        assert out == expected + "\n"

    @pytest.mark.parametrize("argv", [argv for argv, _ in FAMILIES],
                             ids=[argv[0] for argv, _ in FAMILIES])
    def test_output_is_the_reference_encoding(self, cli, argv):
        code, document, _ = cli(["generate", *argv])
        assert code == 0
        outputs = [document]
        for command in (["analyze"], ["dynamics"], ["sweep", "--alphas", "0,1/2,1,7/2"]):
            code, out, _ = cli(command, stdin_text=document)
            assert code == 0
            outputs.append(out)
        code, out, _ = cli(["closedform", *argv])
        if code == 0:  # closedform takes the continuous public_goods, without k
            outputs.append(out)
        for out in outputs:
            assert out == json.dumps(json.loads(out), indent=2) + "\n"

    def test_every_registered_family_is_piped(self):
        assert [argv[0] for argv, _ in self.FAMILIES] == list(families.FAMILIES)

    def test_cost_game_report(self, cli):
        code, out, _ = cli(["analyze", str(FIXTURES / "cost_sharing_tight.json")])
        assert code == 0
        report = json.loads(out)["report"]
        # optimum: both share e1 (cost 9); lone equilibrium: split (cost 11)
        assert report["social_optimum_value"] == "9"
        assert report["pure_nash"] == [["e1", "e2"]]
        assert report["price_of_stability"] == "11/9"
        assert report["selfishness_level"]["value"] == "5/4"
        deviation = report["selfishness_level"]["deviation"]
        assert deviation["payoff_gain"] == "5/2"
        assert deviation["welfare_drop"] == "2"


class TestExitCodes:
    def test_parse_error_is_two(self, cli):
        code, _, err = cli(["level"], stdin_text="not json")
        assert code == 2
        assert err.startswith("error:")

    def test_validation_error_is_two(self, cli):
        code, _, _ = cli(["generate", "pd_n", "--param", "n=1"])
        assert code == 2

    def test_unknown_family_is_two(self, cli):
        code, _, _ = cli(["generate", "nonexistent"])
        assert code == 2

    @pytest.mark.parametrize("command", ["generate", "closedform"])
    def test_unknown_family_message(self, cli, command):
        code, _, err = cli([command, "foo"])
        assert code == 2
        assert err == "error: unknown family 'foo'\n"

    @pytest.mark.parametrize("argv,message", [
        (["generate", "pd_n"], "missing required parameter 'n'"),
        (["closedform", "cournot", "--param", "a=2", "c=0"],
         "missing required parameter 'b'"),
        (["generate", "pd_n", "--param", "n=3", "x=1"], "unknown parameters: x"),
        (["closedform", "tragedy", "--param", "n=3", "x=1"], "unknown parameters: x"),
        (["generate", "pd_n", "--param", "n=3/2"],
         "parameter 'n' must be an integer, got 3/2"),
        (["closedform", "public_goods", "--param", "n=5/2", "c=2"],
         "parameter 'n' must be an integer, got 5/2"),
        (["generate", "pd_n", "--param", "n=1", "x=1"], "unknown parameters: x"),
        (["generate", "pd_n", "--param", "m=3"], "unknown parameters: m"),
    ])
    def test_parameter_errors_are_two(self, cli, argv, message):
        code, _, err = cli(argv)
        assert code == 2
        assert err == f"error: {message}\n"

    @staticmethod
    def _unreadable(case: str, tmp_path: Path) -> tuple[Path, str]:
        """An input that cannot be read as a document, and its error text."""
        path = tmp_path / f"{case}.json"
        if case == "missing":
            return path, f"cannot read {str(path)!r}: No such file or directory"
        if case == "directory":
            return tmp_path, f"cannot read {str(tmp_path)!r}: Is a directory"
        if case == "latin-1":
            path.write_bytes('{"orientation": "caf\xe9"}'.encode("latin-1"))
            return path, f"{str(path)!r} is not UTF-8 text: invalid continuation byte at byte 20"
        # A valid document nested deeper than the JSON decoder recurses.
        depth = 2 * sys.getrecursionlimit()
        players = [{"name": f"p{i}", "strategies": ["s"]} for i in range(depth)]
        path.write_text('{"orientation": "payoff", "players": ' + json.dumps(players)
                        + ', "payoffs": ' + "[" * depth + "[" + ", ".join(["0"] * depth)
                        + "]" * (depth + 1) + "}")
        return path, "document nested too deeply to read"

    @pytest.mark.parametrize("case", ["missing", "directory", "latin-1", "deep"])
    def test_unreadable_input_is_two(self, cli, tmp_path, case):
        path, message = self._unreadable(case, tmp_path)
        assert cli(["level", str(path)]) == (2, "", f"error: {message}\n")

    LATIN1 = ('{"orientation":"payoff","players":[{"name":"a\xe9","strategies":["x"]},'
              '{"name":"b","strategies":["y"]}],"payoffs":[[[1,1]]]}')

    @staticmethod
    def _piped(monkeypatch, text: str, encoding: str) -> None:
        """Standard input as Python decodes a pipe in UTF-8 mode."""
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(
            io.BytesIO(text.encode(encoding)), encoding="utf-8", errors="surrogateescape"))

    @pytest.mark.parametrize("command", ["level", "analyze"])
    def test_non_utf8_standard_input_is_two(self, capsys, monkeypatch, command):
        self._piped(monkeypatch, self.LATIN1, "latin-1")
        assert main([command]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: standard input is not UTF-8 text: "
                                "invalid continuation byte at byte 45\n")

    def test_utf8_standard_input_is_read(self, capsys, monkeypatch):
        self._piped(monkeypatch, self.LATIN1, "utf-8")
        assert main(["level"]) == 0
        assert capsys.readouterr().out == "0\n"

    def test_closedform_public_goods_is_continuous(self, cli):
        # The continuous family takes no grid size and defaults b to 1.
        code, out, _ = cli(["closedform", "public_goods", "--param", "n=10", "c=2"])
        assert code == 0
        assert json.loads(out)["report"]["result"]["value"] == "4/5"
        code, _, err = cli(["closedform", "public_goods",
                            "--param", "n=10", "b=1", "c=2", "k=2"])
        assert code == 2
        assert "unknown parameters: k" in err

    def test_negative_alpha_is_two(self, cli):
        path = str(FIXTURES / "prisoners_dilemma.json")
        code, _, _ = cli(["transform", path, "--alpha", "-1"])
        assert code == 2
        code, _, _ = cli(["sweep", path, "--alphas", "0,-1/2"])
        assert code == 2

    @pytest.mark.parametrize("profile,message", [
        ([["x"], "y"], "player 1 has no strategy labelled ['x']"),
        (["x", {"y": 1}], "player 2 has no strategy labelled {'y': 1}"),
    ])
    def test_unhashable_sparse_label_is_two(self, cli, profile, message):
        document = json.dumps({
            "orientation": "payoff",
            "players": [{"name": "a", "strategies": ["x"]}, {"name": "b", "strategies": ["y"]}],
            "payoffs": [{"profile": profile, "values": [1, 2]}],
        })
        code, _, err = cli(["level"], stdin_text=document)
        assert code == 2
        assert err == f"error: {message}\n"

    def test_explosion_guard_is_three(self, cli):
        code, _, err = cli(["generate", "public_goods",
                            "--param", "n=10", "b=1", "c=2", "k=5"])
        assert code == 3
        assert "cells" in err

    def test_cap_flag_raises_guard(self, cli):
        code, _, _ = cli(["generate", "pd_n", "--param", "n=3", "--cap", "4"])
        assert code == 3

    FIXED_TABLES = [
        (["matching_pennies"], 4),
        (["battle_of_sexes"], 4),
        (["bad_nash_3x3"], 9),
        (["no_nash_2x2"], 4),
        (["weakly_acyclic_3x3"], 9),
        (["generalized_pd", "--param", "alpha=1/2", "beta=2"], 4),
    ]

    @pytest.mark.parametrize("argv,cells", FIXED_TABLES,
                             ids=[argv[0] for argv, _ in FIXED_TABLES])
    def test_fixed_tables_obey_cap(self, cli, argv, cells):
        code, _, err = cli(["generate", *argv, "--cap", "3"])
        assert code == 3
        assert f"has {cells} cells, exceeding the cap of 3" in err
        code, _, _ = cli(["generate", *argv, "--cap", str(cells)])
        assert code == 0

    @pytest.mark.parametrize("argv", [
        ["generate", "pd_n", "--param", "n=100000", "--cap", "3"],
        ["generate", "f_level", "--param", "n=10000000", "f=1", "--cap", "3"],
    ], ids=["pd_n", "f_level"])
    def test_unprintable_cell_count_is_three(self, cli, argv):
        start = time.perf_counter()
        code, out, err = cli(argv)
        assert time.perf_counter() - start < 2
        assert (code, out) == (3, "")
        assert err == ("error: joint strategy space has more than 10^4300 cells, "
                       "exceeding the cap of 3\n")

    def test_document_with_unprintable_cell_count_is_three(self, cli):
        players = [{"name": f"p{i}", "strategies": ["x", "y"]} for i in range(15000)]
        document = json.dumps({"orientation": "payoff", "players": players, "payoffs": []})
        code, _, err = cli(["level"], stdin_text=document)
        assert code == 3
        assert err == ("error: joint strategy space has more than 10^4300 cells, "
                       "exceeding the cap of 10000000\n")

    @pytest.mark.parametrize("argv,fixture", [
        (["analyze"], "prisoners_dilemma.json"),
        (["level"], "battle_of_sexes_sparse.json"),
        (["sweep", "--alphas", "0,1"], "prisoners_dilemma.json"),
    ])
    def test_document_over_cap_is_three(self, cli, argv, fixture):
        path = str(FIXTURES / fixture)
        code, _, err = cli([*argv, path, "--cap", "3"])
        assert code == 3
        assert "exceeding the cap of 3" in err
        code, _, _ = cli([*argv, path, "--cap", "4"])
        assert code == 0


def test_console_entry_point_round_trip(tmp_path):
    """One end-to-end run through real pipes."""
    generate = subprocess.run(
        [sys.executable, "-m", "selfishlevel.cli", "generate", "pd_n", "--param", "n=2"],
        capture_output=True, text=True, check=True,
    )
    level = subprocess.run(
        [sys.executable, "-m", "selfishlevel.cli", "level"],
        input=generate.stdout, capture_output=True, text=True, check=True,
    )
    assert level.stdout == "1\n"


def _readme_names(after: str, before: str) -> list[str]:
    text = " ".join(README.read_text(encoding="utf-8").split())
    start = text.index(after) + len(after)
    return re.findall(r"`([a-z0-9_]+)`", text[start:text.index(before, start)])


def test_readme_lists_the_registered_families():
    assert (_readme_names("Generator families:", "`closedform` additionally")
            == list(families.FAMILIES))
    assert (sorted(_readme_names("`closedform` additionally accepts", "("))
            == sorted(closedform.CONTINUOUS))


def test_parser_is_built_once_and_calls_stay_independent(cli, capsys, monkeypatch):
    code, pd3, _ = cli(["generate", "pd_n", "--param", "n=3"])
    assert code == 0

    def rebuilt():
        raise AssertionError("the parser was built again")

    monkeypatch.setattr(cli_module, "build_parser", rebuilt)
    # --param appends: a second call must not see the first call's values.
    code, pd2, _ = cli(["generate", "pd_n", "--param", "n=2"])
    assert code == 0 and pd2 != pd3
    assert cli(["level"], stdin_text=pd2)[:2] == (0, "1\n")
    _, inverse, _ = cli(["transform", "--alpha", "1/2", "--inverse"], stdin_text=pd3)
    assert cli(["transform", "--alpha", "1/2"], stdin_text=pd3)[1] != inverse
    with pytest.raises(SystemExit) as info:
        main(["sweep"])  # --alphas is required
    assert info.value.code == 2
    assert "the following arguments are required: --alphas" in capsys.readouterr().err
    with pytest.raises(SystemExit) as info:
        main(["--help"])
    assert info.value.code == 0
    assert capsys.readouterr().out.startswith("usage: selfishlevel")
    assert cli(["generate", "pd_n", "--param", "n=3"])[:2] == (0, pd3)


# ---------------------------------------------------------------------------
# fuzzing: every input ends in exit 0, 2 or 3
# ---------------------------------------------------------------------------

FUZZ = settings(derandomize=True, database=None, deadline=None, max_examples=400,
                suppress_health_check=[HealthCheck.too_slow])


def _as_sparse(doc: dict) -> dict:
    game = gamedoc.parse_game(json.dumps(doc))
    labels = game.strategy_labels
    return {**doc, "payoffs": [
        {"profile": [labels[i][j] for i, j in enumerate(profile)], "values": list(map(str, values))}
        for profile, values in zip(game.joint_strategies(), game.payoffs)]}


DOCUMENTS = [json.loads(path.read_text()) for path in sorted(FIXTURES.glob("*.json"))]
DOCUMENTS += list(map(_as_sparse, DOCUMENTS))  # each fixture in the other payoff form too
ODD_VALUES = st.one_of(
    st.integers(-3, 12),
    st.sampled_from([10**9, -10**9, 10**30, 2.5, float("nan"), None, True, [], {}, [[]]]),
    st.sampled_from(["1/2", "-7/3", "1/0", "x", "", "1.5", "0", "10/4", "F", "B"]),
)
SHARES = st.sampled_from(["0", "1/3", "1/2", "1", "3", "1000000000", "-1", "x", "1/0", "2.5"])
PARAM_VALUES = st.one_of(
    st.integers(1, 5).map(str),
    st.sampled_from(["1/2", "3/2", "5/2"]),
    st.integers(-3, 12).map(str),
    st.sampled_from(["1000000000", "999999999", "100000", "1/2", "-7/3", "3/2", "x", "",
                     "1/0", "1.5", "2e3", "0", "-1000000000"]),
)
CAPS = st.integers(-1, 4096).map(str)
# Specs that list every player are built before any cap check (ROADMAP item 1):
# the integer tight instances, whose player counts grow with these parameters,
# and a public-goods game with b = 0, whose n players share one cell.
PLAYER_PARAMS = {"cost_sharing_integer_tight": {"L"}, "congestion_integer_tight": {"L", "d_max"}}
SMALL_VALUES = st.integers(-3, 12).map(str)


def _positions(node):
    """Every (container, key) of a JSON tree, each container before its children."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in list(items):
        yield node, key
        yield from _positions(child)


@st.composite
def mutated_documents(draw) -> str:
    """A fixture document with up to three values replaced, deleted or
    duplicated, sometimes cut short.  Each value is drawn from all of the
    document's positions, or, half of the time, from those of lists and
    objects alone."""
    doc = copy.deepcopy(draw(st.sampled_from(DOCUMENTS)))
    for _ in range(draw(st.integers(0, 3))):
        positions = list(_positions(doc))
        if draw(st.booleans()):
            positions = [(p, k) for p, k in positions if isinstance(p[k], (dict, list))]
        if not positions:
            break
        parent, key = draw(st.sampled_from(positions))
        action = draw(st.sampled_from(["replace", "delete", "duplicate"]))
        if action == "replace":
            parent[key] = copy.deepcopy(draw(ODD_VALUES))
        elif action == "delete":
            del parent[key]
        elif isinstance(parent, list):
            parent.insert(key, copy.deepcopy(parent[key]))
    text = json.dumps(doc)
    return text[:draw(st.integers(0, len(text)))] if draw(st.sampled_from(range(10))) == 9 else text


@st.composite
def document_commands(draw) -> list[str]:
    command = draw(st.sampled_from(["level", "analyze", "dynamics", "sweep", "transform"]))
    if command == "transform":  # transform reads no cap
        argv = [command, "--alpha", draw(SHARES), "--model", draw(st.sampled_from("ABCD"))]
        for option in ("--scale", "--shift"):
            if draw(st.sampled_from(range(4))) == 3:
                argv += [option, draw(SHARES)]
        return argv + (["--inverse"] if draw(st.sampled_from(range(4))) == 3 else [])
    argv = [command, "--cap", draw(CAPS)]
    if command == "sweep":
        argv += ["--alphas", ",".join(draw(st.lists(SHARES, min_size=1, max_size=3)))]
    return argv


@st.composite
def family_commands(draw) -> list[str]:
    command = draw(st.sampled_from(["generate", "closedform"]))
    table = families.FAMILIES if command == "generate" else cli_module._CLOSED_FORM_FAMILIES
    name = draw(st.sampled_from(sorted(table)))
    values = {p.key: draw(SMALL_VALUES if p.key in PLAYER_PARAMS.get(name, ()) else PARAM_VALUES)
              for p in table[name].params if draw(st.sampled_from(range(10))) != 9}
    if name == "public_goods" and values.get("b") == "0" and "n" in values:
        values["n"] = draw(SMALL_VALUES)
    pairs = [f"{key}={value}" for key, value in values.items()]
    if draw(st.sampled_from(range(10))) == 9:
        pairs.append(draw(st.sampled_from(["zz=1", "n", "=3", pairs[0] if pairs else "k="])))
    return [command, name] + (["--param", *pairs] if pairs else []) + ["--cap", draw(CAPS)]


def _fuzz_main(argv, stdin_text=""):
    """Run ``main`` on one input: exit 0, 2 or 3, and a one-line error on
    failure; argparse's usage exit is the only exception let through."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except SystemExit as e:
        assert e.code == 2, (argv, err.getvalue())
        return
    finally:
        sys.stdin = saved
    assert code in (0, 2, 3), (argv, code)
    if code:
        assert re.fullmatch(r"error: [^\n]*\n", err.getvalue()), (argv, err.getvalue())
    else:
        assert out.getvalue() and not err.getvalue(), argv


@FUZZ
@given(document_commands(), mutated_documents())
def test_fuzz_document_commands(argv, document):
    _fuzz_main(argv, document)


@FUZZ
@given(family_commands())
def test_fuzz_family_params(argv):
    _fuzz_main(argv)
