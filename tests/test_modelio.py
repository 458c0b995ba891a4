import json
import re
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from groupoidal import ModelError, ModelFile, parse_model, serialize_model
from groupoidal.cli import main
from groupoidal.modelio import format_number, parse_number
from groupoidal.runtime import RuntimeModel

MODELS = Path(__file__).resolve().parent.parent / "models"


# ---------------------------------------------------------------------------
# numbers


@pytest.mark.parametrize("text,expected", [
    ("3", (Fraction(3), Fraction(0))),
    ("-3/2", (Fraction(-3, 2), Fraction(0))),
    ("0.5", (Fraction(1, 2), Fraction(0))),
    ("i", (Fraction(0), Fraction(1))),
    ("-i", (Fraction(0), Fraction(-1))),
    ("2i", (Fraction(0), Fraction(2))),
    ("3+2i", (Fraction(3), Fraction(2))),
    ("1/2-1/3i", (Fraction(1, 2), Fraction(-1, 3))),
])
def test_parse_number(text, expected):
    assert parse_number(text) == expected


def test_number_round_trip():
    for text in ("3", "-3/2", "i", "-i", "2i", "3+2i", "1/2-1/3i", "0"):
        z = parse_number(text)
        assert parse_number(format_number(z)) == z


def test_malformed_number_rejected():
    with pytest.raises(ModelError, match="malformed"):
        parse_number("3//2", line=12)


# ---------------------------------------------------------------------------
# parsing and round trips


def test_empty_model_parses():
    m = parse_model("version 1\n")
    assert m == ModelFile(version=1)


def test_shipped_model_parses_to_four_point_instance():
    m = parse_model(str(MODELS / "symmetric_z2z2.model"))
    rt = RuntimeModel(m)
    g4 = rt.groupoid("X4")
    assert len(g4.arrows) == 16
    gl = rt.action("GL")
    assert gl.side == "left"
    assert gl.unit_image(1, 1) == 3
    assert "symmetric_z2z2" in m.scenarios


def test_round_trip_is_identity():
    text = (MODELS / "symmetric_z2z2.model").read_text()
    m = parse_model(text)
    assert parse_model(serialize_model(m)) == m


_EXPLICIT_BLOCKS = """
version 1
group K
  elements: e a
  row e: e a
  row a: a e
end
space OM
  points: p q
end
groupoid Y
  units: u
  arrows: iu f
  arrow iu: u -> u inv iu
  arrow f: u -> u inv f
  unit u: iu
  comp iu iu = iu
  comp iu f = f
  comp f iu = f
  comp f f = iu
end
algebra B
  basis: x y
  prod x x: 1 0
  prod y y: 0 1
  star x: 1 0
  star y: 0 1
end
bundle V
  base: Y
  dim iu: 1
  dim f: 1
  mult iu iu: 1
  mult iu f: 1
  mult f iu: 1
  mult f f: 1
  star iu: 1
  star f: 1
end
action T
  kind: group_on_space
  group: K
  space: OM
  side: left
  map a: p=q q=p
end
scenario s
  op: coaction
  bundle: V
end
"""


@pytest.mark.parametrize("text", [
    _EXPLICIT_BLOCKS,
    # group rows as declared: out of element order, and one row missing
    "version 1\ngroup K\n  elements: e a\n  row a: a e\n  row e: e a\nend\n",
    "version 1\ngroup K\n  elements: e a\n  row e: e a\nend\n",
], ids=["explicit_blocks", "rows_out_of_order", "row_missing"])
def test_round_trip_explicit_blocks(text):
    m = parse_model(text)
    assert parse_model(serialize_model(m)) == m


# every block line form, in the order serialize_model writes them
_EVERY_LINE = """version 1
group K
  elements: e a
  row e: e a
  row a: a e
end
space S
  points: p (1,2)
end
groupoid Y
  units: u
  arrows: iu f
  arrow iu: u -> u inv iu
  arrow f: u -> u inv f
  unit u: iu
  comp iu iu = iu
  comp f f = iu
end
algebra B
  basis: x y
  prod x y: 1/2 -i
  star x: 1 3+2i
end
bundle V
  base: Y
  dim iu: 1
  dim f: -1
  mult iu f: 1
  star f: 1
end
action T
  kind: group_on_bundle
  group: K
  groupoid: Y
  target: Y
  space: S
  bundle: V
  base: T
  algebra: B
  side: right
  fibers: identity
  unit_perm a: u
  map a: p=(1,2) (1,2)=p
  fiber a f: 1
  matrix a: 0 1 1 0
end
scenario s
  op: raeburn
  action: T
  algebra: B
  bundle: V
  group_action: T
  groupoid_action: T
  left: T
  right: T
  sigma: T
  space: S
  target: Y
  tau: T
end
"""


def _leads(text: str) -> list:
    """(block head, leading token) of each block body line of ``text``."""
    leads, head = [], None
    for line in text.splitlines()[1:]:
        toks = line.split()
        if line.startswith("  "):
            leads.append((head, toks[0]))
        elif toks != ["end"]:
            head = toks[0]
    return leads


def test_every_block_line_round_trips():
    from groupoidal.modelio import LINES
    assert serialize_model(parse_model(_EVERY_LINE)) == _EVERY_LINE
    assert set(_leads(_EVERY_LINE)) == {(head, form.split()[0])
                                        for head, forms in LINES.items()
                                        for form, _field in forms}


def test_readme_lists_every_block_line():
    from groupoidal.modelio import LINES
    readme = (MODELS.parent / "README.md").read_text()
    rows = re.findall(r"^\| (\w+) \| `([^`]*)` \|$", readme, re.M)
    assert rows == [(head, form) for head, forms in LINES.items() for form, _field in forms]


# every builder one-liner, in the order serialize_model writes them
_ONE_LINERS = """version 1
group Z cyclic 3
space S
  points: a b
end
groupoid P pair 2
groupoid U units 2
algebra D diag 2
algebra M matrix 2
bundle L line P
bundle T trivial D S
"""


def test_every_one_liner_builds_and_round_trips():
    from groupoidal.modelio import BUILDERS
    m = parse_model(_ONE_LINERS)
    assert serialize_model(m) == _ONE_LINERS
    decls = [(head, d) for head in ("group", "groupoid", "algebra", "bundle")
             for d in getattr(m, head + "s").values()]
    assert {(head, d.builder[0]) for head, d in decls} == set(BUILDERS)
    rt = RuntimeModel(m)
    assert len(rt.group("Z").elements) == 3
    assert len(rt.groupoid("P").arrows) == 4 and rt.groupoid("U").units == (1, 2)
    assert rt.algebra("D").dimension == 2 and rt.algebra("M").dimension == 4
    assert rt.bundle("L").base is rt.groupoid("P")
    assert rt.bundle("T").base.units == ("a", "b")


def test_dangling_reference_named():
    text = """
version 1
group Z2 cyclic 2
action BAD
  kind: group_on_groupoid
  group: Z2
  target: NOWHERE
  side: left
end
"""
    with pytest.raises(ModelError, match="NOWHERE"):
        parse_model(text)


def test_wrong_entry_count_rejected():
    text = """
version 1
algebra B
  basis: x y
  prod x x: 1
  star x: 1 0
  star y: 0 1
end
"""
    m = parse_model(text)
    with pytest.raises(ModelError, match="entries"):
        RuntimeModel(m).algebra("B")


def test_parse_error_carries_line():
    with pytest.raises(ModelError, match="line 3"):
        parse_model("version 1\ngroup G\n  nonsense line here\nend\n")


# ---------------------------------------------------------------------------
# CLI


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_cli_validate_shipped_model(capsys):
    code, out = run_cli(capsys, "validate", str(MODELS / "symmetric_z2z2.model"))
    assert code == 0
    assert "overall: pass" in out


def test_cli_validate_empty_model(tmp_path, capsys):
    p = tmp_path / "empty.model"
    p.write_text("version 1\n")
    code, out = run_cli(capsys, "validate", str(p))
    assert code == 0


def test_cli_morita_symmetric(capsys):
    code, out = run_cli(capsys, "morita", "symmetric_z2z2",
                        str(MODELS / "symmetric_z2z2.model"))
    assert code == 0
    assert "verdict: equivalent" in out


def test_cli_reports_identical_across_runs(tmp_path, capsys):
    j1, j2 = tmp_path / "a.json", tmp_path / "b.json"
    run_cli(capsys, "morita", "symmetric_z2z2",
            str(MODELS / "symmetric_z2z2.model"), "--seed", "11",
            "--json", str(j1))
    run_cli(capsys, "morita", "symmetric_z2z2",
            str(MODELS / "symmetric_z2z2.model"), "--seed", "11",
            "--json", str(j2))
    assert j1.read_bytes() == j2.read_bytes()
    data = json.loads(j1.read_text())
    assert data["status"] == "pass" and data["seed"] == 11


def test_cli_check_equivalence(capsys):
    code, out = run_cli(capsys, "check-equivalence", "base_equivalence",
                        str(MODELS / "symmetric_z2z2.model"))
    assert code == 0
    code, out = run_cli(capsys, "check-equivalence", "bundle_equivalence",
                        str(MODELS / "symmetric_z2z2.model"))
    assert code == 0


def test_cli_demo_coaction(capsys):
    code, out = run_cli(capsys, "demo", "coaction", "--group", "Z2")
    assert code == 0
    assert "verdict: equivalent" in out
    code, out = run_cli(capsys, "demo", "coaction", "--group", "Z3")
    assert code == 0
    assert "blocks [3, 3, 3]" in out and "blocks [1, 1, 1]" in out


def test_cli_demo_raeburn(capsys):
    code, out = run_cli(capsys, "demo", "raeburn")
    assert code == 0
    code, out = run_cli(capsys, "demo", "raeburn", "--two-sided")
    assert code == 0


def test_cli_build_round_trip(tmp_path, capsys):
    out_path = tmp_path / "built.model"
    code, _ = run_cli(capsys, "build", "pair_groupoid", "3",
                      "-o", str(out_path), "--name", "P3")
    assert code == 0
    built = parse_model(str(out_path))
    assert parse_model(serialize_model(built)) == built
    g = RuntimeModel(built).groupoid("P3")
    assert len(g.arrows) == 9
    # and the emitted file survives a validate run
    code, out = run_cli(capsys, "validate", str(out_path))
    assert code == 0


def test_cli_build_quotient_and_algebra(tmp_path, capsys):
    out1 = tmp_path / "q.model"
    code, _ = run_cli(capsys, "build", "quotient_groupoid", "X4", "HR",
                      "-m", str(MODELS / "symmetric_z2z2.model"),
                      "-o", str(out1), "--name", "Q")
    assert code == 0
    q = RuntimeModel(parse_model(str(out1))).groupoid("Q")
    assert len(q.arrows) == 8
    out2 = tmp_path / "alg.model"
    code, _ = run_cli(capsys, "build", "section_algebra", "A",
                      "-m", str(MODELS / "symmetric_z2z2.model"),
                      "-o", str(out2), "--name", "SA")
    assert code == 0
    alg = RuntimeModel(parse_model(str(out2))).algebra("SA")
    assert alg.dimension == 16


def test_cli_usage_error_exit_code(capsys, tmp_path):
    p = tmp_path / "broken.model"
    p.write_text("version 1\nnonsense\n")
    code = main(["validate", str(p)])
    assert code == 3
    # malformed arguments name themselves on one error line, no traceback
    out = str(tmp_path / "out.model")
    for argv, named in (
            (["demo", "coaction", "--group", "X"], "--group"),
            (["demo", "coaction", "--group", "Z0"], "--group"),
            (["build", "pair_groupoid", "-o", out], "build pair_groupoid"),
            (["build", "pair_groupoid", "abc", "-o", out], "build pair_groupoid"),
            (["build", "cyclic_group", "0", "-o", out], "build cyclic_group"),
            (["build", "semidirect_left", "X", "-o", out], "build semidirect_left")):
        capsys.readouterr()
        assert main(argv) == 3, argv
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and named in err[0], (argv, err)


def test_cli_tol_env_override(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("GROUPOIDAL_TOL", "1e-6")
    from groupoidal.cli import build_parser
    args = build_parser().parse_args(["validate", "x.model"])
    assert args.tol == 1e-6


def test_cli_parser_follows_the_tol_env_between_calls(tmp_path, capsys, monkeypatch):
    # main() keeps one parser per GROUPOIDAL_TOL value: each call in a
    # process reports the tolerance of the environment it runs in
    p = tmp_path / "one.model"
    p.write_text("version 1\ngroupoid Y units 1\n")
    for env, shown in (("1e-6", "tol=1e-06"), ("1e-3", "tol=0.001"), ("1e-6", "tol=1e-06")):
        monkeypatch.setenv("GROUPOIDAL_TOL", env)
        code, out = run_cli(capsys, "validate", str(p))
        assert code == 0 and shown in out.splitlines()[0], (env, out)
    monkeypatch.setenv("GROUPOIDAL_TOL", "abc")
    assert "GROUPOIDAL_TOL" in _usage_error(capsys, ["validate", str(p)])
    monkeypatch.delenv("GROUPOIDAL_TOL")
    assert "tol=1e-09" in run_cli(capsys, "validate", str(p))[1].splitlines()[0]


@pytest.mark.parametrize("argv,env,named", [
    (["demo", "coaction", "--tol", "inf"], None, "--tol"),
    (["demo", "coaction", "--tol", "nan"], None, "--tol"),
    (["demo", "coaction", "--tol", "-1"], None, "--tol"),
    (["demo", "coaction", "--tol", "abc"], None, "--tol"),
    (["demo", "coaction", "--seed", "-1"], None, "--seed"),
    (["demo", "coaction"], "inf", "GROUPOIDAL_TOL"),
    (["--version"], "abc", "GROUPOIDAL_TOL"),
])
def test_cli_rejects_a_bad_tolerance_or_seed(capsys, monkeypatch, argv, env, named):
    # a tolerance is a finite number >= 0 and a seed an integer >= 0
    if env is not None:
        monkeypatch.setenv("GROUPOIDAL_TOL", env)
    assert named in _usage_error(capsys, argv)


def test_cli_failing_scenario_exit_code(tmp_path, capsys):
    # precondition failures are report entries with a failing exit status
    text = """
version 1
group Z2 cyclic 2
groupoid X2 pair 2
bundle A line X2
action LAZY
  kind: group_on_groupoid
  group: Z2
  target: X2
  side: left
end
action LAZYB
  kind: group_on_bundle
  bundle: A
  base: LAZY
  side: left
  fibers: identity
end
action TRIVH
  kind: group_on_groupoid
  group: Z2
  target: X2
  side: right
end
action TRIVHB
  kind: group_on_bundle
  bundle: A
  base: TRIVH
  side: right
  fibers: identity
end
scenario bad
  op: symmetric_morita
  bundle: A
  left: LAZYB
  right: TRIVHB
end
"""
    p = tmp_path / "bad.model"
    p.write_text(text)
    code = main(["morita", "bad", str(p)])
    out = capsys.readouterr().out
    assert code == 1
    assert "precondition" in out and "not free" in out


@pytest.mark.parametrize("left_on,right_on", [("Y", "X"), ("X", "Y")])
def test_cli_groupoid_equivalence_needs_both_actions_on_the_target(
        tmp_path, capsys, left_on, right_on):
    # an action on another groupoid than the scenario's target fails the
    # precondition by name, not through a missing entry of an action table
    perm = {"X": "2 1 4 3", "Y": "2 1 4 3 6 5"}
    text = f"""
version 1
group Z2 cyclic 2
groupoid X pair 4
groupoid Y pair 6
action GL
  kind: group_on_groupoid
  group: Z2
  target: {left_on}
  side: left
  unit_perm 1: {perm[left_on]}
end
action HR
  kind: group_on_groupoid
  group: Z2
  target: {right_on}
  side: right
  unit_perm 1: {perm[right_on]}
end
scenario s
  op: groupoid_equivalence
  target: X
  left: GL
  right: HR
end
"""
    p = tmp_path / "other_target.model"
    p.write_text(text)
    code = main(["check-equivalence", "s", str(p)])
    captured = capsys.readouterr()
    assert code == 1
    assert "    precondition: both actions must act on x" in captured.out.splitlines()
    assert "Traceback" not in captured.err


_PAIR2 = """
version 1
group Z2 cyclic 2
groupoid X2 pair 2
bundle A line X2
action GL
  kind: group_on_groupoid
  group: Z2
  target: X2
  side: left
  unit_perm 1: 2 1
end
action HR
  kind: group_on_groupoid
  group: Z2
  target: X2
  side: right
  unit_perm 1: 2 1
end
action HRB
  kind: group_on_bundle
  bundle: A
  base: HR
  side: right
  fibers: identity
end
"""

# a groupoid with one product missing: its line bundle has no shape there
_TWO_ARROWS = """
version 1
groupoid G
  units: u
  arrows: e f
  arrow e: u -> u inv e
  arrow f: u -> u inv f
  unit u: e
  comp e e = e
  comp e f = f
  comp f e = f
end
bundle L line G
"""

_MALFORMED = {
    "scenario_without_left": _PAIR2 + "scenario s\n  op: symmetric_morita\n  bundle: A\n"
                                      "  right: HRB\nend\n",
    "scenario_with_groupoid_actions": _PAIR2 + "scenario s\n  op: symmetric_morita\n"
                                               "  bundle: A\n  left: GL\n  right: HR\nend\n",
    "group_row_too_long": "version 1\ngroup K\n  elements: e a\n  row e: e a a\n"
                          "  row a: a e\nend\n",
    "comp_missing": _TWO_ARROWS,
    "comp_outside_arrows": _TWO_ARROWS.replace("end\nbundle", "  comp f f = zzz\nend\nbundle"),
    "inverse_outside_arrows": _TWO_ARROWS.replace("inv f", "inv zzz"),
    "image_outside_arrows": _PAIR2 + """action GN
  kind: group_on_groupoid
  group: Z2
  target: X2
  side: left
  map 1: (1,1)=(2,2) (2,2)=(1,1) (1,2)=nowhere (2,1)=(1,2)
end
""",
    "space_map_over_no_arrow": _PAIR2 + """space OM
  points: a b
end
action Y
  kind: groupoid_on_space
  groupoid: X2
  space: OM
  side: left
  map (1,1): a=a
  map (2,2): b=b
  map (9,9): b=b
end
""",
    "fiber_over_no_arrow": _PAIR2 + """action GLB
  kind: group_on_bundle
  bundle: A
  base: GL
  side: left
  fiber 1 (7,7): 1
end
""",
    "fiber_entry_count": _PAIR2 + """action GLB
  kind: group_on_bundle
  bundle: A
  base: GL
  side: left
  fiber 1 (1,1): 1 0
end
""",
    # raeburn over a groupoid that is not a group fails its precondition
    "raeburn_over_groupoid_spaces": _PAIR2 + """space OM
  points: a b
end
algebra C1 diag 1
action Y
  kind: groupoid_on_space
  groupoid: X2
  space: OM
  side: left
  map (1,1): a=a
  map (2,2): b=b
end
action YR
  kind: groupoid_on_space
  groupoid: X2
  space: OM
  side: right
  map (1,1): a=a
  map (2,2): b=b
end
action S
  kind: group_on_algebra
  group: Z2
  algebra: C1
  side: left
  matrix 1: 1
end
scenario s
  op: raeburn
  space: OM
  left: Y
  right: YR
  algebra: C1
  sigma: S
  tau: S
end
""",
}


@pytest.mark.parametrize("name,command", [
    (name, command) for name in _MALFORMED
    for command in {"scenario": ("morita", "check-equivalence"),
                    "raeburn": ("morita",)}.get(name.split("_")[0], ("validate",))])
def test_cli_malformed_model_fails_or_names_the_error(tmp_path, capsys, name, command):
    # a malformed model fails with a failing report entry (exit 1) or is a
    # usage error on one line (exit 3), never a traceback
    p = tmp_path / "malformed.model"
    p.write_text(_MALFORMED[name])
    argv = [command, str(p)] if command == "validate" else [command, "s", str(p)]
    code = main(argv)
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert "Traceback" not in captured.err
    if code == 1:
        assert any(line.startswith("[fail]") for line in captured.out.splitlines())
    else:
        assert code == 3 and len(err) == 1 and err[0].startswith("error: "), (code, err)
    if name.startswith("scenario"):  # the error names the scenario and the reference
        assert code == 3 and "'s'" in err[0] and ("'left'" in err[0] or "'GL'" in err[0])


# ---------------------------------------------------------------------------
# every public operation is reachable from the CLI


COVERAGE_MODEL = """
version 1
group Z2 cyclic 2
groupoid X4 pair 4
bundle A line X4
space OM
  points: 0 1
end
group Y2 cyclic 2
bundle B line Y2
action YOM
  kind: groupoid_on_space
  groupoid: Y2
  space: OM
  side: left
  map 0: 0=0 1=1
  map 1: 0=1 1=0
end
action GOM
  kind: group_on_space
  group: Z2
  space: OM
  side: left
  map 1: 0=1 1=0
end
action GL
  kind: group_on_groupoid
  group: Z2
  target: X4
  side: left
  unit_perm 1: 3 4 1 2
end
action HR
  kind: group_on_groupoid
  group: Z2
  target: X4
  side: right
  unit_perm 1: 2 1 4 3
end
action GLB
  kind: group_on_bundle
  bundle: A
  base: GL
  side: left
  fibers: identity
end
action HRB
  kind: group_on_bundle
  bundle: A
  base: HR
  side: right
  fibers: identity
end
algebra C1 diag 1
scenario sym
  op: symmetric_morita
  bundle: A
  left: GLB
  right: HRB
end
scenario one
  op: one_sided_morita
  bundle: A
  left: GLB
end
scenario trans
  op: transformation_morita
  bundle: B
  groupoid_action: YOM
  group_action: GOM
end
scenario geq
  op: groupoid_equivalence
  target: X4
  left: GL
  right: HR
end
scenario prin
  op: principal
  target: X4
  action: HR
  bundle: A
  right: HRB
end
"""



def test_every_operation_reachable_from_cli(tmp_path, capsys):
    import groupoidal.algebras as alg_mod
    import groupoidal.bundles as bun_mod
    import groupoidal.groupoids as gpd_mod
    import groupoidal.morita as mor_mod

    ops = {
        "validate_groupoid": gpd_mod.validate_groupoid,
        "make_pair_groupoid": gpd_mod.make_pair_groupoid,
        "make_group": gpd_mod.make_group,
        "check_action": gpd_mod.check_action,
        "is_free": gpd_mod.is_free,
        "transformation_groupoid": gpd_mod.transformation_groupoid,
        "semidirect_left": gpd_mod.semidirect_left,
        "semidirect_right": gpd_mod.semidirect_right,
        "quotient_groupoid": gpd_mod.quotient_groupoid,
        "orbit_space_action": gpd_mod.orbit_space_action,
        # its covariance check; check_covariant is only the predicate form of it
        "semidirect_space_action": gpd_mod.semidirect_space_action,
        "semidirect_right_space_action": gpd_mod.semidirect_right_space_action,
        "symmetric_groupoid_equivalence": gpd_mod.symmetric_groupoid_equivalence,
        "bracket_table": gpd_mod.bracket_table,
        "verify_groupoid_equivalence": gpd_mod.verify_groupoid_equivalence,
        "principal_decomposition": gpd_mod.principal_decomposition,
        "validate_fell_bundle": bun_mod.validate_fell_bundle,
        "make_trivial_cbundle": bun_mod.make_trivial_cbundle,
        "pullback_bundle": bun_mod.pullback_bundle,
        "transformation_fell_bundle": bun_mod.transformation_fell_bundle,
        "check_bundle_action": bun_mod.check_bundle_action,
        "is_free_bundle_action": bun_mod.is_free_bundle_action,
        "semidirect_fell_bundle": bun_mod.semidirect_fell_bundle,
        "quotient_fell_bundle": bun_mod.quotient_fell_bundle,
        "orbit_bundle_action": bun_mod.orbit_bundle_action,
        "semidirect_orbit_bundle_action": bun_mod.semidirect_orbit_bundle_action,
        "principal_fell_decomposition": bun_mod.principal_fell_decomposition,
        "symmetric_action_equivalence": bun_mod.symmetric_action_equivalence,
        "one_sided_equivalence": bun_mod.one_sided_equivalence,
        "one_sided_transformation_equivalence":
            bun_mod.one_sided_transformation_equivalence,
        "verify_bundle_equivalence": bun_mod.verify_bundle_equivalence,
        "section_algebra": alg_mod.section_algebra,
        "regular_representation": alg_mod.regular_representation,
        "star_structure_report": alg_mod.star_structure_report,
        "crossed_product": alg_mod.crossed_product,
        "linking_system": mor_mod.linking_system,
        "verify_morita": mor_mod.verify_morita,
        "symmetric_morita": mor_mod.symmetric_morita,
        "one_sided_morita": mor_mod.one_sided_morita,
        "cstar_bundle_morita": mor_mod.cstar_bundle_morita,
        "raeburn": mor_mod.raeburn,
        "coaction_demo": mor_mod.coaction_demo,
    }
    codes = {fn.__code__: name for name, fn in ops.items()}
    seen = set()

    def tracer(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            seen.add(codes[frame.f_code])

    model_path = tmp_path / "coverage.model"
    model_path.write_text(COVERAGE_MODEL)
    cstar_path = tmp_path / "cstar.model"
    cstar_path.write_text(_cstar_model_text(tmp_path))

    commands = [
        ["validate", str(model_path)],
        ["morita", "sym", str(model_path)],
        ["morita", "one", str(model_path)],
        ["morita", "trans", str(model_path)],
        ["morita", "cstar", str(cstar_path)],
        ["check-equivalence", "geq", str(model_path)],
        ["check-equivalence", "prin", str(model_path)],
        ["demo", "raeburn"],
        ["demo", "coaction", "--group", "Z2"],
        ["build", "pullback_bundle", "B", "YOM",
         "-m", str(model_path), "-o", str(tmp_path / "pb.model")],
        ["build", "crossed_product", "A", "GLB",
         "-m", str(model_path), "-o", str(tmp_path / "cp.model")],
        ["build", "semidirect_right", "HR", "X4",
         "-m", str(model_path), "-o", str(tmp_path / "sdr.model")],
    ]
    sys.setprofile(tracer)
    try:
        for argv in commands:
            assert main(argv) == 0, argv
    finally:
        sys.setprofile(None)
    capsys.readouterr()
    missing = sorted(set(ops) - seen)
    assert not missing, f"operations unreachable from the CLI: {missing}"


# every construction of `build`, with arguments naming objects of the
# coverage model
_BUILD_RUNS = {
    "pair_groupoid": ["3"], "cyclic_group": ["3"], "transformation_groupoid": ["YOM"],
    "semidirect_left": ["X4", "GL"], "semidirect_right": ["HR", "X4"],
    "quotient_groupoid": ["X4", "HR"], "orbit_space_action": ["X4", "HR"],
    "section_algebra": ["A"], "crossed_product": ["A", "GLB"],
    "semidirect_fell_bundle": ["A", "GLB"], "quotient_fell_bundle": ["A", "HRB"],
    "transformation_fell_bundle": ["B", "YOM"], "pullback_bundle": ["B", "YOM"],
}


def test_build_runs_cover_every_construction():
    from groupoidal.cli import BUILDS
    assert set(BUILDS) == set(_BUILD_RUNS)


@pytest.mark.parametrize("construction", sorted(_BUILD_RUNS))
def test_cli_build_output_round_trips_and_validates(tmp_path, capsys, construction):
    # each emitted model parses back, serializes to the same text and validates
    model_path = tmp_path / "coverage.model"
    model_path.write_text(COVERAGE_MODEL)
    out_path = tmp_path / "built.model"
    argv = ["build", construction, *_BUILD_RUNS[construction],
            "-m", str(model_path), "-o", str(out_path)]
    assert main(argv) == 0
    text = out_path.read_text()
    assert serialize_model(parse_model(text)) == text
    assert main(["validate", str(out_path)]) == 0
    capsys.readouterr()


def _usage_error(capsys, argv) -> str:
    """The one `error:` line of a command that must exit 3, without the prefix."""
    capsys.readouterr()
    assert main(argv) == 3, argv
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert "Traceback" not in captured.err and len(err) == 1, err
    assert err[0].startswith("error: "), err
    return err[0][len("error: "):]


@pytest.mark.parametrize("args,kind", [
    (["transformation_groupoid", "GL"], "group_on_space or groupoid_on_space"),
    (["semidirect_left", "X4", "GLB"], "group_on_groupoid"),
    (["crossed_product", "A", "GL"], "group_on_bundle"),
])
def test_cli_build_rejects_an_action_of_another_kind(tmp_path, capsys, args, kind):
    model_path = tmp_path / "coverage.model"
    model_path.write_text(COVERAGE_MODEL)
    argv = ["build", *args, "-m", str(model_path), "-o", str(tmp_path / "x.model")]
    assert _usage_error(capsys, argv) == (
        f"build {args[0]}: argument {len(args) - 1} {args[-1]!r} is not a {kind} action")
    assert not (tmp_path / "x.model").exists()


@pytest.mark.parametrize("text,message", [
    ("version 1\ngroup G cyclic\n", "line 2: group cyclic takes 1 argument(s), got 0"),
    ("version 1\ngroup G cyclic abc\n",
     "line 2: group cyclic needs a non-negative integer, got 'abc'"),
    ("version 1\ngroup G cyclic 2 3\n", "line 2: group cyclic takes 1 argument(s), got 2"),
    ("version 1\nbundle B trivial A\n", "line 2: bundle trivial takes 2 argument(s), got 1"),
    ("version 1\nalgebra C diag -1\n",
     "line 2: algebra diag needs a non-negative integer, got '-1'"),
    ("version\n", "line 1: version takes one non-negative integer"),
    ("version abc\n", "line 1: version takes one non-negative integer"),
    ("version 1\ngroup\n", "line 2: group declaration without a name"),
    # a block line must match its form whole: no token missing, none left over
    ("version 1\nbundle B\n  base:\nend\n",
     "line 3: bad bundle line 'base:', expected 'base: GROUPOID'"),
    ("version 1\nscenario s\n  op:\nend\n",
     "line 3: bad scenario line 'op:', expected 'op: WORD'"),
    ("version 1\naction T\n  kind:\nend\n",
     "line 3: bad action line 'kind:', expected 'kind: WORD'"),
    ("version 1\ngroup K\n  elements: e\n  row\nend\n",
     "line 4: bad group line 'row', expected 'row IDENT: IDENT...'"),
    ("version 1\ngroupoid Y\n  units: u\n  unit\nend\n",
     "line 4: bad groupoid line 'unit', expected 'unit IDENT: IDENT'"),
    ("version 1\nalgebra B\n  basis: x\n  prod a\nend\n",
     "line 4: bad algebra line 'prod a', expected 'prod IDENT IDENT: NUMBER...'"),
    ("version 1\nbundle B\n  star\nend\n",
     "line 3: bad bundle line 'star', expected 'star IDENT: NUMBER...'"),
    ("version 1\naction T\n  map\nend\n",
     "line 3: bad action line 'map', expected 'map IDENT: IDENT=IDENT...'"),
    ("version 1\naction T\n  unit_perm\nend\n",
     "line 3: bad action line 'unit_perm', expected 'unit_perm IDENT: IDENT...'"),
    ("version 1\naction T\n  fiber e\nend\n",
     "line 3: bad action line 'fiber e', expected 'fiber IDENT IDENT: NUMBER...'"),
    ("version 1\nbundle B\n  dim (1,1): abc\nend\n",
     "line 3: bad bundle line 'dim (1,1): abc', expected 'dim IDENT: INT' "
     "(invalid literal for int() with base 10: 'abc')"),
    ("version 1\nbundle B\n  base: X Y\nend\n",
     "line 3: bad bundle line 'base: X Y', expected 'base: GROUPOID'"),
    ("version 1\nbundle B\n  dim (1,1): 1 7\nend\n",
     "line 3: bad bundle line 'dim (1,1): 1 7', expected 'dim IDENT: INT'"),
    ("version 1\ngroupoid Y\n  unit u: a b\nend\n",
     "line 3: bad groupoid line 'unit u: a b', expected 'unit IDENT: IDENT'"),
    ("version 1\nscenario s\n  op: coaction extra\nend\n",
     "line 3: bad scenario line 'op: coaction extra', expected 'op: WORD'"),
    ("version 1\naction T\n  side: left right\nend\n",
     "line 3: bad action line 'side: left right', expected 'side: WORD'"),
    # a groupoid lists each unit and each arrow once
    ("version 1\ngroupoid Y\n  units: a b a\nend\n", "line 3: groupoid 'Y' lists unit a twice"),
    (_TWO_ARROWS.replace("arrows: e f", "arrows: e f e"),
     "line 5: groupoid 'G' lists arrow e twice"),
])
def test_malformed_declaration_is_a_usage_error_naming_its_line(tmp_path, capsys, text, message):
    p = tmp_path / "malformed.model"
    p.write_text(text)
    assert _usage_error(capsys, ["validate", str(p)]) == message


@pytest.mark.parametrize("text,message", [
    ("version 1\ngroupoid Y units 1\nbundle B\n  dim (1,1): 1\nend\n",
     "bundle 'B' has no base"),
    ("version 1\ngroup Z2 cyclic 2\naction A\n  group: Z2\n  side: left\nend\n",
     "action 'A' has no kind"),
])
def test_block_without_its_required_line_is_a_usage_error(tmp_path, capsys, text, message):
    # like a group without elements: or a scenario without op:
    p = tmp_path / "missing.model"
    p.write_text(text)
    assert _usage_error(capsys, ["validate", str(p)]) == message


def test_one_liner_references_are_resolved():
    with pytest.raises(ModelError, match="bundle B references unknown space 'NOWHERE'"):
        parse_model("version 1\nalgebra C diag 1\nbundle B trivial C NOWHERE\n")


def test_cli_validate_notes_freeness_of_actions_only(tmp_path, capsys):
    # GN fails "each element acts bijectively", so it is not an action whose
    # freeness means anything; the actions that pass keep their note
    p = tmp_path / "image.model"
    p.write_text(_MALFORMED["image_outside_arrows"])
    code, out = run_cli(capsys, "validate", str(p))
    assert code == 1
    entries = out.split("\n[")
    gn = next(e for e in entries if e.startswith("fail] action GN"))
    assert "free:" not in gn
    assert all("note  free: True" in e for e in entries
               if e.startswith(("pass] action GL", "pass] action HR", "pass] action HRB")))


def _cstar_model_text(tmp_path) -> str:
    # the trivial C*-bundle lives over an anonymous unit groupoid, so the
    # group action is declared against an explicitly emitted copy
    return """
version 1
group Z2 cyclic 2
space OM
  points: 1 2
end
groupoid U units 2
algebra C1 diag 1
bundle TB trivial C1 OM
action TRL
  kind: group_on_groupoid
  group: Z2
  target: U
  side: left
  unit_perm 1: 2 1
end
action TRLB
  kind: group_on_bundle
  bundle: TB
  base: TRL
  side: left
  fibers: identity
end
scenario cstar
  op: cstar_bundle_morita
  bundle: TB
  left: TRLB
end
"""


def test_cli_validate_reports_corrupt_objects(tmp_path, capsys):
    # axiom violations become failing report entries, not crashes
    text = """
version 1
groupoid BAD
  units: u
  arrows: iu f
  arrow iu: u -> u inv iu
  arrow f: u -> u inv f
  unit u: iu
  comp iu iu = iu
  comp iu f = f
  comp f iu = f
  comp f f = f
end
"""
    p = tmp_path / "corrupt.model"
    p.write_text(text)
    code, out = run_cli(capsys, "validate", str(p))
    assert code == 1
    assert "FAIL" in out and "overall: fail" in out
