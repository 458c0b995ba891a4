"""Batch command-line driver: validate, build, check-equivalence, morita, demo.

Exit status: 0 pass, 1 fail, 2 indeterminate, 3 usage or parse error.
Reports go to stdout, deterministically for a fixed model, seed, and
tolerance; --json writes the machine-readable form to a file.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass, field

from . import __version__
from ._util import DEFAULT_TOL
from .algebras import (
    AlgebraAction,
    StarAlgebra,
    check_algebra_action,
    check_star_algebra,
    crossed_product,
    section_algebra,
    star_structure_report,
)
from .bundles import (
    BundleAction,
    FellBundle,
    check_bundle_action,
    check_module_action,
    is_free_bundle_action,
    one_sided_transformation_equivalence,
    orbit_bundle_action,
    principal_fell_decomposition,
    pullback_bundle,
    quotient_fell_bundle,
    semidirect_fell_bundle,
    symmetric_action_equivalence,
    transformation_fell_bundle,
    trivial_line_bundle,
    validate_fell_bundle,
    verify_bundle_equivalence,
    verify_bundle_iso,
)
from .groupoids import (
    FiniteGroup,
    FiniteGroupoid,
    GroupAction,
    GroupoidHom,
    SpaceAction,
    check_action,
    check_space_action,
    is_free,
    make_pair_groupoid,
    orbit_space_action,
    principal_decomposition,
    quotient_groupoid,
    semidirect_left,
    semidirect_right,
    symmetric_groupoid_equivalence,
    transformation_groupoid,
    validate_groupoid,
    verify_groupoid_equivalence,
)
from .instances import cyclic_group, raeburn_four_points, raeburn_two_points
from .modelio import ModelError, ModelFile, SpaceDecl, parse_model, serialize_model
from .morita import (
    coaction_demo,
    cstar_bundle_morita,
    one_sided_morita,
    one_sided_transformation_morita,
    raeburn,
    symmetric_morita,
)
from .report import InvalidStructureError, ValidationReport
from .runtime import (
    RuntimeModel,
    algebra_to_decl,
    bundle_to_decl,
    group_to_decl,
    groupoid_to_decl,
    space_action_to_decl,
)

EXIT_PASS, EXIT_FAIL, EXIT_INDETERMINATE, EXIT_USAGE = 0, 1, 2, 3


def _pullback(bundle: FellBundle, act: SpaceAction) -> FellBundle:
    """``bundle`` pulled back along the coordinate projection (x, u) -> x."""
    tg = transformation_groupoid(act.groupoid, act)
    return pullback_bundle(GroupoidHom(tg, bundle.base, {(x, u): x for (x, u) in tg.arrows}),
                           bundle)


# each construction of `build`: the kinds of its arguments ("count" for a
# positive integer, "groupoid" or "bundle" for a model name, an action class
# for the name of an action of that kind), the construction, and its report
# line, formatted with the arguments and the sizes of the built object.  The
# lambdas look their function up when called, so that a function patched on
# this module (as bench/spans.py does) is the one that runs.
BUILDS = {
    "pair_groupoid": (("count",), lambda n: make_pair_groupoid(n),
                      "pair groupoid on {0} points: {arrows} arrows"),
    "cyclic_group": (("count",), lambda n: cyclic_group(n), "cyclic group of order {0}"),
    "transformation_groupoid": (
        (SpaceAction,), lambda a: transformation_groupoid(a.groupoid, a),
        "transformation groupoid: {arrows} arrows, {units} units"),
    "semidirect_left": (("groupoid", GroupAction), lambda x, a: semidirect_left(x, a),
                        "semidirect product: {arrows} arrows"),
    "semidirect_right": ((GroupAction, "groupoid"), lambda a, x: semidirect_right(a, x),
                         "semidirect product: {arrows} arrows"),
    "quotient_groupoid": (("groupoid", GroupAction), lambda x, a: quotient_groupoid(x, a)[0],
                          "orbit groupoid: {arrows} arrows, {units} units"),
    "orbit_space_action": (("groupoid", GroupAction),
                           lambda x, a: orbit_space_action(x, a),
                           "orbit action on {points} points"),
    "section_algebra": (("bundle",), lambda b: section_algebra(b),
                        "section algebra of dimension {dimension}"),
    "crossed_product": (("bundle", BundleAction), lambda b, a: crossed_product(b, a),
                        "crossed product of dimension {dimension}"),
    "semidirect_fell_bundle": (("bundle", BundleAction),
                               lambda b, a: semidirect_fell_bundle(b, a),
                               "semidirect bundle with {fibers} fibers"),
    "quotient_fell_bundle": (("bundle", BundleAction),
                             lambda b, a: quotient_fell_bundle(b, a)[0],
                             "orbit bundle with {fibers} fibers"),
    "transformation_fell_bundle": (("bundle", SpaceAction),
                                   lambda b, a: transformation_fell_bundle(b, a),
                                   "transformation bundle with {fibers} fibers"),
    "pullback_bundle": (("bundle", SpaceAction), lambda b, a: _pullback(b, a),
                        "pullback along the coordinate projection: {fibers} fibers"),
}


@dataclass
class RunReport:
    command: str
    seed: int
    tol: float
    version: str = __version__
    show_timings: bool = False  # timings vary run to run, so off by default
    entries: list = field(default_factory=list)

    def add(self, name: str, status: str, lines: list,
            seconds: float | None = None) -> None:
        self.entries.append({"name": name, "status": status,
                             "lines": list(lines), "seconds": seconds})

    @property
    def status(self) -> str:
        order = {"pass": 0, "indeterminate": 1, "fail": 2}
        worst = max((order.get(e["status"], 2) for e in self.entries), default=0)
        return {0: "pass", 1: "indeterminate", 2: "fail"}[worst]

    def exit_code(self) -> int:
        return {"pass": EXIT_PASS, "indeterminate": EXIT_INDETERMINATE,
                "fail": EXIT_FAIL}[self.status]

    def to_dict(self) -> dict:
        entries = []
        for e in self.entries:
            item = {"name": e["name"], "status": e["status"], "lines": e["lines"]}
            if self.show_timings and e.get("seconds") is not None:
                item["seconds"] = round(e["seconds"], 3)
            entries.append(item)
        return {
            "command": self.command,
            "seed": self.seed,
            "tol": self.tol,
            "tool_version": self.version,
            "entries": entries,
            "status": self.status,
        }

    def render(self) -> str:
        out = [f"groupoidal {self.version}  command={self.command} "
               f"seed={self.seed} tol={self.tol:g}"]
        for e in self.entries:
            tail = ""
            if self.show_timings and e.get("seconds") is not None:
                tail = f"  ({e['seconds']:.2f}s)"
            out.append(f"[{e['status']}] {e['name']}{tail}")
            out.extend("    " + line for line in e["lines"])
        out.append(f"overall: {self.status}")
        return "\n".join(out)


def _report_lines(rep: ValidationReport) -> list:
    return str(rep).splitlines()


def _positive_int(text: str, name: str) -> int:
    """``text`` as an integer >= 1, or a usage error naming the argument."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise ModelError(f"{name} must be a positive integer, got {text!r}")
    return value


def _default_tol() -> float:
    env = os.environ.get("GROUPOIDAL_TOL")
    return float(env) if env else DEFAULT_TOL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="groupoidal",
        description="Finite groupoid and Fell-bundle toolkit with "
                    "Morita-equivalence certificates.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command")

    def common(p):
        p.add_argument("--tol", type=float, default=_default_tol())
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--json", type=str, default=None,
                       help="write the machine-readable report to this path")
        p.add_argument("--timings", action="store_true",
                       help="include per-entry wall times (reports stop being "
                            "byte-identical)")

    p = sub.add_parser("validate", help="validate every object in a model")
    p.add_argument("model")
    common(p)

    p = sub.add_parser("build", help="run a construction and emit a model file")
    p.add_argument("construction", choices=list(BUILDS))
    p.add_argument("args", nargs="*")
    p.add_argument("-m", "--model", default=None)
    p.add_argument("-o", "--out", required=True)
    p.add_argument("--name", default="built")
    common(p)

    p = sub.add_parser("check-equivalence", help="verify an equivalence scenario")
    p.add_argument("scenario")
    p.add_argument("model")
    common(p)

    p = sub.add_parser("morita", help="run a Morita scenario and certify")
    p.add_argument("scenario")
    p.add_argument("model")
    common(p)

    p = sub.add_parser("demo", help="run a built-in scenario")
    p.add_argument("which", choices=["raeburn", "coaction"])
    p.add_argument("--group", default="Z2", help="Zn for the coaction demo")
    p.add_argument("--two-sided", action="store_true",
                   help="raeburn: run the two-sided four-point case")
    common(p)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not args.command:
        parser.print_help()
        return EXIT_USAGE
    try:
        report = _dispatch(args)
    except (ModelError, InvalidStructureError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(report.render())
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(report.to_dict(), fh, sort_keys=True, indent=2)
            fh.write("\n")
    return report.exit_code()


def _dispatch(args) -> RunReport:
    if args.command == "validate":
        return _cmd_validate(args)
    if args.command == "build":
        return _cmd_build(args)
    if args.command == "check-equivalence":
        return _cmd_check_equivalence(args)
    if args.command == "morita":
        return _cmd_morita(args)
    if args.command == "demo":
        return _cmd_demo(args)
    raise ModelError(f"unknown command {args.command!r}")


# ---------------------------------------------------------------------------
# validate


def _cmd_validate(args) -> RunReport:
    model = parse_model(args.model)
    rt = RuntimeModel(model)
    report = RunReport("validate", args.seed, args.tol,
                       show_timings=args.timings)
    for name in sorted(model.groups):
        _validated(report, f"group {name}",
                   lambda name=name: validate_groupoid(rt.group(name)))
    for name in sorted(model.groupoids):
        _validated(report, f"groupoid {name}",
                   lambda name=name: validate_groupoid(rt.groupoid(name)))
    for name in sorted(model.algebras):
        def check_alg(name=name):
            rep = check_star_algebra(rt.algebra(name), args.tol)
            sr = star_structure_report(rt.algebra(name), args.tol, seed=args.seed)
            rep.note(f"structure: blocks {sorted(sr.blocks)}, "
                     f"center {sr.center_dimension}, radical {sr.radical_dimension}, "
                     f"C* certified: {sr.is_cstar}")
            return rep
        _validated(report, f"algebra {name}", check_alg)
    for name in sorted(model.bundles):
        _validated(report, f"bundle {name}",
                   lambda name=name: validate_fell_bundle(rt.bundle(name), args.tol))
    for name in sorted(model.actions):
        _validated(report, f"action {name}",
                   lambda name=name: _validate_action(rt.action(name), args.tol))
    return report


def _validate_action(action, tol: float) -> ValidationReport:
    # freeness is noted only of an action, as it means nothing of a map that
    # fails the action axioms
    if isinstance(action, GroupAction):
        rep = check_action(action)
        if rep.ok:
            rep.note(f"free: {is_free(action)}")
        return rep
    if isinstance(action, SpaceAction):
        return check_space_action(action)
    if isinstance(action, BundleAction):
        rep = check_bundle_action(action, tol)
        if rep.ok:
            rep.note(f"free: {is_free_bundle_action(action)}")
        return rep
    if isinstance(action, AlgebraAction):
        return check_algebra_action(action, tol)
    raise ModelError("unknown action type")


def _validated(report: RunReport, name: str, thunk) -> None:
    try:
        rep = thunk()
    except (ModelError, InvalidStructureError) as exc:
        report.add(name, "fail", [f"error: {exc}"])
        return
    report.add(name, "pass" if rep.ok else "fail", _report_lines(rep))


# ---------------------------------------------------------------------------
# build


def _cmd_build(args) -> RunReport:
    c = args.construction
    kinds, construct, line = BUILDS[c]
    if len(args.args) != len(kinds):
        raise ModelError(f"build {c} takes {len(kinds)} argument(s), got {len(args.args)}")
    rt = RuntimeModel(parse_model(args.model) if args.model else ModelFile())
    values = []
    for k, (kind, text) in enumerate(zip(kinds, args.args), start=1):
        if kind == "count":
            values.append(_positive_int(text, f"the argument of build {c}"))
        elif kind == "groupoid":
            values.append(rt.groupoid(text))
        elif kind == "bundle":
            values.append(rt.bundle(text))
        else:
            values.append(rt.action(text, kind, f"build {c}: argument {k}"))
    built = construct(*values)
    out = ModelFile()
    sizes = _emit_built(out, args.name, built)
    text = serialize_model(out)
    parse_model(text)  # round-trip sanity before writing
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(text)
    report = RunReport("build", args.seed, args.tol, show_timings=args.timings)
    report.add(f"build {c}", "pass", [line.format(*values, **sizes),
                                      f"written to {args.out}"])
    return report


def _emit_built(out: ModelFile, name: str, built) -> dict:
    """Declare ``built`` in ``out`` as ``name`` by its type, a bundle's base
    as ``name_base`` and a space action's groupoid and points as
    ``name_base`` and ``name_space``; return the sizes its report line reads."""
    base = name + "_base"
    if isinstance(built, FiniteGroup):
        out.groups[name] = group_to_decl(name, built)
        return {}
    if isinstance(built, FiniteGroupoid):
        out.groupoids[name] = groupoid_to_decl(name, built)
        return {"arrows": len(built.arrows), "units": len(built.units)}
    if isinstance(built, StarAlgebra):
        out.algebras[name] = algebra_to_decl(name, built)
        return {"dimension": built.dimension}
    if isinstance(built, SpaceAction):
        out.groupoids[base] = groupoid_to_decl(base, built.groupoid)
        out.spaces[name + "_space"] = SpaceDecl(name + "_space", tuple(built.space))
        out.actions[name] = space_action_to_decl(name, built, base, name + "_space")
        return {"points": len(built.space)}
    out.groupoids[base] = groupoid_to_decl(base, built.base)
    out.bundles[name] = bundle_to_decl(name, built, base)
    return {"fibers": len(built.base.arrows)}


# ---------------------------------------------------------------------------
# scenarios


class _Refs:
    """The names a scenario references, each checked before use: a missing
    reference, or an action of another kind than the op reads, is a usage
    error naming the scenario and the reference."""

    def __init__(self, rt: RuntimeModel, scen):
        self.rt, self.scen, self.names = rt, scen, dict(scen.refs)

    def __contains__(self, key: str) -> bool:
        return key in self.names

    def __getitem__(self, key: str) -> str:
        if key not in self.names:
            raise ModelError(f"scenario {self.scen.name!r} has no {key!r} reference")
        return self.names[key]

    def action(self, key: str, kind: type):
        return self.rt.action(self[key], kind, f"scenario {self.scen.name!r}: {key}")


def _cmd_check_equivalence(args) -> RunReport:
    model = parse_model(args.model)
    rt = RuntimeModel(model)
    scen = model.scenario(args.scenario)
    refs = _Refs(rt, scen)
    report = RunReport("check-equivalence", args.seed, args.tol,
                       show_timings=args.timings)
    try:
        _run_equivalence_scenario(args, rt, scen, refs, report)
    except InvalidStructureError as exc:
        report.add(f"scenario {scen.name}", "fail", [f"precondition: {exc}"])
    return report


def _run_equivalence_scenario(args, rt, scen, refs, report) -> None:
    if scen.op in ("groupoid_equivalence", "symmetric_morita", "bundle_equivalence"):
        if scen.op == "groupoid_equivalence":
            e = symmetric_groupoid_equivalence(
                rt.groupoid(refs["target"]), refs.action("left", GroupAction),
                refs.action("right", GroupAction))
            rep = verify_groupoid_equivalence(e)
        else:
            e = symmetric_action_equivalence(
                rt.bundle(refs["bundle"]), refs.action("left", BundleAction),
                refs.action("right", BundleAction), args.tol)
            rep = verify_bundle_equivalence(e, args.tol)
        report.add(f"scenario {scen.name}", "pass" if rep.ok else "fail",
                   _report_lines(rep))
    elif scen.op in ("transformation_equivalence", "transformation_morita"):
        e = one_sided_transformation_equivalence(
            rt.bundle(refs["bundle"]), refs.action("groupoid_action", SpaceAction),
            refs.action("group_action", SpaceAction), args.tol)
        rep = verify_bundle_equivalence(e, args.tol)
        report.add(f"scenario {scen.name}", "pass" if rep.ok else "fail",
                   _report_lines(rep))
    elif scen.op == "principal":
        target = rt.groupoid(refs["target"])
        action = refs.action("action", GroupAction)
        pd = principal_decomposition(target, action)
        lines = [f"quotient: {len(pd.quotient.arrows)} arrows",
                 "source chart verified (bijective, multiplicative, equivariant)"]
        status = "pass"
        if "bundle" in refs:
            ba = refs.action("right", BundleAction)
            pfd = principal_fell_decomposition(rt.bundle(refs["bundle"]), ba)
            rep = verify_bundle_iso(pfd.iso, args.tol)
            mod_rep = check_module_action(
                orbit_bundle_action(rt.bundle(refs["bundle"]), ba), args.tol)
            rep.merge(mod_rep, prefix="orbit module action: ")
            lines += _report_lines(rep)
            status = "pass" if rep.ok else "fail"
        report.add(f"scenario {scen.name}", status, lines)
    else:
        raise ModelError(f"scenario {scen.name!r} is not an equivalence scenario")


def _cmd_morita(args) -> RunReport:
    model = parse_model(args.model)
    rt = RuntimeModel(model)
    scen = model.scenario(args.scenario)
    refs = _Refs(rt, scen)
    report = RunReport("morita", args.seed, args.tol,
                       show_timings=args.timings)
    started = time.perf_counter()
    try:
        cert = _run_morita_scenario(args, rt, scen, refs)
    except InvalidStructureError as exc:
        report.add(f"scenario {scen.name}", "fail", [f"precondition: {exc}"],
                   seconds=time.perf_counter() - started)
        return report
    status = {"equivalent": "pass", "not-certified": "fail",
              "indeterminate": "indeterminate"}[cert.verdict]
    report.add(f"scenario {scen.name}", status, cert.to_text().splitlines(),
               seconds=time.perf_counter() - started)
    return report


def _run_morita_scenario(args, rt, scen, refs):

    if scen.op == "symmetric_morita":
        cert = symmetric_morita(rt.bundle(refs["bundle"]), refs.action("left", BundleAction),
                                refs.action("right", BundleAction),
                                tol=args.tol, seed=args.seed)
    elif scen.op == "one_sided_morita":
        cert = one_sided_morita(rt.bundle(refs["bundle"]), refs.action("left", BundleAction),
                                tol=args.tol, seed=args.seed)
    elif scen.op == "cstar_bundle_morita":
        cert = cstar_bundle_morita(rt.bundle(refs["bundle"]), refs.action("left", BundleAction),
                                   tol=args.tol, seed=args.seed)
    elif scen.op == "transformation_morita":
        cert = one_sided_transformation_morita(
            rt.bundle(refs["bundle"]), refs.action("groupoid_action", SpaceAction),
            refs.action("group_action", SpaceAction), tol=args.tol, seed=args.seed)
    elif scen.op == "raeburn":
        cert = raeburn(rt.space(refs["space"]), refs.action("left", SpaceAction),
                       refs.action("right", SpaceAction), rt.algebra(refs["algebra"]),
                       refs.action("sigma", AlgebraAction), refs.action("tau", AlgebraAction),
                       tol=args.tol, seed=args.seed)
    elif scen.op == "coaction":
        cert = coaction_demo(rt.bundle(refs["bundle"]), tol=args.tol, seed=args.seed)
    else:
        raise ModelError(f"scenario {scen.name!r} is not a morita scenario")
    return cert


def _cmd_demo(args) -> RunReport:
    order = _positive_int(args.group.lstrip("Zz/"), "the n of --group Zn")
    report = RunReport(f"demo {args.which}", args.seed, args.tol,
                       show_timings=args.timings)
    started = time.perf_counter()
    if args.which == "coaction":
        cert = coaction_demo(trivial_line_bundle(cyclic_group(order)),
                             tol=args.tol, seed=args.seed)
        name = f"coaction Z{order} (line bundle)"
    elif args.two_sided:
        cert = raeburn(*raeburn_four_points(), tol=args.tol, seed=args.seed)
        name = "raeburn two-sided (four points, diagonal fiber)"
    else:
        cert = raeburn(*raeburn_two_points(), tol=args.tol, seed=args.seed)
        name = "raeburn smallest case (two points, trivial H)"
    status = {"equivalent": "pass", "not-certified": "fail",
              "indeterminate": "indeterminate"}[cert.verdict]
    report.add(name, status, cert.to_text().splitlines(),
               seconds=time.perf_counter() - started)
    return report


if __name__ == "__main__":
    sys.exit(main())
