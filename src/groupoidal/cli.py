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

import numpy as np

from . import __version__
from ._util import DEFAULT_TOL
from .algebras import (
    AlgebraAction,
    check_algebra_action,
    check_star_algebra,
    crossed_product,
    section_algebra,
    star_structure_report,
)
from .bundles import (
    BundleAction,
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
    GroupAction,
    GroupoidHom,
    SpaceAction,
    check_action,
    check_space_action,
    group_set_action,
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
from .instances import (
    cyclic_group,
    diagonal_algebra,
    group_translation_space,
    swap_tau_on_diagonal,
    trivial_group,
)
from .modelio import ModelError, ModelFile, parse_model, serialize_model
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

# each construction of `build` and the number of arguments it takes; the
# arguments of pair_groupoid and cyclic_group are positive integers
_BUILD_ARITY = {
    "pair_groupoid": 1, "cyclic_group": 1, "transformation_groupoid": 1,
    "semidirect_left": 2, "semidirect_right": 2, "quotient_groupoid": 2,
    "orbit_space_action": 2, "section_algebra": 1, "crossed_product": 2,
    "semidirect_fell_bundle": 2, "quotient_fell_bundle": 2,
    "transformation_fell_bundle": 2, "pullback_bundle": 2,
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
    p.add_argument("construction", choices=list(_BUILD_ARITY))
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
    p.add_argument("--bundle", default="line", choices=["line"])
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
                   lambda name=name: _validate_action(rt, rt.action(name), args.tol))
    return report


def _validate_action(rt: RuntimeModel, action, tol: float) -> ValidationReport:
    if isinstance(action, GroupAction):
        rep = check_action(action)
        rep.note(f"free: {is_free(action)}")
        return rep
    if isinstance(action, SpaceAction):
        return check_space_action(action)
    if isinstance(action, BundleAction):
        rep = check_bundle_action(action, tol)
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
    c, a = args.construction, args.args
    if len(a) != _BUILD_ARITY[c]:
        raise ModelError(f"build {c} takes {_BUILD_ARITY[c]} argument(s), got {len(a)}")
    if c in ("pair_groupoid", "cyclic_group"):
        a = [_positive_int(a[0], f"the argument of build {c}")]
    model = parse_model(args.model) if args.model else ModelFile()
    rt = RuntimeModel(model)
    out = ModelFile()
    report = RunReport("build", args.seed, args.tol,
                       show_timings=args.timings)
    name = args.name

    def groupoid_out(g, label):
        out.groupoids[label] = groupoid_to_decl(label, g)

    if c == "pair_groupoid":
        g = make_pair_groupoid(a[0])
        out.groupoids[name] = groupoid_to_decl(name, g)
        lines = [f"pair groupoid on {a[0]} points: {len(g.arrows)} arrows"]
    elif c == "cyclic_group":
        g = cyclic_group(a[0])
        out.groups[name] = group_to_decl(name, g)
        lines = [f"cyclic group of order {a[0]}"]
    elif c == "transformation_groupoid":
        act = rt.action(a[0])
        g = transformation_groupoid(act.groupoid, act)
        groupoid_out(g, name)
        lines = [f"transformation groupoid: {len(g.arrows)} arrows, {len(g.units)} units"]
    elif c == "semidirect_left":
        g = semidirect_left(rt.groupoid(a[0]), rt.action(a[1]))
        groupoid_out(g, name)
        lines = [f"semidirect product: {len(g.arrows)} arrows"]
    elif c == "semidirect_right":
        g = semidirect_right(rt.action(a[0]), rt.groupoid(a[1]))
        groupoid_out(g, name)
        lines = [f"semidirect product: {len(g.arrows)} arrows"]
    elif c == "quotient_groupoid":
        g, _qm = quotient_groupoid(rt.groupoid(a[0]), rt.action(a[1]))
        groupoid_out(g, name)
        lines = [f"orbit groupoid: {len(g.arrows)} arrows, {len(g.units)} units"]
    elif c == "orbit_space_action":
        act = orbit_space_action(rt.groupoid(a[0]), rt.action(a[1]))
        gq_name = name + "_base"
        groupoid_out(act.groupoid, gq_name)
        sp_name = name + "_space"
        from .modelio import SpaceDecl
        out.spaces[sp_name] = SpaceDecl(sp_name, tuple(act.space))
        out.actions[name] = space_action_to_decl(name, act, gq_name, sp_name)
        lines = [f"orbit action on {len(act.space)} points"]
    elif c == "section_algebra":
        alg = section_algebra(rt.bundle(a[0]))
        out.algebras[name] = algebra_to_decl(name, alg)
        lines = [f"section algebra of dimension {alg.dimension}"]
    elif c == "crossed_product":
        alg = crossed_product(rt.bundle(a[0]), rt.action(a[1]))
        out.algebras[name] = algebra_to_decl(name, alg)
        lines = [f"crossed product of dimension {alg.dimension}"]
    elif c == "semidirect_fell_bundle":
        b = semidirect_fell_bundle(rt.bundle(a[0]), rt.action(a[1]))
        base_name = name + "_base"
        groupoid_out(b.base, base_name)
        out.bundles[name] = bundle_to_decl(name, b, base_name)
        lines = [f"semidirect bundle with {len(b.base.arrows)} fibers"]
    elif c == "quotient_fell_bundle":
        b, _qm = quotient_fell_bundle(rt.bundle(a[0]), rt.action(a[1]))
        base_name = name + "_base"
        groupoid_out(b.base, base_name)
        out.bundles[name] = bundle_to_decl(name, b, base_name)
        lines = [f"orbit bundle with {len(b.base.arrows)} fibers"]
    elif c == "transformation_fell_bundle":
        b = transformation_fell_bundle(rt.bundle(a[0]), rt.action(a[1]))
        base_name = name + "_base"
        groupoid_out(b.base, base_name)
        out.bundles[name] = bundle_to_decl(name, b, base_name)
        lines = [f"transformation bundle with {len(b.base.arrows)} fibers"]
    elif c == "pullback_bundle":
        bundle = rt.bundle(a[0])
        act = rt.action(a[1])
        tg = transformation_groupoid(act.groupoid, act)
        hom = GroupoidHom(tg, bundle.base, {(x, u): x for (x, u) in tg.arrows})
        b = pullback_bundle(hom, bundle)
        base_name = name + "_base"
        groupoid_out(b.base, base_name)
        out.bundles[name] = bundle_to_decl(name, b, base_name)
        lines = [f"pullback along the coordinate projection: "
                 f"{len(b.base.arrows)} fibers"]
    else:
        raise ModelError(f"unknown construction {c!r}")

    text = serialize_model(out)
    parse_model(text)  # round-trip sanity before writing
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(text)
    lines.append(f"written to {args.out}")
    report.add(f"build {c}", "pass", lines)
    return report


# ---------------------------------------------------------------------------
# scenarios


def _scenario_refs(scen) -> dict:
    return dict(scen.refs)


def _cmd_check_equivalence(args) -> RunReport:
    model = parse_model(args.model)
    rt = RuntimeModel(model)
    scen = model.scenario(args.scenario)
    refs = _scenario_refs(scen)
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
                rt.groupoid(refs["target"]), rt.action(refs["left"]),
                rt.action(refs["right"]))
            rep = verify_groupoid_equivalence(e)
        else:
            e = symmetric_action_equivalence(
                rt.bundle(refs["bundle"]), rt.action(refs["left"]),
                rt.action(refs["right"]), args.tol)
            rep = verify_bundle_equivalence(e, args.tol)
        report.add(f"scenario {scen.name}", "pass" if rep.ok else "fail",
                   _report_lines(rep))
    elif scen.op in ("transformation_equivalence", "transformation_morita"):
        e = one_sided_transformation_equivalence(
            rt.bundle(refs["bundle"]), rt.action(refs["groupoid_action"]),
            rt.action(refs["group_action"]))
        rep = verify_bundle_equivalence(e, args.tol)
        report.add(f"scenario {scen.name}", "pass" if rep.ok else "fail",
                   _report_lines(rep))
    elif scen.op == "principal":
        target = rt.groupoid(refs["target"])
        action = rt.action(refs["action"])
        pd = principal_decomposition(target, action)
        lines = [f"quotient: {len(pd.quotient.arrows)} arrows",
                 "source chart verified (bijective, multiplicative, equivariant)"]
        status = "pass"
        if "bundle" in refs:
            ba = rt.action(refs["right"])
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
    refs = _scenario_refs(scen)
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
        cert = symmetric_morita(rt.bundle(refs["bundle"]), rt.action(refs["left"]),
                                rt.action(refs["right"]), tol=args.tol, seed=args.seed)
    elif scen.op == "one_sided_morita":
        cert = one_sided_morita(rt.bundle(refs["bundle"]), rt.action(refs["left"]),
                                tol=args.tol, seed=args.seed)
    elif scen.op == "cstar_bundle_morita":
        cert = cstar_bundle_morita(rt.bundle(refs["bundle"]), rt.action(refs["left"]),
                                   tol=args.tol, seed=args.seed)
    elif scen.op == "transformation_morita":
        cert = one_sided_transformation_morita(
            rt.bundle(refs["bundle"]), rt.action(refs["groupoid_action"]),
            rt.action(refs["group_action"]), tol=args.tol, seed=args.seed)
    elif scen.op == "raeburn":
        cert = raeburn(rt.space(refs["space"]), rt.action(refs["left"]),
                       rt.action(refs["right"]), rt.algebra(refs["algebra"]),
                       rt.action(refs["sigma"]), rt.action(refs["tau"]),
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
        name = f"coaction Z{order} ({args.bundle} bundle)"
    else:
        if args.two_sided:
            z2 = cyclic_group(2)
            points = tuple((i, j) for i in range(2) for j in range(2))
            gsp = group_set_action(z2, points,
                                   {(t, (i, j)): ((t + i) % 2, j)
                                    for t in z2.elements for (i, j) in points},
                                   "left")
            hsp = group_set_action(z2, points,
                                   {(t, (i, j)): (i, (j + t) % 2)
                                    for t in z2.elements for (i, j) in points},
                                   "right")
            b = diagonal_algebra(2)
            sigma = swap_tau_on_diagonal(z2)
            tau = AlgebraAction(z2, b, {t: np.eye(2, dtype=complex)
                                        for t in z2.elements}, "left")
            cert = raeburn(points, gsp, hsp, b, sigma, tau,
                           tol=args.tol, seed=args.seed)
            name = "raeburn two-sided (four points, diagonal fiber)"
        else:
            z2 = cyclic_group(2)
            triv = trivial_group()
            points = (0, 1)
            gsp = group_translation_space(z2, "left")
            hsp = group_set_action(triv, points, {("e", u): u for u in points},
                                   "right")
            b = diagonal_algebra(1)
            sigma = AlgebraAction(z2, b, {t: np.eye(1, dtype=complex)
                                          for t in z2.elements}, "left")
            tau = AlgebraAction(triv, b, {"e": np.eye(1, dtype=complex)}, "left")
            cert = raeburn(points, gsp, hsp, b, sigma, tau,
                           tol=args.tol, seed=args.seed)
            name = "raeburn smallest case (two points, trivial H)"
    status = {"equivalent": "pass", "not-certified": "fail",
              "indeterminate": "indeterminate"}[cert.verdict]
    report.add(name, status, cert.to_text().splitlines(),
               seconds=time.perf_counter() - started)
    return report


if __name__ == "__main__":
    sys.exit(main())
