"""Seeded inputs and operations for the three benchmark workloads.

Every call into the program goes through a module attribute looked up at
call time (``gm.symmetric_morita``, ``gcli.main``), so that a traced run
sees it.  The seed changes unit relabelings, the order of operations and
the structure-report seed; it never changes the instance mix or sizes.
"""

from __future__ import annotations

import contextlib
import io
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import groupoidal.bundles as gb
import groupoidal.cli as gcli
import groupoidal.groupoids as gg
import groupoidal.modelio as gmio
import groupoidal.morita as gm
import groupoidal.runtime as grt
from groupoidal.instances import cyclic_group, matrix_algebra

import oracle

TOL = 1e-9

# cli_small: ten shapes (|G|, |H|, k) on a pair groupoid with |G|*|H|*k units.
SHAPES = ((1, 1, 2), (1, 1, 3), (1, 1, 4), (2, 1, 1), (1, 2, 1),
          (2, 1, 2), (1, 2, 2), (2, 2, 1), (3, 1, 1), (1, 3, 1))
CYCLE = 40  # models per cycle: every shape four times
NON_FREE_SLOT = 7  # model i has a non-free right action when i % 8 == 7
CORRUPT_SLOT = 3  # model i gets a library-level corruption check when i % 8 == 3


@dataclass
class Op:
    """One timed call into the program, and the oracle check of its result."""

    kind: str  # "cert", "cli" or "corruption"
    label: str
    call: Callable[[], object]
    check: Callable[[object], None]


@dataclass
class Workload:
    ops: list  # one cycle, run in this order and repeated
    warmup: list  # small untimed operations that load lazy code paths


# ---------------------------------------------------------------------------
# instances


def _unit_relabel(rng, raw_units):
    perm = rng.permutation(len(raw_units))
    return {raw: int(perm[i]) + 1 for i, raw in enumerate(raw_units)}


def _translation_perms(shape, relabel):
    """Unit images of the cyclic translations, keyed by group element."""
    ng, nh, nk = shape
    raw = [(a, b, c) for a in range(ng) for b in range(nh) for c in range(nk)]
    g_maps = {t: {relabel[(a, b, c)]: relabel[((a + t) % ng, b, c)] for (a, b, c) in raw}
              for t in range(ng)}
    h_maps = {t: {relabel[(a, b, c)]: relabel[(a, (b + t) % nh, c)] for (a, b, c) in raw}
              for t in range(nh)}
    return g_maps, h_maps


def _raw_units(shape):
    ng, nh, nk = shape
    return [(a, b, c) for a in range(ng) for b in range(nh) for c in range(nk)]


def symmetric_instance(shape, rng):
    """Trivial line bundle on a pair groupoid with commuting translations."""
    ng, nh, _nk = shape
    raw = _raw_units(shape)
    relabel = _unit_relabel(rng, raw)
    g_maps, h_maps = _translation_perms(shape, relabel)
    x = gg.make_pair_groupoid(len(raw))
    g_grp, h_grp = cyclic_group(ng), cyclic_group(nh)
    gact = gg.action_from_unit_map(g_grp, x, g_maps, "left")
    hact = gg.action_from_unit_map(h_grp, x, h_maps, "right")
    bundle = gb.trivial_line_bundle(x)
    gba = gb.BundleAction(g_grp, bundle, gact, gb.identity_fiber_maps(bundle, gact), "left")
    hba = gb.BundleAction(h_grp, bundle, hact, gb.identity_fiber_maps(bundle, hact), "right")
    return bundle, gba, hba


def matrix_bundle_over_cyclic(order: int, k: int) -> gb.FellBundle:
    """The bundle over Z/order whose fibers are all the full k x k matrices."""
    grp = cyclic_group(order)
    mat = matrix_algebra(k)
    return gb.FellBundle(
        grp, {x: k * k for x in grp.arrows},
        {pair: mat.struct.copy() for pair in grp.composable_pairs()},
        {x: mat.invol.copy() for x in grp.arrows})


def model_text(shape, rng, non_free: bool) -> str:
    """A model file for one cli_small shape, in the text format.

    With non_free the right group is Z2 acting trivially on the units, so
    the right action commutes with the left one but is not free.
    """
    ng, nh, _nk = shape
    raw = _raw_units(shape)
    n = len(raw)
    relabel = _unit_relabel(rng, raw)
    g_maps, h_maps = _translation_perms(shape, relabel)
    if non_free:
        nh = 2
        h_maps = {t: {u: u for u in range(1, n + 1)} for t in range(2)}
    lines = ["version 1", f"group G cyclic {ng}", f"group H cyclic {nh}",
             f"groupoid X pair {n}", "bundle A line X", ""]
    for name, group, side, maps in (("GL", "G", "left", g_maps),
                                    ("HR", "H", "right", h_maps)):
        lines += [f"action {name}", "  kind: group_on_groupoid", f"  group: {group}",
                  "  target: X", f"  side: {side}"]
        for t in sorted(maps):
            if t:
                lines.append(f"  unit_perm {t}: "
                             + " ".join(str(maps[t][u]) for u in range(1, n + 1)))
        lines += ["end", ""]
    for name, base, side in (("GLB", "GL", "left"), ("HRB", "HR", "right")):
        lines += [f"action {name}", "  kind: group_on_bundle", "  bundle: A",
                  f"  base: {base}", f"  side: {side}", "  fibers: identity", "end", ""]
    for name, op in (("sym", "symmetric_morita"), ("beq", "bundle_equivalence")):
        lines += [f"scenario {name}", f"  op: {op}", "  bundle: A", "  left: GLB",
                  "  right: HRB", "end", ""]
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# operations


def run_cli(argv: list) -> tuple:
    """In-process ``groupoidal`` with its output captured: (code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = gcli.main(list(argv))
    return code, out.getvalue() + err.getvalue()


def _cli_op(kind: str, label: str, argv: list, check) -> Op:
    return Op(kind, label, lambda: run_cli(argv), check)


def corrupted_equivalence_check(path: str) -> object:
    """Negate one off-diagonal left inner product and re-verify."""
    rt = grt.RuntimeModel(gmio.parse_model(path))
    e = gb.symmetric_action_equivalence(rt.bundle("A"), rt.action("GLB"),
                                        rt.action("HRB"))
    key = next(k for k in sorted(e.left_inner, key=repr) if k[0] != k[1])
    e.left_inner[key] = -e.left_inner[key]
    return gb.verify_bundle_equivalence(e, TOL)


def cli_small(seed: int, workdir: str) -> Workload:
    rng = np.random.default_rng(seed)
    report_seed = seed % 2**31
    ops = []
    for i in (int(v) for v in rng.permutation(CYCLE)):
        shape = SHAPES[i % len(SHAPES)]
        non_free = i % 8 == NON_FREE_SLOT
        path = os.path.join(workdir, f"m{i}.model")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(model_text(shape, rng, non_free))
        built = os.path.join(workdir, f"m{i}-built.model")
        label = f"m{i} {shape}"
        # a morita command on a non-free action is a rejection, not a certificate
        ops.append(_cli_op("cli" if non_free else "cert", f"{label} morita",
                           ["morita", "sym", path, "--seed", str(report_seed)],
                           oracle.cli_morita(shape, non_free, TOL)))
        ops.append(_cli_op("cli", f"{label} check-equivalence",
                           ["check-equivalence", "beq", path],
                           oracle.cli_exit(1 if non_free else 0)))
        ops.append(_cli_op("cli", f"{label} validate", ["validate", path],
                           oracle.cli_exit(0)))
        ops.append(_cli_op("cli", f"{label} build",
                           ["build", "semidirect_fell_bundle", "A", "GLB", "-m", path,
                            "-o", built, "--name", "S"],
                           oracle.cli_build(shape, built)))
        ops.append(_cli_op("cli", f"{label} validate built", ["validate", built],
                           oracle.cli_validate_built()))
        if i % 8 == CORRUPT_SLOT:
            ops.append(Op("corruption", f"{label} corrupted inner product",
                          lambda path=path: corrupted_equivalence_check(path),
                          oracle.step3_rejection))
    # The warm-up certifies the shape with the largest linking algebra, so
    # that the heap reaches its working size before timing starts and the
    # peak RSS does not depend on the seeded order of the cycle.
    warm_shape = (1, 2, 2)
    warm_path = os.path.join(workdir, "warmup.model")
    with open(warm_path, "w", encoding="utf-8") as fh:
        fh.write(model_text(warm_shape, np.random.default_rng(0), False))
    warmup = [_cli_op("cert", "warmup morita", ["morita", "sym", warm_path],
                      oracle.cli_morita(warm_shape, False, TOL))]
    return Workload(ops, warmup)


def pair6(seed: int, workdir: str) -> Workload:
    shape = (2, 3, 1)
    rng = np.random.default_rng(seed)
    bundle, gba, hba = symmetric_instance(shape, rng)
    report_seed = seed % 2**31
    cert = Op("cert", "symmetric_morita pair 6, Z2 x Z3",
              lambda: gm.symmetric_morita(bundle, gba, hba, tol=TOL, seed=report_seed),
              oracle.symmetric_certificate(shape, TOL))
    small = symmetric_instance((1, 1, 2), np.random.default_rng(0))
    warmup = [Op("cert", "warmup", lambda: gm.symmetric_morita(*small, tol=TOL),
                 oracle.symmetric_certificate((1, 1, 2), TOL))]
    return Workload([cert], warmup)


def coaction_m3(seed: int, workdir: str) -> Workload:
    bundle = matrix_bundle_over_cyclic(2, 3)
    report_seed = seed % 2**31
    cert = Op("cert", "coaction_demo Z2, M3 fibers",
              lambda: gm.coaction_demo(bundle, tol=TOL, seed=report_seed),
              oracle.coaction_certificate(2, 9, TOL))
    small = matrix_bundle_over_cyclic(2, 1)
    warmup = [Op("cert", "warmup", lambda: gm.coaction_demo(small, tol=TOL),
                 oracle.coaction_certificate(2, 1, TOL))]
    return Workload([cert], warmup)


WORKLOADS = {"cli_small": cli_small, "pair6": pair6, "coaction_m3": coaction_m3}
