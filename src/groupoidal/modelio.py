"""Line-oriented model files: named groupoids, bundles, actions, scenarios.

The format is hand-writable and diff-friendly.  Objects are declared either
by a builder one-liner ("groupoid X4 pair 4") or by an explicit block ending
with "end"; numeric entries are exact rationals ("3/2", "-1", "0.5") with an
optional imaginary part ("1/2-1/3i").  Identifiers are whitespace-free
tokens; tuple-valued identifiers from constructions print as "(1,2)".

serialize_model(parse_model(text)) parses back to an equal ModelFile.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from ._util import fmt, parse_ident


class ModelError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        where = f"line {line}: " if line is not None else ""
        super().__init__(where + message)


Number = tuple[Fraction, Fraction]


def parse_number(text: str, line: int | None = None) -> Number:
    s = text.strip()
    if not s:
        raise ModelError("empty number", line)
    split = None
    for k in range(1, len(s)):
        if s[k] in "+-" and s[k - 1] not in "+-/." and not s[k - 1].isspace():
            split = k
    try:
        if split is not None and s.endswith("i"):
            return (_parse_frac(s[:split]), _parse_frac(s[split:-1], sign_only_ok=True))
        if s.endswith("i"):
            return (Fraction(0), _parse_frac(s[:-1], sign_only_ok=True))
        return (_parse_frac(s), Fraction(0))
    except (ValueError, ZeroDivisionError) as exc:
        raise ModelError(f"malformed number {text!r} ({exc})", line) from None


def _parse_frac(s: str, sign_only_ok: bool = False) -> Fraction:
    s = s.strip()
    if sign_only_ok and s in ("", "+"):
        return Fraction(1)
    if sign_only_ok and s == "-":
        return Fraction(-1)
    return Fraction(s)


def format_number(z: Number) -> str:
    re, im = z
    if im == 0:
        return str(re)
    imag = "i" if abs(im) == 1 else f"{abs(im)}i"
    if re == 0:
        return ("-" if im < 0 else "") + imag
    return f"{re}{'+' if im > 0 else '-'}{imag}"


def numbers_to_array(entries: tuple, shape: tuple) -> np.ndarray:
    arr = np.array([complex(float(re), float(im)) for (re, im) in entries],
                   dtype=complex)
    return arr.reshape(shape)


def array_to_numbers(arr: np.ndarray) -> tuple:
    out = []
    for z in np.asarray(arr, dtype=complex).ravel():
        out.append((Fraction(z.real).limit_denominator(10 ** 9),
                    Fraction(z.imag).limit_denominator(10 ** 9)))
    return tuple(out)


# ---------------------------------------------------------------------------
# declarations


@dataclass
class GroupDecl:
    name: str
    builder: tuple | None = None  # ("cyclic", n)
    elements: tuple = ()
    table: tuple = ()  # ((a, b, ab), ...)


@dataclass
class GroupoidDecl:
    name: str
    builder: tuple | None = None  # ("pair", n) | ("units", n)
    units: tuple = ()
    arrows: tuple = ()
    arrow_data: tuple = ()  # ((arrow, src, rng, inv), ...)
    unit_arrows: tuple = ()  # ((unit, arrow), ...)
    comp: tuple = ()  # ((x, y, xy), ...)


@dataclass
class SpaceDecl:
    name: str
    points: tuple = ()


@dataclass
class AlgebraDecl:
    name: str
    builder: tuple | None = None  # ("diag", n) | ("matrix", n)
    basis: tuple = ()
    products: tuple = ()  # ((a, b, entries), ...)
    stars: tuple = ()  # ((a, entries), ...)


@dataclass
class BundleDecl:
    name: str
    builder: tuple | None = None  # ("line", groupoid) | ("trivial", algebra, space)
    base: str = ""
    dims: tuple = ()  # ((arrow, n), ...)
    mults: tuple = ()  # ((x, y, entries), ...)
    stars: tuple = ()  # ((x, entries), ...)


@dataclass
class ActionDecl:
    name: str
    kind: str = ""
    group: str = ""
    groupoid: str = ""
    target: str = ""
    space: str = ""
    bundle: str = ""
    base: str = ""
    algebra: str = ""
    side: str = "left"
    unit_perms: tuple = ()  # ((element, images...), ...)
    maps: tuple = ()  # ((element-or-arrow, ((from, to), ...)), ...)
    fibers: tuple = ()  # "identity" marker or ((element, arrow, entries), ...)
    fibers_identity: bool = False
    matrices: tuple = ()  # ((element, entries), ...)


@dataclass
class ScenarioDecl:
    name: str
    op: str = ""
    refs: tuple = ()  # ((key, value), ...) sorted by key


@dataclass
class ModelFile:
    version: int = 1
    groups: dict = field(default_factory=dict)
    groupoids: dict = field(default_factory=dict)
    spaces: dict = field(default_factory=dict)
    algebras: dict = field(default_factory=dict)
    bundles: dict = field(default_factory=dict)
    actions: dict = field(default_factory=dict)
    scenarios: dict = field(default_factory=dict)

    def scenario(self, name: str) -> ScenarioDecl:
        if name not in self.scenarios:
            raise ModelError(f"unknown scenario {name!r}")
        return self.scenarios[name]


# ---------------------------------------------------------------------------
# parsing


def _lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if body:
            yield lineno, body.split()


def parse_model(source: str) -> ModelFile:
    """Parse model text (or a path ending in .model) into a ModelFile."""
    if source.endswith(".model") and "\n" not in source:
        with open(source, "r", encoding="utf-8") as fh:
            text = fh.read()
    else:
        text = source
    model = ModelFile()
    lines = list(_lines(text))
    k = 0
    while k < len(lines):
        lineno, toks = lines[k]
        head = toks[0]
        if head == "version":
            if len(toks) != 2 or not toks[1].isdecimal():
                raise ModelError("version takes one non-negative integer", lineno)
            model.version = int(toks[1])
            k += 1
        elif head in ("group", "groupoid", "space", "algebra", "bundle",
                      "action", "scenario"):
            if len(toks) == 1:
                raise ModelError(f"{head} declaration without a name", lineno)
            if len(toks) >= 3:  # builder one-liner
                k = _parse_builder(model, lineno, toks, k)
            else:
                k = _parse_block(model, lines, k)
        else:
            raise ModelError(f"unknown declaration {head!r}", lineno)
    _resolve(model)
    return model


# each builder one-liner "HEAD NAME BUILDER ARGS...", keyed by (HEAD, BUILDER):
# the kind of each argument, "count" for a non-negative integer or the model
# kind whose declaration it names
BUILDERS = {
    ("group", "cyclic"): ("count",),
    ("groupoid", "pair"): ("count",),
    ("groupoid", "units"): ("count",),
    ("algebra", "diag"): ("count",),
    ("algebra", "matrix"): ("count",),
    ("bundle", "line"): ("groupoid",),
    ("bundle", "trivial"): ("algebra", "space"),
}


def _parse_builder(model: ModelFile, lineno: int, toks: list, k: int) -> int:
    head, name, builder, args = toks[0], toks[1], toks[2], toks[3:]
    kinds = BUILDERS.get((head, builder))
    if kinds is None:
        raise ModelError(f"unknown builder {' '.join(toks)!r}", lineno)
    if len(args) != len(kinds):
        raise ModelError(f"{head} {builder} takes {len(kinds)} argument(s), "
                         f"got {len(args)}", lineno)
    for i, kind in enumerate(kinds):
        if kind == "count":
            if not args[i].isdecimal():
                raise ModelError(f"{head} {builder} needs a non-negative integer, "
                                 f"got {args[i]!r}", lineno)
            args[i] = int(args[i])
    decl = {"group": GroupDecl, "groupoid": GroupoidDecl, "algebra": AlgebraDecl,
            "bundle": BundleDecl}[head]
    getattr(model, head + "s")[name] = decl(name, builder=(builder, *args))
    return k + 1


def _parse_block(model: ModelFile, lines: list, k: int) -> int:
    lineno, toks = lines[k]
    head, name = toks[0], toks[1]
    body = []
    k += 1
    while k < len(lines):
        ln, tk = lines[k]
        if tk == ["end"]:
            k += 1
            break
        body.append((ln, tk))
        k += 1
    else:
        raise ModelError(f"block {name!r} not terminated by 'end'", lineno)

    if head == "group":
        model.groups[name] = _group_block(name, body)
    elif head == "groupoid":
        model.groupoids[name] = _groupoid_block(name, body)
    elif head == "space":
        model.spaces[name] = _space_block(name, body)
    elif head == "algebra":
        model.algebras[name] = _algebra_block(name, body)
    elif head == "bundle":
        model.bundles[name] = _bundle_block(name, body)
    elif head == "action":
        model.actions[name] = _action_block(name, body)
    elif head == "scenario":
        model.scenarios[name] = _scenario_block(name, body)
    return k


def _kv(toks: list):
    # "key: values..." -> (key, rest)
    if not toks[0].endswith(":"):
        return None
    return toks[0][:-1], toks[1:]


def _group_block(name: str, body: list) -> GroupDecl:
    elements, table = (), []
    for ln, toks in body:
        kv = _kv(toks)
        if kv and kv[0] == "elements":
            elements = tuple(parse_ident(t) for t in kv[1])
        elif toks[0] == "row" and toks[1].endswith(":"):
            a = parse_ident(toks[1][:-1])
            for b, ab in zip(elements, toks[2:]):
                table.append((a, b, parse_ident(ab)))
        else:
            raise ModelError(f"bad group line {' '.join(toks)!r}", ln)
    if not elements:
        raise ModelError(f"group {name!r} has no elements")
    return GroupDecl(name, elements=elements, table=tuple(table))


def _groupoid_block(name: str, body: list) -> GroupoidDecl:
    units, arrows, arrow_data, unit_arrows, comp = (), (), [], [], []
    for ln, toks in body:
        kv = _kv(toks)
        if kv and kv[0] == "units":
            units = tuple(parse_ident(t) for t in kv[1])
        elif kv and kv[0] == "arrows":
            arrows = tuple(parse_ident(t) for t in kv[1])
        elif toks[0] == "arrow" and toks[1].endswith(":"):
            # arrow f: u -> v inv g
            if len(toks) != 7 or toks[3] != "->" or toks[5] != "inv":
                raise ModelError(f"bad arrow line {' '.join(toks)!r}", ln)
            arrow_data.append((parse_ident(toks[1][:-1]), parse_ident(toks[2]),
                               parse_ident(toks[4]), parse_ident(toks[6])))
        elif toks[0] == "unit" and toks[1].endswith(":"):
            unit_arrows.append((parse_ident(toks[1][:-1]), parse_ident(toks[2])))
        elif toks[0] == "comp" and len(toks) == 5 and toks[3] == "=":
            comp.append((parse_ident(toks[1]), parse_ident(toks[2]),
                         parse_ident(toks[4])))
        else:
            raise ModelError(f"bad groupoid line {' '.join(toks)!r}", ln)
    return GroupoidDecl(name, units=units, arrows=arrows,
                        arrow_data=tuple(arrow_data),
                        unit_arrows=tuple(unit_arrows), comp=tuple(comp))


def _space_block(name: str, body: list) -> SpaceDecl:
    points = ()
    for ln, toks in body:
        kv = _kv(toks)
        if kv and kv[0] == "points":
            points = tuple(parse_ident(t) for t in kv[1])
        else:
            raise ModelError(f"bad space line {' '.join(toks)!r}", ln)
    return SpaceDecl(name, points)


def _algebra_block(name: str, body: list) -> AlgebraDecl:
    basis, products, stars = (), [], []
    for ln, toks in body:
        kv = _kv(toks)
        if kv and kv[0] == "basis":
            basis = tuple(parse_ident(t) for t in kv[1])
        elif toks[0] == "prod" and toks[2].endswith(":"):
            products.append((parse_ident(toks[1]), parse_ident(toks[2][:-1]),
                             tuple(parse_number(t, ln) for t in toks[3:])))
        elif toks[0] == "star" and toks[1].endswith(":"):
            stars.append((parse_ident(toks[1][:-1]),
                          tuple(parse_number(t, ln) for t in toks[2:])))
        else:
            raise ModelError(f"bad algebra line {' '.join(toks)!r}", ln)
    return AlgebraDecl(name, basis=basis, products=tuple(products),
                       stars=tuple(stars))


def _bundle_block(name: str, body: list) -> BundleDecl:
    base, dims, mults, stars = "", [], [], []
    for ln, toks in body:
        kv = _kv(toks)
        if kv and kv[0] == "base":
            base = kv[1][0]
        elif toks[0] == "dim" and toks[1].endswith(":"):
            dims.append((parse_ident(toks[1][:-1]), int(toks[2])))
        elif toks[0] == "mult" and toks[2].endswith(":"):
            mults.append((parse_ident(toks[1]), parse_ident(toks[2][:-1]),
                          tuple(parse_number(t, ln) for t in toks[3:])))
        elif toks[0] == "star" and toks[1].endswith(":"):
            stars.append((parse_ident(toks[1][:-1]),
                          tuple(parse_number(t, ln) for t in toks[2:])))
        else:
            raise ModelError(f"bad bundle line {' '.join(toks)!r}", ln)
    return BundleDecl(name, base=base, dims=tuple(dims), mults=tuple(mults),
                      stars=tuple(stars))


_ACTION_KEYS = ("kind", "group", "groupoid", "target", "space", "bundle",
                "base", "algebra", "side")


def _action_block(name: str, body: list) -> ActionDecl:
    decl = ActionDecl(name)
    maps, unit_perms, fibers, matrices = [], [], [], []
    for ln, toks in body:
        kv = _kv(toks)
        if kv and kv[0] in _ACTION_KEYS:
            setattr(decl, kv[0], kv[1][0])
        elif kv and kv[0] == "fibers" and kv[1] == ["identity"]:
            decl.fibers_identity = True
        elif toks[0] == "unit_perm" and toks[1].endswith(":"):
            unit_perms.append((parse_ident(toks[1][:-1]),)
                              + tuple(parse_ident(t) for t in toks[2:]))
        elif toks[0] == "map" and toks[1].endswith(":"):
            pairs = []
            for item in toks[2:]:
                if "=" not in item:
                    raise ModelError(f"bad map entry {item!r}", ln)
                a, b = item.split("=", 1)
                pairs.append((parse_ident(a), parse_ident(b)))
            maps.append((parse_ident(toks[1][:-1]), tuple(pairs)))
        elif toks[0] == "fiber" and toks[2].endswith(":"):
            fibers.append((parse_ident(toks[1]), parse_ident(toks[2][:-1]),
                           tuple(parse_number(t, ln) for t in toks[3:])))
        elif toks[0] == "matrix" and toks[1].endswith(":"):
            matrices.append((parse_ident(toks[1][:-1]),
                             tuple(parse_number(t, ln) for t in toks[2:])))
        else:
            raise ModelError(f"bad action line {' '.join(toks)!r}", ln)
    decl.unit_perms = tuple(unit_perms)
    decl.maps = tuple(maps)
    decl.fibers = tuple(fibers)
    decl.matrices = tuple(matrices)
    return decl


_SCENARIO_KEYS = ("bundle", "left", "right", "target", "action", "space",
                  "algebra", "sigma", "tau", "groupoid_action", "group_action")
# the kind a scenario reference names, by its key; the other keys name actions
_SCENARIO_REFS = {"bundle": "bundle", "target": "groupoid", "space": "space",
                  "algebra": "algebra"}


def _scenario_block(name: str, body: list) -> ScenarioDecl:
    op = ""
    refs = []
    for ln, toks in body:
        kv = _kv(toks)
        if kv and kv[0] == "op":
            op = kv[1][0]
        elif kv and kv[0] in _SCENARIO_KEYS:
            refs.append((kv[0], kv[1][0]))
        else:
            raise ModelError(f"bad scenario line {' '.join(toks)!r}", ln)
    if not op:
        raise ModelError(f"scenario {name!r} has no op")
    return ScenarioDecl(name, op, tuple(sorted(refs)))


# the declarations each action kind references, by the key that names them
_ACTION_REFS = {
    "group_on_groupoid": {"group": "group", "target": "groupoid"},
    "group_on_space": {"group": "group", "space": "space"},
    "groupoid_on_space": {"groupoid": "groupoid", "space": "space"},
    "group_on_bundle": {"bundle": "bundle", "base": "action"},
    "group_on_algebra": {"group": "group", "algebra": "algebra"},
}


def _resolve(model: ModelFile) -> None:
    """Check that every name referenced anywhere is declared."""
    tables = {"group": model.groups, "groupoid": dict(model.groupoids),
              "space": model.spaces, "algebra": model.algebras,
              "bundle": model.bundles, "action": model.actions}
    tables["groupoid"].update(model.groups)  # a group is a one-unit groupoid

    def need(kind: str, name: str, owner: str):
        if name and name not in tables[kind]:
            raise ModelError(f"{owner} references unknown {kind} {name!r}")

    for head in ("group", "groupoid", "algebra", "bundle"):
        for d in getattr(model, head + "s").values():
            if d.builder:
                for kind, value in zip(BUILDERS[head, d.builder[0]], d.builder[1:]):
                    if kind != "count":
                        need(kind, value, f"{head} {d.name}")
    for b in model.bundles.values():
        need("groupoid", b.base, f"bundle {b.name}")
    for a in model.actions.values():
        if a.kind not in _ACTION_REFS:
            raise ModelError(f"action {a.name!r} has unknown kind {a.kind!r}")
        for key, kind in _ACTION_REFS[a.kind].items():
            need(kind, getattr(a, key), f"action {a.name}")
    for s in model.scenarios.values():
        for key, value in s.refs:
            need(_SCENARIO_REFS.get(key, "action"), value, f"scenario {s.name}")


# ---------------------------------------------------------------------------
# serialization


def serialize_model(model: ModelFile) -> str:
    out = [f"version {model.version}"]
    for name in sorted(model.groups):
        out += _emit("group", model.groups[name], _emit_group)
    for name in sorted(model.spaces):
        s = model.spaces[name]
        out += [f"space {name}", "  points: " + " ".join(fmt(p) for p in s.points), "end"]
    for name in sorted(model.groupoids):
        out += _emit("groupoid", model.groupoids[name], _emit_groupoid)
    for name in sorted(model.algebras):
        out += _emit("algebra", model.algebras[name], _emit_algebra)
    for name in sorted(model.bundles):
        out += _emit("bundle", model.bundles[name], _emit_bundle)
    for name in sorted(model.actions):
        out += _emit_action(model.actions[name])
    for name in sorted(model.scenarios):
        s = model.scenarios[name]
        out += [f"scenario {name}", f"  op: {s.op}"]
        out += [f"  {k}: {v}" for k, v in s.refs]
        out.append("end")
    return "\n".join(out) + "\n"


def _emit(head: str, decl, emit_block) -> list:
    """A declaration's one-liner if it has one, else its explicit block."""
    if decl.builder:
        return [" ".join(map(str, (head, decl.name, *decl.builder)))]
    return emit_block(decl)


def _emit_group(g: GroupDecl) -> list:
    lines = [f"group {g.name}",
             "  elements: " + " ".join(fmt(e) for e in g.elements)]
    prod = {(a, b): ab for (a, b, ab) in g.table}
    for a in g.elements:
        row = " ".join(fmt(prod[(a, b)]) for b in g.elements)
        lines.append(f"  row {fmt(a)}: {row}")
    lines.append("end")
    return lines


def _emit_groupoid(g: GroupoidDecl) -> list:
    lines = [f"groupoid {g.name}",
             "  units: " + " ".join(fmt(u) for u in g.units),
             "  arrows: " + " ".join(fmt(a) for a in g.arrows)]
    for (a, s, r, i) in g.arrow_data:
        lines.append(f"  arrow {fmt(a)}: {fmt(s)} -> {fmt(r)} inv {fmt(i)}")
    for (u, a) in g.unit_arrows:
        lines.append(f"  unit {fmt(u)}: {fmt(a)}")
    for (x, y, xy) in g.comp:
        lines.append(f"  comp {fmt(x)} {fmt(y)} = {fmt(xy)}")
    lines.append("end")
    return lines


def _emit_algebra(a: AlgebraDecl) -> list:
    lines = [f"algebra {a.name}",
             "  basis: " + " ".join(fmt(b) for b in a.basis)]
    for (x, y, entries) in a.products:
        lines.append(f"  prod {fmt(x)} {fmt(y)}: "
                     + " ".join(format_number(z) for z in entries))
    for (x, entries) in a.stars:
        lines.append(f"  star {fmt(x)}: "
                     + " ".join(format_number(z) for z in entries))
    lines.append("end")
    return lines


def _emit_bundle(b: BundleDecl) -> list:
    lines = [f"bundle {b.name}", f"  base: {b.base}"]
    for (x, n) in b.dims:
        lines.append(f"  dim {fmt(x)}: {n}")
    for (x, y, entries) in b.mults:
        lines.append(f"  mult {fmt(x)} {fmt(y)}: "
                     + " ".join(format_number(z) for z in entries))
    for (x, entries) in b.stars:
        lines.append(f"  star {fmt(x)}: "
                     + " ".join(format_number(z) for z in entries))
    lines.append("end")
    return lines


def _emit_action(a: ActionDecl) -> list:
    lines = [f"action {a.name}", f"  kind: {a.kind}"]
    for key in ("group", "groupoid", "target", "space", "bundle", "base", "algebra"):
        value = getattr(a, key)
        if value:
            lines.append(f"  {key}: {value}")
    lines.append(f"  side: {a.side}")
    if a.fibers_identity:
        lines.append("  fibers: identity")
    for up in a.unit_perms:
        lines.append(f"  unit_perm {fmt(up[0])}: "
                     + " ".join(fmt(u) for u in up[1:]))
    for (elem, pairs) in a.maps:
        body = " ".join(f"{fmt(x)}={fmt(y)}" for x, y in pairs)
        lines.append(f"  map {fmt(elem)}: {body}")
    for (elem, arrow, entries) in a.fibers:
        lines.append(f"  fiber {fmt(elem)} {fmt(arrow)}: "
                     + " ".join(format_number(z) for z in entries))
    for (elem, entries) in a.matrices:
        lines.append(f"  matrix {fmt(elem)}: "
                     + " ".join(format_number(z) for z in entries))
    lines.append("end")
    return lines
