"""Line-oriented model files: named groupoids, bundles, actions, scenarios.

The format is hand-writable and diff-friendly.  Objects are declared either
by a builder one-liner ("groupoid X4 pair 4", see BUILDERS) or by an explicit
block of the line forms in LINES, ending with "end"; numeric entries are
exact rationals ("3/2", "-1", "0.5") with an optional imaginary part
("1/2-1/3i").  Identifiers are whitespace-free tokens; tuple-valued
identifiers from constructions print as "(1,2)".

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
    rows: tuple = ()  # ((a, (ab, ...)), ...), each row's products in element order


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
    unit_perms: tuple = ()  # ((element, (images...)), ...)
    maps: tuple = ()  # ((element-or-arrow, ((from, to), ...)), ...)
    fibers: tuple = ()  # ((element, arrow, entries), ...)
    fibers_identity: bool = False
    matrices: tuple = ()  # ((element, entries), ...)


@dataclass
class ScenarioDecl:
    name: str
    op: str = ""
    refs: tuple = ()  # ((key, value), ...) sorted


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


_DECLS = {"group": GroupDecl, "space": SpaceDecl, "groupoid": GroupoidDecl,
          "algebra": AlgebraDecl, "bundle": BundleDecl, "action": ActionDecl,
          "scenario": ScenarioDecl}

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

# the line forms of each block, in the order serialize_model writes the blocks
# and their lines, each with the field of its declaration that it fills.  A
# form is its leading token and its token pattern: IDENT an identifier, IDENT:
# one ending in a colon, INT an integer, WORD any token, an upper-case model
# kind the name of a declaration of that kind, any other token itself, and a
# trailing "..." part zero or more such tokens.  A "key:" line sets its field
# (a form without values to True), a scenario reference adds (key, name) to
# the refs, and any other line adds the row of its values.
LINES = {
    "group": (("elements: IDENT...", "elements"),
              ("row IDENT: IDENT...", "rows")),
    "space": (("points: IDENT...", "points"),),
    "groupoid": (("units: IDENT...", "units"),
                 ("arrows: IDENT...", "arrows"),
                 ("arrow IDENT: IDENT -> IDENT inv IDENT", "arrow_data"),
                 ("unit IDENT: IDENT", "unit_arrows"),
                 ("comp IDENT IDENT = IDENT", "comp")),
    "algebra": (("basis: IDENT...", "basis"),
                ("prod IDENT IDENT: NUMBER...", "products"),
                ("star IDENT: NUMBER...", "stars")),
    "bundle": (("base: GROUPOID", "base"),
               ("dim IDENT: INT", "dims"),
               ("mult IDENT IDENT: NUMBER...", "mults"),
               ("star IDENT: NUMBER...", "stars")),
    "action": (("kind: WORD", "kind"),
               ("group: GROUP", "group"),
               ("groupoid: GROUPOID", "groupoid"),
               ("target: GROUPOID", "target"),
               ("space: SPACE", "space"),
               ("bundle: BUNDLE", "bundle"),
               ("base: ACTION", "base"),
               ("algebra: ALGEBRA", "algebra"),
               ("side: WORD", "side"),
               ("fibers: identity", "fibers_identity"),
               ("unit_perm IDENT: IDENT...", "unit_perms"),
               ("map IDENT: IDENT=IDENT...", "maps"),
               ("fiber IDENT IDENT: NUMBER...", "fibers"),
               ("matrix IDENT: NUMBER...", "matrices")),
    "scenario": (("op: WORD", "op"),
                 ("action: ACTION", "refs"),
                 ("algebra: ALGEBRA", "refs"),
                 ("bundle: BUNDLE", "refs"),
                 ("group_action: ACTION", "refs"),
                 ("groupoid_action: ACTION", "refs"),
                 ("left: ACTION", "refs"),
                 ("right: ACTION", "refs"),
                 ("sigma: ACTION", "refs"),
                 ("space: SPACE", "refs"),
                 ("target: GROUPOID", "refs"),
                 ("tau: ACTION", "refs")),
}

_ACTION_KINDS = {"group_on_groupoid", "group_on_space", "groupoid_on_space",
                 "group_on_bundle", "group_on_algebra"}
_REFERENCES = {"GROUP": "group", "GROUPOID": "groupoid", "SPACE": "space",
               "ALGEBRA": "algebra", "BUNDLE": "bundle", "ACTION": "action"}


def _label(tok: str):
    if not tok.endswith(":"):
        raise ValueError(f"{tok!r} does not end in ':'")
    return parse_ident(tok[:-1])


def _pair(tok: str) -> tuple:
    a, eq, b = tok.partition("=")
    if not eq:
        raise ValueError(f"{tok!r} has no '='")
    return parse_ident(a), parse_ident(b)


# how each value token of a pattern reads its text; each writes its value
# back by fmt, but the variadic ones listed in _WRITE
_READ = {"IDENT": parse_ident, "IDENT:": _label, "INT": int, "WORD": str,
         "IDENT...": parse_ident, "NUMBER...": parse_number, "IDENT=IDENT...": _pair,
         **dict.fromkeys(_REFERENCES, str)}
_WRITE = {"NUMBER...": format_number, "IDENT=IDENT...": lambda p: f"{fmt(p[0])}={fmt(p[1])}"}


class _Form:
    """One line form of LINES, compiled once for reading and writing lines."""

    def __init__(self, text: str, field: str):
        self.text, self.field = text, field
        lead, *toks = text.split()
        self.key = lead[:-1] if lead.endswith(":") else None
        self.variadic = toks.pop() if toks and toks[-1].endswith("...") else None
        self.size = len(toks) + 1  # the tokens before the variadic part
        self.literals = [(i, t) for i, t in enumerate(toks, 1) if t not in _READ]
        self.readers = [(i, _READ[t]) for i, t in enumerate(toks, 1) if t in _READ]
        # (position among the values, model kind) of each reference token
        self.references = [(k, _REFERENCES[t]) for k, t in
                           enumerate(t for t in toks if t in _READ) if t in _REFERENCES]
        words = [lead] + ["{}:" if t == "IDENT:" else "{}" if t in _READ else t for t in toks]
        if self.variadic:
            words.append("{}")
        self.template = "  " + " ".join(words)
        self.write_each = _WRITE.get(self.variadic, fmt)

    def read(self, toks: list) -> list:
        """The values of a line of this form, or ValueError naming a bad token."""
        for i, literal in self.literals:
            if toks[i] != literal:
                raise ValueError(f"{toks[i]!r} is not {literal!r}")
        values = [read(toks[i]) for i, read in self.readers]
        if self.variadic:
            values.append(tuple(map(_READ[self.variadic], toks[self.size:])))
        return values

    def held(self, decl) -> list:
        """The values of each line of this form that ``decl`` holds, in order."""
        value = getattr(decl, self.field)
        if self.key is None:
            return value
        if self.field == "refs":
            return [ref[1:] for ref in value if ref[0] == self.key]
        return [(value,)] if value or self.variadic else []

    def write(self, values) -> str:
        if not self.variadic:
            return self.template.format(*map(fmt, values))
        return self.template.format(*map(fmt, values[:-1]),
                                    " ".join(map(self.write_each, values[-1])))


_FORMS = {head: {form.split()[0]: _Form(form, fld) for form, fld in forms}
          for head, forms in LINES.items()}


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
    refs: list = []  # (line, owner, kind, name) of each reference
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
        elif head in LINES:
            if len(toks) == 1:
                raise ModelError(f"{head} declaration without a name", lineno)
            if len(toks) >= 3:  # builder one-liner
                _parse_builder(model, lineno, toks, refs)
                k += 1
            else:
                k = _parse_block(model, lines, k, refs)
        else:
            raise ModelError(f"unknown declaration {head!r}", lineno)
    _resolve(model, refs)
    return model


def _parse_builder(model: ModelFile, lineno: int, toks: list, refs: list) -> None:
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
        else:
            refs.append((lineno, f"{head} {name}", kind, args[i]))
    getattr(model, head + "s")[name] = _DECLS[head](name, builder=(builder, *args))


def _parse_block(model: ModelFile, lines: list, k: int, refs: list) -> int:
    lineno, (head, name) = lines[k]
    decl = _DECLS[head](name)
    rows: dict = {}
    for k in range(k + 1, len(lines)):
        ln, toks = lines[k]
        if toks == ["end"]:
            break
        form, values = _parse_line(head, ln, toks)
        if form.references:
            refs += [(ln, f"{head} {name}", kind, values[i]) for i, kind in form.references]
        if form.key is None:
            rows.setdefault(form.field, []).append(tuple(values))
        elif form.field == "refs":
            rows.setdefault(form.field, []).append((form.key, *values))
        else:
            setattr(decl, form.field, values[0] if values else True)
    else:
        raise ModelError(f"block {name!r} not terminated by 'end'", lineno)
    for fld, values in rows.items():
        setattr(decl, fld, tuple(sorted(values) if fld == "refs" else values))
    getattr(model, head + "s")[name] = decl
    return k + 1


def _parse_line(head: str, ln: int, toks: list) -> tuple:
    """The form of a body line of a ``head`` block and the values it reads."""
    form = _FORMS[head].get(toks[0])
    detail = ""
    if form and (len(toks) == form.size or (len(toks) > form.size and form.variadic)):
        try:
            return form, form.read(toks)
        except ValueError as exc:
            detail = f" ({exc})"
    expected = f"'{form.text}'" if form else "one of: " + ", ".join(_FORMS[head])
    raise ModelError(f"bad {head} line {' '.join(toks)!r}, expected {expected}{detail}", ln)


def _resolve(model: ModelFile, refs: list) -> None:
    """Check each declaration's required line, and that each reference names a
    declaration of the kind its one-liner or line form names."""
    tables = {"group": model.groups, "groupoid": dict(model.groupoids),
              "space": model.spaces, "algebra": model.algebras,
              "bundle": model.bundles, "action": model.actions}
    tables["groupoid"].update(model.groups)  # a group is a one-unit groupoid
    for a in model.actions.values():
        if not a.kind:
            raise ModelError(f"action {a.name!r} has no kind")
        if a.kind not in _ACTION_KINDS:
            raise ModelError(f"action {a.name!r} has unknown kind {a.kind!r}")
    for g in model.groups.values():
        if not (g.builder or g.elements):
            raise ModelError(f"group {g.name!r} has no elements")
    for b in model.bundles.values():
        if not (b.builder or b.base):
            raise ModelError(f"bundle {b.name!r} has no base")
    for s in model.scenarios.values():
        if not s.op:
            raise ModelError(f"scenario {s.name!r} has no op")
    for line, owner, kind, name in refs:
        if name not in tables[kind]:
            raise ModelError(f"{owner} references unknown {kind} {name!r}", line)


# ---------------------------------------------------------------------------
# serialization


def serialize_model(model: ModelFile) -> str:
    out = [f"version {model.version}"]
    for head, forms in _FORMS.items():
        decls = getattr(model, head + "s")
        for name in sorted(decls):
            d = decls[name]
            if getattr(d, "builder", None):
                out.append(" ".join(map(str, (head, d.name, *d.builder))))
                continue
            out.append(f"{head} {d.name}")
            out += [form.write(values) for form in forms.values()
                    for values in form.held(d)]
            out.append("end")
    return "\n".join(out) + "\n"
