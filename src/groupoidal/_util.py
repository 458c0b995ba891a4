"""Shared helpers: identifier ordering and formatting, residual reductions."""

from __future__ import annotations

import numpy as np

# absolute tolerance of every entrywise check unless a caller passes its own
DEFAULT_TOL = 1e-9

_BLOCK = 1 << 13  # tuples per block of a law: bounds what a pass holds at once


def sort_key(obj):
    """Stable total order on identifiers (ints, strings, nested tuples).

    Used wherever a canonical orbit representative or a deterministic
    iteration order is needed.  The order is arbitrary but reproducible.
    """
    if isinstance(obj, bool):
        return (0, int(obj))
    if isinstance(obj, int):
        return (0, obj)
    if isinstance(obj, str):
        return (1, obj)
    if isinstance(obj, tuple):
        return (2, len(obj)) + tuple(sort_key(o) for o in obj)
    return (3, repr(obj))


def canonical_min(items):
    """Minimal element of ``items`` under :func:`sort_key`."""
    return min(items, key=sort_key)


def deviation(a, b) -> float:
    """max |a - b| over all entries, 0.0 for empty arrays; NaN propagates."""
    diff = np.abs(np.asarray(a) - np.asarray(b))
    return float(np.max(diff)) if diff.size else 0.0


def worst_residual(values) -> tuple[float, int | None]:
    """The largest residual and the index of its first occurrence.

    NaN counts as larger than every number, so a NaN residual is the one
    reported, and it fails every ``<= tol`` test; ``max()`` and ``d > worst``
    would drop it.  No residuals give (0.0, None).
    """
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        return 0.0, None
    i = int(np.argmax(arr))
    return float(arr[i]), i


def _ranges(lo: np.ndarray, hi: np.ndarray) -> tuple:
    """The positions in the ranges [lo, hi), concatenated, and for each the
    index of the range it came from."""
    counts = hi - lo
    owner = np.repeat(np.arange(len(lo)), counts)
    first = np.cumsum(counts) - counts
    return owner, np.arange(int(counts.sum())) - first[owner] + lo[owner]


def fmt(obj) -> str:
    """Compact, whitespace-free text form of an identifier.

    Tuples render as ``(a,b)``; the output is parseable back by the model
    reader and safe to embed in reports.
    """
    if isinstance(obj, tuple):
        return "(" + ",".join(fmt(o) for o in obj) + ")"
    return str(obj)


def parse_ident(text: str):
    """Inverse of :func:`fmt`: parse ``(a,(b,c))`` style identifiers.

    One pass with a stack of the open tuples: each item is an atom or opens
    a tuple, and the innermost open tuple takes it, then "," or ")".  An
    error names the text from the tuple or atom where it occurs.
    """
    open_tuples = []  # (position of its "(", items so far), innermost last
    i, n = 0, len(text)
    while True:
        if i == n:
            raise ValueError("empty identifier")
        if text[i] == "(":
            open_tuples.append((i, []))
            i += 1
            continue
        start = i
        while i < n and text[i] not in "(),":
            i += 1
        if i == start:
            raise ValueError(f"bad identifier {text[start:]!r}")
        try:
            item = int(text[start:i])
        except ValueError:
            item = text[start:i]
        while open_tuples:
            start, items = open_tuples[-1]
            items.append(item)
            if i == n:
                raise ValueError(f"unterminated tuple in identifier {text[start:]!r}")
            sep = text[i]
            i += 1
            if sep == ",":
                break
            if sep != ")":
                raise ValueError(f"bad separator {sep!r} in identifier {text[start:]!r}")
            open_tuples.pop()
            item = tuple(items)
        else:
            if i < n:
                raise ValueError(f"trailing characters {text[i:]!r} in identifier {text!r}")
            return item
