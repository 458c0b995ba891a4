"""Expected results for every benchmark operation.

Each factory returns a check that raises ``Mismatch`` when a result
disagrees with the oracle.  Corner dimensions come from closed forms
(n^2 |G| / |H| and n^2 |H| / |G| for the symmetric inputs, |G|^3 d and
|G| d for the coaction); fullness ranks, block multisets and center
dimensions come from ``reference.json``, one entry per instance shape,
recorded once and independent of the seed (relabelings do not change them).
"""

from __future__ import annotations

import json
import os
import re

with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json"),
          encoding="utf-8") as _fh:
    REFERENCE = json.load(_fh)


class Mismatch(AssertionError):
    """A result that disagrees with the oracle."""


def _expect(ok: bool, message: str) -> None:
    if not ok:
        raise Mismatch(message)


def _shape_key(shape) -> str:
    return ",".join(str(v) for v in shape)


# ---------------------------------------------------------------------------
# certificates


def _summary_of_certificate(cert) -> dict:
    return {
        "verdict": cert.verdict,
        "dims": [cert.left_dimension, cert.right_dimension],
        "fullness": [cert.fullness_rank_left, cert.fullness_rank_right],
        "blocks": [sorted(cert.left_report.blocks), sorted(cert.right_report.blocks)],
        "centers": [cert.left_report.center_dimension,
                    cert.right_report.center_dimension],
        "margins": [cert.positivity_margin_left, cert.positivity_margin_right],
        "exchange": cert.exchange_residual,
        "note_residuals": _note_residuals(cert.notes),
    }


def _note_residuals(notes) -> list:
    return [float(m) for n in notes for m in re.findall(r"residual (\S+?)\)", n)]


_CORNER = re.compile(r"(left|right) corner:\s+dim (\d+), blocks \[([\d, ]*)\], center (\d+)")


def _summary_of_text(text: str) -> dict:
    """The same summary, parsed from the text of a ``morita`` report."""
    verdict = re.search(r"verdict: (\S+)", text)
    corners = {side: (int(d), sorted(int(b) for b in blocks.split(",") if b.strip()), int(c))
               for side, d, blocks, c in _CORNER.findall(text)}
    full = re.search(r"fullness: left (\d+)/\d+, right (\d+)/\d+", text)
    margins = re.search(r"positivity margins: left (\S+), right (\S+)", text)
    exchange = re.search(r"exchange residual: (\S+)", text)
    _expect(all((verdict, full, margins, exchange)) and len(corners) == 2,
            "morita report is missing certificate lines")
    return {
        "verdict": verdict.group(1),
        "dims": [corners["left"][0], corners["right"][0]],
        "fullness": [int(full.group(1)), int(full.group(2))],
        "blocks": [corners["left"][1], corners["right"][1]],
        "centers": [corners["left"][2], corners["right"][2]],
        "margins": [float(margins.group(1)), float(margins.group(2))],
        "exchange": float(exchange.group(1)),
        "note_residuals": _note_residuals(text.splitlines()),
    }


def _check_summary(s: dict, dims: list, ref: dict, tol: float) -> None:
    _expect(s["verdict"] == "equivalent", f"verdict {s['verdict']}")
    _expect(s["dims"] == dims, f"corner dimensions {s['dims']}, expected {dims}")
    _expect(s["centers"][0] == s["centers"][1], f"corner centers differ: {s['centers']}")
    _expect(min(s["margins"]) >= -tol, f"positivity margins {s['margins']}")
    _expect(s["exchange"] <= tol, f"exchange residual {s['exchange']}")
    _expect(all(r <= tol for r in s["note_residuals"]),
            f"identification residuals {s['note_residuals']}")
    _expect(s["fullness"] == ref["fullness"],
            f"fullness ranks {s['fullness']}, reference {ref['fullness']}")
    _expect(s["blocks"] == ref["blocks"],
            f"blocks {s['blocks']}, reference {ref['blocks']}")
    _expect(s["centers"][0] == ref["center"],
            f"center dimension {s['centers'][0]}, reference {ref['center']}")


def symmetric_dims(shape) -> list:
    ng, nh, nk = shape
    n = ng * nh * nk
    return [n * n * ng // nh, n * n * nh // ng]


def symmetric_certificate(shape, tol: float):
    ref = REFERENCE["symmetric"][_shape_key(shape)]

    def check(cert) -> None:
        _check_summary(_summary_of_certificate(cert), symmetric_dims(shape), ref, tol)

    return check


def coaction_certificate(order: int, fiber_dim: int, tol: float):
    ref = REFERENCE["coaction"][_shape_key((order, fiber_dim))]
    dims = [order ** 3 * fiber_dim, order * fiber_dim]

    def check(cert) -> None:
        _check_summary(_summary_of_certificate(cert), dims, ref, tol)

    return check


# ---------------------------------------------------------------------------
# command-line results, as (exit code, output)


def cli_morita(shape, non_free: bool, tol: float):
    if non_free:
        def check(result) -> None:
            code, out = result
            _expect(code == 1, f"exit {code} on a non-free action, expected 1")
            _expect("not free" in out, "non-free rejection does not name freeness")
        return check
    ref = REFERENCE["symmetric"][_shape_key(shape)]

    def check(result) -> None:
        code, out = result
        _expect(code == 0, f"exit {code}, expected 0")
        _check_summary(_summary_of_text(out), symmetric_dims(shape), ref, tol)

    return check


def cli_exit(expected: int):
    def check(result) -> None:
        code, _out = result
        _expect(code == expected, f"exit {code}, expected {expected}")

    return check


def cli_build(shape, out_path: str):
    ng, nh, nk = shape
    n = ng * nh * nk
    fibers = ng * n * n  # arrows of the semidirect product X x| G

    def check(result) -> None:
        code, out = result
        _expect(code == 0, f"exit {code}, expected 0")
        _expect(f"semidirect bundle with {fibers} fibers" in out,
                f"expected {fibers} fibers in the built bundle")
        _expect(os.path.exists(out_path), "build wrote no model")

    return check


def cli_validate_built():
    def check(result) -> None:
        code, out = result
        _expect(code == 0, f"exit {code}, expected 0")
        _expect("[pass] bundle S" in out and "[pass] groupoid S_base" in out,
                "emitted bundle or base did not validate")

    return check


def step3_rejection(rep) -> None:
    _expect(not rep.ok, "corrupted equivalence was accepted")
    _expect(any("step 3" in c.name and c.witness for c in rep.failures()),
            "corruption rejected without a step-3 witness")
