"""Byte-for-byte golden outputs, so refactors prove behaviour is unchanged.

The goldens under ``tests/golden/`` hold the CLI ``--json`` reports for the
shipped model and the built-in demos (seed 0, default flags), and the
failing checks of a bundle equivalence whose right inner product was
corrupted.  Regenerate them all with ``PYTHONPATH=src python
tests/test_golden.py`` and review the diff.
"""

import json
import sys
import tempfile
from pathlib import Path

import pytest

from groupoidal import symmetric_action_equivalence, verify_bundle_equivalence
from groupoidal.cli import main
from groupoidal.instances import symmetric_z2z2_bundle

GOLDEN = Path(__file__).resolve().parent / "golden"
MODEL = str(Path(__file__).resolve().parent.parent / "models" / "symmetric_z2z2.model")

CLI_RUNS = {
    "validate": ["validate", MODEL],
    "check_base_equivalence": ["check-equivalence", "base_equivalence", MODEL],
    "check_bundle_equivalence": ["check-equivalence", "bundle_equivalence", MODEL],
    "check_principal_h": ["check-equivalence", "principal_h", MODEL],
    "morita_symmetric_z2z2": ["morita", "symmetric_z2z2", MODEL],
    "demo_raeburn": ["demo", "raeburn"],
    "demo_raeburn_two_sided": ["demo", "raeburn", "--two-sided"],
    "demo_coaction_z2": ["demo", "coaction", "--group", "Z2"],
    "demo_coaction_z3": ["demo", "coaction", "--group", "Z3"],
}


def cli_report(args, workdir) -> bytes:
    out = Path(workdir) / "report.json"
    main([*args, "--json", str(out)])
    return out.read_bytes()


def right_corruption_failures() -> bytes:
    """Failing checks after negating one off-diagonal right inner product."""
    lb, gba, hba = symmetric_z2z2_bundle()
    e = symmetric_action_equivalence(lb, gba, hba)
    key = next(k for k in e.right_inner if k[0] != k[1])
    e.right_inner[key] = -e.right_inner[key]
    rep = verify_bundle_equivalence(e)
    failures = [[c.name, c.witness] for c in rep.failures()]
    return (json.dumps(failures, indent=2) + "\n").encode()


@pytest.mark.parametrize("name", sorted(CLI_RUNS))
def test_cli_report_matches_golden(name, tmp_path):
    assert cli_report(CLI_RUNS[name], tmp_path) == (GOLDEN / f"{name}.json").read_bytes()


def test_right_inner_corruption_matches_golden():
    golden = (GOLDEN / "right_inner_corruption.json").read_bytes()
    assert right_corruption_failures() == golden


def _regenerate() -> None:
    from test_morita import mixed_group_orders_certificate

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as workdir:
        for name, args in CLI_RUNS.items():
            (GOLDEN / f"{name}.json").write_bytes(cli_report(args, workdir))
    (GOLDEN / "right_inner_corruption.json").write_bytes(right_corruption_failures())
    (GOLDEN / "mixed_group_orders_certificate.json").write_text(
        mixed_group_orders_certificate().to_json() + "\n")


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    _regenerate()
