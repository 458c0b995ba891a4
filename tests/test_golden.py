"""Byte-for-byte golden outputs, so refactors prove behaviour is unchanged.

The goldens under ``tests/golden/`` hold the CLI ``--json`` reports for the
shipped model, the transformation and C*-bundle scenarios of the model
texts in ``test_modelio`` and the built-in demos (seed 0, default flags),
and the failing checks, with their witnesses, of three corrupted instances: a
bundle equivalence with one right inner product negated, one with a right
module tensor perturbed, and a linking bundle with one product tensor
scaled.  Regenerate them all with ``PYTHONPATH=src python
tests/test_golden.py`` and review the diff.  A test keeps the golden files,
the tables that generate them and the CI workflow's console-script
comparisons in step.
"""

import json
import sys
import tempfile
from pathlib import Path

import pytest

from groupoidal import (
    linking_system,
    symmetric_action_equivalence,
    validate_fell_bundle,
    verify_bundle_equivalence,
)
from groupoidal.cli import main
from groupoidal.instances import symmetric_z2z2_bundle

from test_modelio import COVERAGE_MODEL, _cstar_model_text

GOLDEN = Path(__file__).resolve().parent / "golden"
MODEL = str(Path(__file__).resolve().parent.parent / "models" / "symmetric_z2z2.model")
WORKFLOW = Path(__file__).resolve().parent.parent / ".github" / "workflows" / "tests.yml"

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

# certificates of scenarios declared in model texts, run from a written copy
MODEL_RUNS = {
    "morita_trans": (COVERAGE_MODEL, ["morita", "trans"]),
    "check_trans_equivalence": (COVERAGE_MODEL, ["check-equivalence", "trans"]),
    "morita_cstar": (_cstar_model_text(None), ["morita", "cstar"]),
}


def cli_report(args, workdir) -> bytes:
    out = Path(workdir) / "report.json"
    main([*args, "--json", str(out)])
    return out.read_bytes()


def model_report(name, workdir) -> bytes:
    text, args = MODEL_RUNS[name]
    model = Path(workdir) / "scenario.model"
    model.write_text(text)
    return cli_report([*args, str(model)], workdir)


def failures_json(rep) -> bytes:
    failures = [[c.name, c.witness] for c in rep.failures()]
    return (json.dumps(failures, indent=2) + "\n").encode()


def right_corruption_failures() -> bytes:
    """Failing checks after negating one off-diagonal right inner product."""
    lb, gba, hba = symmetric_z2z2_bundle()
    e = symmetric_action_equivalence(lb, gba, hba)
    key = next(k for k in e.right_inner if k[0] != k[1])
    e.right_inner[key] = -e.right_inner[key]
    return failures_json(verify_bundle_equivalence(e))


def right_tensor_corruption_failures() -> bytes:
    """Failing checks after perturbing one right module tensor (step 1 and on)."""
    lb, gba, hba = symmetric_z2z2_bundle()
    e = symmetric_action_equivalence(lb, gba, hba)
    key = next(k for k in e.right_tensors if k[0] != k[1][1])
    e.right_tensors[key] = e.right_tensors[key] + 0.25
    return failures_json(verify_bundle_equivalence(e))


def linking_mult_corruption_failures() -> bytes:
    """Failing checks after scaling one product tensor of the linking bundle.

    The scaled product is <z, z>_L, the pair (z, zb) that is its own
    partner under (x, y) -> (inv y, inv x), so one pair attains the
    antihomomorphism residual.
    """
    lb, gba, hba = symmetric_z2z2_bundle()
    ls = linking_system(symmetric_action_equivalence(lb, gba, hba))
    key = next(k for k in ls.bundle.mult
               if k[0][0] == "z" and k[1][0] == "zb" and k[0][1] == k[1][1])
    ls.bundle.mult[key] = 1.5 * ls.bundle.mult[key]
    return failures_json(validate_fell_bundle(ls.bundle))


WITNESS_RUNS = {
    "right_inner_corruption": right_corruption_failures,
    "right_tensor_corruption": right_tensor_corruption_failures,
    "linking_mult_corruption": linking_mult_corruption_failures,
}


@pytest.mark.parametrize("name", sorted(CLI_RUNS))
def test_cli_report_matches_golden(name, tmp_path):
    assert cli_report(CLI_RUNS[name], tmp_path) == (GOLDEN / f"{name}.json").read_bytes()


@pytest.mark.parametrize("name", sorted(MODEL_RUNS))
def test_model_text_report_matches_golden(name, tmp_path):
    assert model_report(name, tmp_path) == (GOLDEN / f"{name}.json").read_bytes()


@pytest.mark.parametrize("name", sorted(WITNESS_RUNS))
def test_corruption_witnesses_match_golden(name):
    assert WITNESS_RUNS[name]() == (GOLDEN / f"{name}.json").read_bytes()


def _console_script_step() -> str:
    """The text of the CI workflow's "Console script" step."""
    text = WORKFLOW.read_text()
    start = text.index("- name: Console script")
    end = text.find("- name:", start + 1)
    return text[start:] if end < 0 else text[start:end]


def test_goldens_generator_and_ci_agree():
    # every golden has one generator here, and each CLI and model golden is
    # also compared byte for byte against the installed console script
    stems = {p.stem for p in GOLDEN.glob("*.json")}
    assert stems == {*CLI_RUNS, *MODEL_RUNS, *WITNESS_RUNS, "mixed_group_orders_certificate"}
    step = _console_script_step()
    unchecked = [name for name in (*CLI_RUNS, *MODEL_RUNS)
                 if f"cmp out.json tests/golden/{name}.json" not in step]
    assert not unchecked, f"goldens the console-script step does not compare: {unchecked}"


def _regenerate() -> None:
    from test_morita import mixed_group_orders_certificate

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as workdir:
        for name, args in CLI_RUNS.items():
            (GOLDEN / f"{name}.json").write_bytes(cli_report(args, workdir))
        for name in MODEL_RUNS:
            (GOLDEN / f"{name}.json").write_bytes(model_report(name, workdir))
    for name, failures in WITNESS_RUNS.items():
        (GOLDEN / f"{name}.json").write_bytes(failures())
    (GOLDEN / "mixed_group_orders_certificate.json").write_text(
        mixed_group_orders_certificate().to_json() + "\n")


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    _regenerate()
