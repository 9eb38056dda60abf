"""Byte gate on the shipped outputs.

blockage, roc and regime-map run on the shipped and tapered_geometric
configs, and their files are compared with recorded copies under
tests/golden/: every recorded CSV column, JSON key and provenance field,
by name and byte for byte.  Columns and keys appended after the recorded
ones pass; a moved last digit fails.  samples.csv and validation.json on
the shipped config, at two of the benchmark's seeds, are recorded as
SHA-256 digests in tests/golden/manifest.json, beside the Python and
numpy versions that wrote them.

A change that means to move bytes re-records every golden with

    PYTHONPATH=src python tests/test_golden.py

and states which columns moved, and by how much at most.
"""

import hashlib
import json
import platform
import tempfile
from pathlib import Path

import numpy as np
import pytest

from mmwregime import cli

from conftest import BASELINE_CONFIG, REPO_ROOT, load_perfbench

GOLDEN = REPO_ROOT / "tests" / "golden"
MANIFEST = GOLDEN / "manifest.json"
CONFIGS = ("shipped", "tapered_geometric")
ANALYTIC = (("blockage", "blockage.json"), ("roc", "roc.csv"), ("regime-map", "regime_map.csv"))
HASHED = (("simulate", "samples.csv"), ("validate", "validation.json"))
WORKLOADS = load_perfbench("workloads")
SEEDS = WORKLOADS.SIM_SEEDS[:2]


def config_path(name: str, tmp_path: Path) -> Path:
    if name == "shipped":
        return BASELINE_CONFIG
    raw = WORKLOADS.tapered_config(json.loads(BASELINE_CONFIG.read_text()))
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(raw))
    return path


def run(command: str, config: Path, out: Path, *extra: str) -> bytes:
    """The bytes of the one file the command writes under out."""
    argv = [command, "--config", str(config), "--out", str(out), "--workers", "2", *extra]
    assert cli.main(argv) == 0, argv
    return (out / dict(ANALYTIC + HASHED)[command]).read_bytes()


def digests(tmp_path: Path) -> dict:
    return {
        f"{filename} --seed {seed}": hashlib.sha256(
            run(command, BASELINE_CONFIG, tmp_path, "--seed", str(seed))
        ).hexdigest()
        for seed in SEEDS for command, filename in HASHED
    }


def versions() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__}


def _csv(text: str):
    """Provenance fields and named columns of a CSV the CLI wrote, as text."""
    lines = text.splitlines()
    prov = dict(line[2:].split(": ", 1) for line in lines if line.startswith("# "))
    header, *rows = [line.split(",") for line in lines if not line.startswith("# ")]
    assert all(len(row) == len(header) for row in rows), "ragged CSV rows"
    return prov, {name: [row[i] for row in rows] for i, name in enumerate(header)}


def csv_differences(recorded: str, actual: str) -> list[str]:
    rec_prov, rec_cols = _csv(recorded)
    act_prov, act_cols = _csv(actual)
    problems = [f"provenance {key}: {act_prov.get(key)} != recorded {value}"
                for key, value in rec_prov.items() if act_prov.get(key) != value]
    if list(act_cols)[:len(rec_cols)] != list(rec_cols):
        problems.append(f"header {list(act_cols)} does not begin with {list(rec_cols)}")
    for name, cells in rec_cols.items():
        got = act_cols.get(name, [])
        bad = [i for i, (a, b) in enumerate(zip(got, cells)) if a != b]
        if len(got) != len(cells):
            problems.append(f"column {name}: {len(got)} rows != recorded {len(cells)}")
        elif bad:
            problems.append(f"column {name}: {len(bad)} of {len(cells)} rows differ, first row "
                            f"{bad[0]}: {got[bad[0]]} != recorded {cells[bad[0]]}")
    return problems


def json_differences(recorded, actual, path: str = "") -> list[str]:
    if isinstance(recorded, dict) and isinstance(actual, dict):
        return [problem for key, value in recorded.items()
                for problem in (json_differences(value, actual[key], f"{path}/{key}")
                                if key in actual else [f"{path}/{key}: missing"])]
    got, want = json.dumps(actual), json.dumps(recorded)
    return [] if got == want else [f"{path}: {got} != recorded {want}"]


def differences(filename: str, recorded: str, actual: str) -> list[str]:
    if filename.endswith(".json"):
        return json_differences(json.loads(recorded), json.loads(actual))
    return csv_differences(recorded, actual)


@pytest.fixture(scope="module")
def manifest():
    return json.loads(MANIFEST.read_text())


def explain(manifest: dict, problems) -> str:
    here = versions()
    return (f"recorded with Python {manifest['python']}, numpy {manifest['numpy']}; "
            f"running Python {here['python']}, numpy {here['numpy']}:\n" + "\n".join(problems))


@pytest.mark.parametrize("config", CONFIGS)
def test_analytic_outputs_match_the_recorded_columns(config, tmp_path, manifest):
    path = config_path(config, tmp_path)
    problems = []
    for command, filename in ANALYTIC:
        actual = run(command, path, tmp_path).decode()
        recorded = (GOLDEN / config / filename).read_text()
        problems += [f"{config}/{filename}: {p}" for p in differences(filename, recorded, actual)]
    assert problems == [], explain(manifest, problems)


def test_simulated_outputs_match_the_recorded_digests(tmp_path, manifest):
    got = digests(tmp_path)
    problems = [f"{key}: {got.get(key)} != recorded {value}"
                for key, value in manifest["sha256"].items() if got.get(key) != value]
    assert problems == [], explain(manifest, problems)


def test_gate_passes_appended_columns_and_fails_a_one_ulp_change():
    recorded = (GOLDEN / "shipped" / "regime_map.csv").read_text()
    lines = recorded.splitlines(keepends=True)
    start = next(i for i, line in enumerate(lines) if not line.startswith("# "))
    appended = lines[:start] + [line.rstrip("\n") + ",x\n" for line in lines[start:]]
    assert csv_differences(recorded, "".join(appended)) == []

    header = lines[start].rstrip("\n").split(",")
    col = header.index("mean_y_w")
    row = lines[start + 1].rstrip("\n").split(",")
    row[col] = repr(float(np.nextafter(float(row[col]), np.inf)))
    moved = lines[:start + 1] + [",".join(row) + "\n"] + lines[start + 2:]
    assert [p.split(":")[0] for p in csv_differences(recorded, "".join(moved))] == [
        "column mean_y_w"
    ]

    doc = json.loads((GOLDEN / "shipped" / "blockage.json").read_text())
    extended = json.loads(json.dumps(doc))
    extended["blockage"]["appended"] = 1.0
    assert json_differences(doc, extended) == []
    extended["blockage"]["p_b"] = float(np.nextafter(doc["blockage"]["p_b"], 2.0))
    assert [p.split(":")[0] for p in json_differences(doc, extended)] == ["/blockage/p_b"]


def record() -> None:
    """Write every golden file and the manifest from the current code."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for config in CONFIGS:
            path = config_path(config, tmp)
            (GOLDEN / config).mkdir(parents=True, exist_ok=True)
            for command, filename in ANALYTIC:
                (GOLDEN / config / filename).write_bytes(run(command, path, tmp))
        manifest = {**versions(), "sha256": digests(tmp)}
    MANIFEST.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    record()
