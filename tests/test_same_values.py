"""`scripts/same_values.py`: two runs on one tree print the same rows, a
changed digest is reported by its row alone, and a tree whose scalar
`lookup` is off by one differs in exactly the scalar rows of the shapes
with unambiguous minimizers."""

import importlib.util
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("long-k31", "unitigs-k31", "unitigs-k31-long", "k63-m12",
             "k63-m21-long", "k33-m1", "k33-m8")


def load_script():
    spec = importlib.util.spec_from_file_location(
        "same_values", ROOT / "scripts" / "same_values.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def differing_rows(out):
    return [line.split()[1:4] for line in out.splitlines()
            if line.startswith("DIFFERS")]


def test_one_tree_agrees_and_a_changed_value_is_reported(tmp_path, capsys):
    sv = load_script()
    rows = sv.digests(ROOT)
    assert len(rows) == len(WORKLOADS) * (2 * 6 + 2)
    assert sv.digests(ROOT) == rows
    assert sv.compare(rows, rows) == 0
    row = "unitigs-k31 partitioned random-checked"
    assert sv.compare(rows, {**rows, row: "0" * 64}) == 1
    assert differing_rows(capsys.readouterr().out) == [row.split()]

    for part in ("src", "bench"):
        shutil.copytree(ROOT / part, tmp_path / part, ignore=shutil.ignore_patterns(
            "__pycache__", ".bench_work"))
    basic = tmp_path / "src" / "lpmphf" / "basic.py"
    hit = "return base + p1 - pos\n"
    assert basic.read_text().count(hit) == 1
    basic.write_text(basic.read_text().replace(hit, "return base + p1 - pos + 1\n"))
    assert sv.compare(rows, sv.digests(tmp_path)) == 1
    # at k33-m1 every minimizer is ambiguous: its values all come from the
    # fallback MPHF, which that line does not reach
    assert differing_rows(capsys.readouterr().out) == [
        [wl, variant, "scalar"] for wl in WORKLOADS if wl != "k33-m1"
        for variant in ("basic", "partitioned")]
