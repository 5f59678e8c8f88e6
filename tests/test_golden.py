"""Every product is byte for byte the committed golden set (tests/data/golden).

The goldens are nine top-level manifests, whose entries hold the size and
SHA-256 of each of the 477 files the runs write, the `verify --level fast`
report and the environment they were made in.  They change only through
tests/data/golden/regenerate.py, for an intended change of product bytes.
"""
import importlib.util
import json
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "data" / "golden"


def _regenerate():
    spec = importlib.util.spec_from_file_location("golden_regenerate", GOLDEN / "regenerate.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _moved(name: str, golden: bytes, produced: bytes) -> list[str]:
    """The files of a differing golden whose entry moved; the golden itself if none did."""
    run = name.removesuffix(".manifest.json")
    if run == name:
        return [name]
    entries = [{e["path"]: e for e in json.loads(m)["files"]} for m in (golden, produced)]
    paths = sorted(set(entries[0]) | set(entries[1]))
    moved = [p for p in paths if entries[0].get(p) != entries[1].get(p)]
    return [f"{run}/{p}" for p in moved] or [f"{run}/manifest.json"]


def test_products_match_the_goldens(tmp_path):
    regenerate = _regenerate()
    produced = regenerate.generate(tmp_path)
    on_disk = {p.name for p in GOLDEN.iterdir() if p.is_file() and p.suffix != ".py"}
    assert on_disk == set(produced), "the golden set lists other files than a run writes"
    golden = {name: (GOLDEN / name).read_bytes() for name in produced}
    moved = [
        path
        for name in sorted(produced)
        if name != regenerate.ENVIRONMENT and golden[name] != produced[name]
        for path in _moved(name, golden[name], produced[name])
    ]
    then = json.loads(golden[regenerate.ENVIRONMENT])
    now = regenerate.environment()
    changed = [f"{k} {then.get(k)} -> {now.get(k)}" for k in sorted(then | now) if then.get(k) != now.get(k)]
    environment = "; environment: " + ", ".join(changed) if changed else "; same environment"
    assert not moved, f"{len(moved)} products moved: {', '.join(moved)}{environment}"
