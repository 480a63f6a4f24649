"""Golden digests: the sha256 and byte count of every file that `run_scenario`
writes for the five configs of tools/artifact_diff.py, sidecars included.

The manifest next to this file keys the digests by a platform fingerprint
(machine, Python version, numpy version), because the last bits of a float
result may differ between builds.  On a fingerprint the manifest holds, every
digest must match; on any other the test skips and names the fingerprint.

    PYTHONPATH=src python3 tests/test_golden.py

rewrites the manifest's entry for this machine's fingerprint.
"""

import hashlib
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from stridelab.simlab import ScenarioConfig, run_scenario

MANIFEST = Path(__file__).with_name("golden_digests.json")
FINGERPRINT = f"{platform.machine()} python {platform.python_version()} numpy {np.__version__}"

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
try:
    import artifact_diff
finally:
    sys.path.pop(0)


def digests(root: Path) -> dict:
    """{"<config>/<file>": {"sha256", "bytes"}} of the artifacts written under root."""
    out = {}
    for name, doc in artifact_diff.configs().items():
        run_scenario(ScenarioConfig.from_json(doc), root / name)
        for fname in artifact_diff.FILES:
            data = (root / name / fname).read_bytes()
            out[f"{name}/{fname}"] = {"sha256": hashlib.sha256(data).hexdigest(),
                                      "bytes": len(data)}
    return out


def test_artifacts_match_golden_digests(tmp_path):
    manifest = json.loads(MANIFEST.read_text())
    if FINGERPRINT not in manifest:
        pytest.skip(f"no golden digests for fingerprint {FINGERPRINT!r}")
    want, got = manifest[FINGERPRINT], digests(tmp_path)
    assert sorted(got) == sorted(want)
    assert [name for name in want if got[name] != want[name]] == []


if __name__ == "__main__":
    manifest = json.loads(MANIFEST.read_text()) if MANIFEST.is_file() else {}
    with tempfile.TemporaryDirectory() as tmp:
        manifest[FINGERPRINT] = digests(Path(tmp))
    MANIFEST.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(manifest[FINGERPRINT])} digests for {FINGERPRINT!r} to {MANIFEST}")
