"""Golden digests: the sha256 and byte count of every file that `run_scenario`
writes for the five configs of tools/artifact_diff.py, sidecars included.

The manifest next to this file keys the digests by a platform fingerprint
(machine, Python version, numpy version), because the last bits of a float
result may differ between builds.  On a fingerprint the manifest holds, every
digest must match; on any other the test skips and names the fingerprint.
The gate runs twice: in this process, and in a fresh interpreter with
PYTHONHASHSEED=123 and OPENBLAS_NUM_THREADS=1, where neither the hash seed nor
the BLAS thread count may reach an artifact byte.

    PYTHONPATH=src python3 tests/test_golden.py

rewrites the manifest's entry for this machine's fingerprint.
"""

import hashlib
import json
import os
import platform
import subprocess
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


def golden() -> dict:
    """The manifest's digests for this fingerprint; skips when it has none."""
    manifest = json.loads(MANIFEST.read_text())
    if FINGERPRINT not in manifest:
        pytest.skip(f"no golden digests for fingerprint {FINGERPRINT!r}")
    return manifest[FINGERPRINT]


def test_artifacts_match_golden_digests(tmp_path):
    want, got = golden(), digests(tmp_path)
    assert sorted(got) == sorted(want)
    assert [name for name in want if got[name] != want[name]] == []


def test_artifacts_match_golden_digests_under_another_hash_seed_and_blas_thread_count(tmp_path):
    want = golden()
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONHASHSEED="123", OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    code = ("import json, sys; from pathlib import Path; import test_golden; "
            "print(json.dumps(test_golden.digests(Path(sys.argv[1]))))")
    run = subprocess.run([sys.executable, "-c", code, str(tmp_path)], env=env,
                         cwd=Path(__file__).parent, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout) == want


if __name__ == "__main__":
    manifest = json.loads(MANIFEST.read_text()) if MANIFEST.is_file() else {}
    with tempfile.TemporaryDirectory() as tmp:
        manifest[FINGERPRINT] = digests(Path(tmp))
    MANIFEST.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(manifest[FINGERPRINT])} digests for {FINGERPRINT!r} to {MANIFEST}")
