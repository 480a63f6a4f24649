"""Shows that each output check rejects the corruption meant for it.

    python3 perfbench/selftest.py

Run from the root of a stridelab checkout.  It simulates a short five-link
and a short ALIP scenario, checks that the pristine outputs pass, then
corrupts copies of them (a flipped byte, a perturbed L column, a negative
impulse, a broken momentum transfer, a moved placement) and feeds the Poincare
check a wrong eigenvalue.  Exits 1 if any corruption goes unnoticed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
import sys
from pathlib import Path

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))

from stridelab import cli  # noqa: E402

import checks  # noqa: E402
import scenarios  # noqa: E402

WORK = ROOT / ".perfbench_out" / "selftest"


def simulate(name: str, config: dict) -> Path:
    out = WORK / name
    cfg_path = WORK / f"{name}.json"
    cfg_path.write_text(json.dumps(config))
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["simulate", str(cfg_path), "--out", str(out)])
    if code != 0:
        raise SystemExit(f"selftest: simulate {name} exited {code}")
    return out


def all_checks(out: Path, config: dict) -> dict:
    found = {
        "sidecar": checks.check_sidecar(out, config),
        "rollout": checks.check_rollout(out, config),
    }
    if config["plant"] == "ALIP":
        found["alip_law"] = checks.check_alip_law(out, config)
    return found


def edit_cell(out: Path, name: str, column: str, row: int, change) -> None:
    """Rewrite one CSV cell and refresh the sidecar, so that only the
    physics checks can notice."""
    path = out / name
    lines = path.read_text().splitlines()
    col = lines[0].split(",").index(column)
    cells = lines[1 + row].split(",")
    cells[col] = format(change(float(cells[col])), ".17g")
    lines[1 + row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    sidecar_path = out / "scenario.json"
    sidecar = json.loads(sidecar_path.read_text())
    blob = path.read_bytes()
    sidecar["files"][name] = {"sha256": hashlib.sha256(blob).hexdigest(), "bytes": len(blob)}
    sidecar_path.write_text(json.dumps(sidecar, indent=2, sort_keys=True) + "\n")


def flip_byte(out: Path, name: str) -> None:
    path = out / name
    blob = bytearray(path.read_bytes())
    i = len(blob) // 2
    while not chr(blob[i]).isdigit():
        i += 1
    blob[i] = ord("1") if blob[i] != ord("1") else ord("2")
    path.write_bytes(bytes(blob))


def main() -> int:
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    five = dict(scenarios.draw("simulate-five-link", 0), duration=3)
    alip = dict(scenarios.draw("simulate-alip", 0), duration=6)
    pristine = {"five": (simulate("five", five), five), "alip": (simulate("alip", alip), alip)}
    bad = 0

    def expect(label: str, found: dict, failing: str | None) -> None:
        nonlocal bad
        flagged = sorted(k for k, v in found.items() if v)
        ok = flagged == ([failing] if failing else [])
        bad += not ok
        detail = "; ".join(m for v in found.values() for m in v) or "all checks pass"
        print(f"{'ok  ' if ok else 'FAIL'} {label}: flagged {flagged or 'nothing'} ({detail})")

    for key, (out, config) in pristine.items():
        expect(f"{key} pristine", all_checks(out, config), None)

    def corrupted(key: str, label: str, failing: str, corrupt) -> None:
        out, config = pristine[key]
        copy = WORK / f"{key}-{label.replace(' ', '-')}"
        shutil.copytree(out, copy)
        corrupt(copy)
        expect(f"{key} {label}", all_checks(copy, config), failing)

    for key in pristine:
        corrupted(key, "flipped byte", "sidecar", lambda d: flip_byte(d, "trace.csv"))
        corrupted(key, "perturbed L column", "rollout",
                  lambda d: edit_cell(d, "trace.csv", "L", 40, lambda v: v + 1e-3))
    corrupted("five", "negative impulse", "rollout",
              lambda d: edit_cell(d, "events.csv", "impulse_z", 1, lambda v: -abs(v) - 1e-6))

    def broken_transfer(d: Path) -> None:
        edit_cell(d, "events.csv", "L_plus", 1, lambda v: v + 1e-6)
        edit_cell(d, "per_step.csv", "L_start_plus", 1, lambda v: v + 1e-6)

    corrupted("five", "broken momentum transfer", "rollout", broken_transfer)
    corrupted("alip", "moved placement", "alip_law",
              lambda d: edit_cell(d, "per_step.csv", "placement", 2, lambda v: v + 1e-6))

    alpha = scenarios.draw("poincare-five-link", 0)["gait"]["alpha"]
    good = [alpha * alpha] + [0.01] * 9
    expect("poincare correct eigenvalues", {"poincare": checks.check_poincare(good, alpha, 1e-9)},
           None)
    for label, eig, residual in (
        ("wrong eigenvalue", [alpha * alpha + 0.15] + [0.01] * 9, 1e-9),
        ("unstable eigenvalue", [1.02] + [0.01] * 9, 1e-9),
        ("not a fixed point", good, 1e-3),
    ):
        expect(f"poincare {label}", {"poincare": checks.check_poincare(eig, alpha, residual)},
               "poincare")
    shutil.rmtree(WORK, ignore_errors=True)
    print("selftest:", "every corruption was rejected" if not bad else f"{bad} case(s) wrong")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
