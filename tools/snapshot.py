"""Write every command-line output of this checkout into one directory.

    python tools/snapshot.py OUT

Runs ``python -m ydde`` from this checkout's ``src/`` for every subcommand
on every ``demos/scenarios/*.json`` and keeps, per run, the artifacts, the
stdout and the exit code under ``OUT/<scenario>/<subcommand>/``; then the
runs of :data:`FINE`, ``sin_fbm`` (and ``coupled_fbm``) at the fine
meshes, under ``OUT/fine/``; then ``ydde solve`` on a copy of ``sin_fbm``
whose last history sample is NaN, written with its refusal under
``OUT/errors/``; then the stdout and exit code of each demo script under
``OUT/demos/<script>/``.
Two snapshots of the same outputs are byte-identical, so ``diff -r`` of
the snapshots of two commits shows every output a change alters.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Arguments per subcommand, beside --scenario and --out: small enough that
# the whole snapshot runs in minutes.
SUBCOMMANDS = {
    "verify": [],
    "solve": [],
    "sensitivity": [],
    "partition": [],
    "converge": [],
    "ensemble": ["--seeds", "2"],
}

# Fine-mesh runs, as (subcommand, scenario, mesh): the sizes where the
# segment norms, the Picard diagnostics and the whole-path norms cost most,
# and where most node pairs lie far apart, as the pruned pair scans see them
# (the window maxima of the 2^-14 verify read fewest); the 2^-16 solve is
# past the 2^14 intervals the O(n^2) fBm sampler was capped at.  The d = 2
# coupled_fbm verify at 2^-12 runs the column-major K-column scans (ball,
# uniqueness, differentiability ladder) where they read pruned far block
# pairs, and the norms of vectors rather than absolute values.
FINE = [("solve", "sin_fbm", 2.0 ** -12), ("solve", "sin_fbm", 2.0 ** -14),
        ("solve", "sin_fbm", 2.0 ** -16),
        ("verify", "sin_fbm", 2.0 ** -12), ("verify", "sin_fbm", 2.0 ** -14),
        ("verify", "coupled_fbm", 2.0 ** -12)]


def _run(argv, cwd, dest):
    """Run ``argv`` in ``cwd`` with this checkout's package on the path;
    keep its stdout and exit code in ``dest``."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(argv, cwd=cwd, env=env, capture_output=True)
    (dest / "stdout.txt").write_bytes(proc.stdout)
    (dest / "exit_code.txt").write_text(f"{proc.returncode}\n")


def _nan_history(dest):
    """Write ``dest/scenario.json``, a copy of ``sin_fbm`` whose history is
    the samples 1.0 with NaN at t = 0 (json reads it back); its path."""
    d = json.loads((ROOT / "demos" / "scenarios" / "sin_fbm.json").read_text())
    nodes = round(d["config"]["r"] / d["config"]["mesh"]) + 1
    d["eta"] = {"form": "samples", "samples": [1.0] * (nodes - 1) + [math.nan]}
    path = dest / "scenario.json"
    path.write_text(json.dumps(d))
    return path


def main(argv=None):
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    out = Path(args[0]).resolve()
    out.mkdir(parents=True, exist_ok=True)
    for scenario in sorted((ROOT / "demos" / "scenarios").glob("*.json")):
        for command, extra in SUBCOMMANDS.items():
            dest = out / scenario.stem / command
            (dest / "artifacts").mkdir(parents=True, exist_ok=True)
            _run([sys.executable, "-m", "ydde", command, "--scenario",
                  str(scenario.relative_to(ROOT)), "--out",
                  str(dest / "artifacts"), *extra], ROOT, dest)
    for command, name, mesh in FINE:
        dest = out / "fine" / f"{command}_{name}_{mesh.hex()}"
        (dest / "artifacts").mkdir(parents=True, exist_ok=True)
        _run([sys.executable, "-m", "ydde", command, "--scenario",
              f"demos/scenarios/{name}.json", "--mesh", repr(mesh), "--out",
              str(dest / "artifacts")], ROOT, dest)
    dest = out / "errors" / "solve_sin_fbm_nan_history"
    (dest / "artifacts").mkdir(parents=True, exist_ok=True)
    _run([sys.executable, "-m", "ydde", "solve", "--scenario",
          str(_nan_history(dest)), "--out", str(dest / "artifacts")], ROOT,
         dest)
    dest = out / "counterexample"
    (dest / "artifacts").mkdir(parents=True, exist_ok=True)
    _run([sys.executable, "-m", "ydde", "counterexample", "--out",
          str(dest / "artifacts")], ROOT, dest)
    for script in sorted((ROOT / "demos").glob("*.py")):
        dest = out / "demos" / script.stem
        dest.mkdir(parents=True, exist_ok=True)
        _run([sys.executable, str(script)], dest, dest)
    return 0


if __name__ == "__main__":
    sys.exit(main())
