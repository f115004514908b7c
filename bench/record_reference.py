"""Record the verify-suite reference: per-entry status, violation count and
min_margin_x for every grid variant the benchmark's seeds select.

    python3 bench/record_reference.py

Run it only at the commit whose verdicts are the reference; the file it
writes, bench/reference_verify.json, names that commit.
"""

from __future__ import annotations

import json
import subprocess
import sys

import run
import workloads as wl


def main() -> int:
    wl.import_package()
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=run.ROOT, text=True,
                            capture_output=True, check=True).stdout.strip()
    variants = {}
    for variant in range(wl.VERIFY_VARIANTS):
        _, x_min, x_max = wl.verify_grid(variant)
        pkg = wl.load_package(fresh=True)
        _, code, out = wl.run_cli(pkg, wl.verify_argv(x_min, x_max))
        if code != 0:
            sys.exit(f"verify exited with {code} on variant {variant}")
        variants[str(variant)] = {"grid_min": x_min, "grid_max": x_max,
                                  "entries": wl.suite_rows(json.loads(out))}
        print(f"variant {variant} recorded", file=sys.stderr)
    wl.VERIFY_REFERENCE.write_text(json.dumps(
        {"commit": commit, "fields": ["bound", "a", "status", "violation_count", "min_margin_x"],
         "variants": variants}, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
