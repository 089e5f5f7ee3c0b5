#!/usr/bin/env python3
"""Run the full certification suite: every claim in ``certify.TARGETS``.

Writes one certificate JSON per claim with a dominance threshold plus a
summary, scans every claim exactly, and exits nonzero if anything fails to
certify.  Every target runs at ``certify``'s default precision;
``qsign certify --precision`` sets another one.

    python scripts/run_certification.py --out-dir out/
"""

import argparse
import json
import sys
import time
from pathlib import Path

from qsign.certify import TARGETS, certify, richmond_szekeres_scan, verify_known_theorems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="out", type=Path)
    args = parser.parse_args()
    args.out_dir.mkdir(parents=True, exist_ok=True)

    failures = 0
    summary = {}
    certifiable = [key for key, target in TARGETS.items() if target.threshold_index is not None]
    for key in certifiable:
        t0 = time.perf_counter()
        result = certify(key)
        elapsed = time.perf_counter() - t0
        path = args.out_dir / f"certificate_{key}.json"
        path.write_text(json.dumps(result.certificate, indent=2) + "\n")
        status = "certified" if result.ok else f"FAILED (exit {result.exit_code})"
        print(f"{key}: {status} in {elapsed:.1f}s -> {path}")
        summary[key] = {"ok": result.ok, "seconds": round(elapsed, 2),
                        "hash": result.certificate["meta"]["hash"]}
        failures += 0 if result.ok else 1

    print(f"patterns from their first index: ok for {', '.join(verify_known_theorems())}")
    scans = richmond_szekeres_scan()
    for name, scan in scans.items():
        print(f"eventual pattern {name}: holds from index {scan.cutoff}, "
              f"exceptions {list(scan.exceptions)}")
    summary["eventual_patterns"] = {n: {"cutoff": s.cutoff, "exceptions": list(s.exceptions)}
                                    for n, s in scans.items()}
    (args.out_dir / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
