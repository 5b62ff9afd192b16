#!/usr/bin/env python3
"""Usage: manifest_leak_test.py CHECK_MANIFEST_STABLE GOLDEN

The golden check names every key a produced manifest has and its golden
lacks: a result key no list ever named must be reported as a leaked key.
"""
import json
import os
import subprocess
import sys
import tempfile


def main():
    checker, golden = sys.argv[1:]
    with open(golden) as f:
        doc = json.load(f)
    doc["sweep"][0]["result"]["cost_by_layer_descent"] = 1
    with tempfile.TemporaryDirectory() as tmp:
        produced = os.path.join(tmp, "leaked.json")
        with open(produced, "w") as f:
            json.dump(doc, f)
        run = subprocess.run([sys.executable, checker, produced, golden],
                             capture_output=True, text=True)
    want = "leaked key: sweep[0].result.cost_by_layer_descent"
    if run.returncode != 1 or want not in run.stderr:
        print(f"FAIL: want exit 1 and '{want}', got exit {run.returncode}:\n"
              f"{run.stderr}", file=sys.stderr)
        return 1
    print(f"OK: {want}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
