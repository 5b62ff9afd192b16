#!/usr/bin/env python3
"""Golden-manifest regression check.

Usage: check_manifest_stable.py [--ignore-obs-config] PRODUCED GOLDEN

Compares a freshly produced euno.run_manifest.v1 file against a checked-in
golden byte-for-byte. The simulator is deterministic and the manifest writer
emits a canonical layout, so ANY byte difference means a tree's
simulated behaviour (or the manifest schema) changed — exactly what the
layering refactor must not do. On mismatch, prints the first differing JSON
path to make the drift attributable, then fails.

With --ignore-obs-config the comparison is structural and each sweep
point's spec.obs subtree is dropped from both sides first. This is the
obs-invariance gate: a manifest produced with different observability
channels enabled (e.g. tracing on) must agree with the golden on every
simulated quantity — results, histograms, abort counts — differing only in
the recorded obs configuration itself. Any other difference means an obs
channel perturbed the simulation.
"""
import json
import sys


def extra_keys(produced, golden, path):
    """Paths of every key, at any depth, that `produced` has and `golden`
    lacks."""
    if isinstance(produced, dict) and isinstance(golden, dict):
        extra = []
        for key, value in produced.items():
            if key not in golden:
                extra.append(f"{path}.{key}")
            else:
                extra += extra_keys(value, golden[key], f"{path}.{key}")
        return extra
    if isinstance(produced, list) and isinstance(golden, list):
        extra = []
        for i, (p, g) in enumerate(zip(produced, golden)):
            extra += extra_keys(p, g, f"{path}[{i}]")
        return extra
    return []


def conditional_key_leaks(produced, golden):
    """Keys a produced sweep point has under `result` or `spec` (spec.obs
    aside) that its golden point lacks. The manifest writer emits a policy's,
    the store's or a key domain's keys only when they apply, so such a key
    leaked into a run that should never produce it; naming each beats a
    generic first difference. Returns 'sweep[i].result.key'-style paths."""
    leaks = []
    points = zip(produced.get("sweep", []), golden.get("sweep", []))
    for i, (point, gold) in enumerate(points):
        for section in ("result", "spec"):
            mine = point.get(section, {})
            if section == "spec":
                mine = {k: v for k, v in mine.items() if k != "obs"}
            leaks += extra_keys(mine, gold.get(section, {}),
                                f"sweep[{i}].{section}")
    return leaks


def strip_obs_config(doc):
    """Removes spec.obs from every sweep point (mutates and returns doc)."""
    for point in doc.get("sweep", []):
        spec = point.get("spec")
        if isinstance(spec, dict):
            spec.pop("obs", None)
    return doc


def first_diff(a, b, path="$"):
    """Returns a human-readable path to the first structural difference."""
    if type(a) is not type(b):
        return f"{path}: type {type(a).__name__} != {type(b).__name__}"
    if isinstance(a, dict):
        for k in a:
            if k not in b:
                return f"{path}.{k}: missing from golden"
            d = first_diff(a[k], b[k], f"{path}.{k}")
            if d:
                return d
        for k in b:
            if k not in a:
                return f"{path}.{k}: missing from produced"
        return None
    if isinstance(a, list):
        if len(a) != len(b):
            return f"{path}: length {len(a)} != {len(b)}"
        for i, (x, y) in enumerate(zip(a, b)):
            d = first_diff(x, y, f"{path}[{i}]")
            if d:
                return d
        return None
    if a != b:
        return f"{path}: {a!r} != {b!r}"
    return None


def main():
    args = [a for a in sys.argv[1:] if a != "--ignore-obs-config"]
    ignore_obs = "--ignore-obs-config" in sys.argv[1:]
    if len(args) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    produced_path, golden_path = args
    with open(produced_path, "rb") as f:
        produced_bytes = f.read()
    with open(golden_path, "rb") as f:
        golden_bytes = f.read()

    produced = json.loads(produced_bytes)
    if produced.get("schema") != "euno.run_manifest.v1":
        print(f"FAIL: {produced_path} is not a euno.run_manifest.v1 file",
              file=sys.stderr)
        return 1

    golden = json.loads(golden_bytes)
    leaks = conditional_key_leaks(produced, golden)
    if leaks:
        print(f"FAIL: {produced_path} emits keys the golden {golden_path} "
              f"lacks", file=sys.stderr)
        for leak in leaks:
            print(f"  leaked key: {leak}", file=sys.stderr)
        return 1

    if ignore_obs:
        diff = first_diff(strip_obs_config(produced), strip_obs_config(golden))
        if diff:
            print(f"FAIL: {produced_path} differs from golden {golden_path} "
                  f"beyond the obs configuration", file=sys.stderr)
            print(f"  first difference: {diff}", file=sys.stderr)
            return 1
        tree = produced["sweep"][0]["spec"]["tree"] if produced["sweep"] else "?"
        print(f"OK: {produced_path} matches golden modulo spec.obs ({tree},"
              f" {produced['points']} points)")
        return 0

    if produced_bytes == golden_bytes:
        tree = produced["sweep"][0]["spec"]["tree"] if produced["sweep"] else "?"
        print(f"OK: {produced_path} is byte-identical to golden ({tree},"
              f" {produced['points']} points, {len(golden_bytes)} bytes)")
        return 0

    diff = first_diff(produced, golden)
    print(f"FAIL: {produced_path} differs from golden {golden_path}",
          file=sys.stderr)
    print(f"  first difference: {diff if diff else 'byte-level only (formatting)'}",
          file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
