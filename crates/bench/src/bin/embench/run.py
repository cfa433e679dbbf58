"""Build and run embench with the workspace root's release profile.

    python3 crates/bench/src/bin/embench/run.py --workload <name> --seed <n> \
        --seconds <s> --trace <0|1> [--out <dir>]

embench is a package of its own, so Cargo would not apply the root
manifest's [profile.release] to it. This script reads that table and hands
each setting to `cargo run --release` as a `--config` override, then
replaces itself with Cargo, so a change to the root profile is measured
like any other change. All arguments go to embench unchanged.
"""

import json
import os
import sys
import tomllib
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[4]


def toml_key(part):
    bare = part.replace("-", "").replace("_", "").isalnum()
    return part if bare else json.dumps(part)


def toml_value(v):
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, float)):
        return repr(v)
    if isinstance(v, str):
        return json.dumps(v)
    if isinstance(v, list):
        return "[" + ", ".join(toml_value(x) for x in v) + "]"
    raise ValueError(f"unsupported profile value {v!r}")


def overrides(table, prefix):
    """Flatten a TOML table into `a.b.c=value` config strings."""
    for k, v in table.items():
        key = f"{prefix}.{toml_key(k)}"
        if isinstance(v, dict):
            yield from overrides(v, key)
        else:
            yield f"{key}={toml_value(v)}"


def main():
    manifest = ROOT / "Cargo.toml"
    if not manifest.is_file():
        sys.exit(f"run.py: no workspace manifest at {manifest}; run embench from a full checkout")
    with open(manifest, "rb") as f:
        profile = tomllib.load(f).get("profile", {}).get("release", {})
    argv = ["cargo", "run", "--release", "--offline", "--quiet"]
    for o in overrides(profile, "profile.release"):
        argv += ["--config", o]
    argv += ["--manifest-path", str(HERE / "Cargo.toml"), "--"] + sys.argv[1:]
    os.execvp(argv[0], argv)


if __name__ == "__main__":
    main()
