#!/usr/bin/env python3
"""Fail if any test binary of the workspace registers a test name twice.

A test registered twice runs twice, concurrently, with the same inputs; two
copies that share an on-disk resource then race each other. The harness
does not complain about duplicates, so this script does:

    python3 scripts/check_unique_tests.py [extra cargo args, e.g. --release]

It builds every test target (`cargo test --workspace --no-run`), asks each
resulting binary for its test list (`--list --format terse`) and exits 1,
naming the binary and the repeated names, if any list holds a name twice.
"""

import collections
import json
import subprocess
import sys


def test_binaries(cargo_args):
    """Paths of the test executables `cargo test --no-run` builds."""
    out = subprocess.run(
        ["cargo", "test", "--workspace", "--no-run", "--message-format=json", *cargo_args],
        check=True,
        stdout=subprocess.PIPE,
        text=True,
    ).stdout
    binaries = []
    for line in out.splitlines():
        try:
            msg = json.loads(line)
        except json.JSONDecodeError:
            continue
        if msg.get("reason") != "compiler-artifact" or not msg.get("profile", {}).get("test"):
            continue
        # A proc-macro crate's test binary needs the toolchain's dynamic
        # libraries, which only `cargo test` puts on the loader path.
        if msg.get("executable") and "proc-macro" not in msg["target"]["kind"]:
            binaries.append(msg["executable"])
    return binaries


def duplicate_names(binary):
    """Test names `binary` lists more than once."""
    out = subprocess.run(
        [binary, "--list", "--format", "terse"],
        check=True,
        stdout=subprocess.PIPE,
        text=True,
    ).stdout
    names = [line.rsplit(": ", 1)[0] for line in out.splitlines() if line.endswith(": test")]
    return sorted(name for name, k in collections.Counter(names).items() if k > 1)


def main():
    binaries = test_binaries(sys.argv[1:])
    if not binaries:
        print("no test binaries found", file=sys.stderr)
        return 1
    failed = False
    for binary in binaries:
        dups = duplicate_names(binary)
        if dups:
            failed = True
            print(f"{binary}: registered more than once: {', '.join(dups)}", file=sys.stderr)
    if failed:
        return 1
    print(f"test names unique in all {len(binaries)} test binaries")
    return 0


if __name__ == "__main__":
    sys.exit(main())
