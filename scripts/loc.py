#!/usr/bin/env python3
"""The size counts simplification PRs quote, computed one way.

Per file of crates/runtime/src: the non-test lines (everything up to and
including the first `#[cfg(test)]` at column 0, the whole file if it has
none; an indented one marks a test-only item, not the test module) and the
occurrences of `unsafe` (whole file); the sums over two groups of files;
then the field count of each options struct.

    python3 scripts/loc.py                 the working tree
    python3 scripts/loc.py --diff <ref>    the working tree against <ref>

A report, never a gate. Run from the repository root.
"""
import os
import re
import subprocess
import sys

SRC = "crates/runtime/src"
OPTIONS = ["RuntimeOptions", "EntryOptions", "RingOptions", "XSegOptions"]
GROUPS = {
    "ring + xproc": "ring xproc",
    "obs planes": "span export obs telemetry flight stats profile blackbox http",
}


def tree_files():
    return {f: open(os.path.join(SRC, f)).read() for f in sorted(os.listdir(SRC)) if f.endswith(".rs")}


def ref_files(ref):
    git = lambda *a: subprocess.run(["git", *a], capture_output=True, text=True, check=True).stdout
    names = git("ls-tree", "--name-only", f"{ref}:{SRC}").split()
    return {f: git("show", f"{ref}:{SRC}/{f}") for f in sorted(names) if f.endswith(".rs")}


def counts(files):
    """{file: (non_test_lines, unsafe)}, {options struct: fields}."""
    per_file, fields = {}, {}
    for name, text in files.items():
        lines = text.splitlines()
        cut = next((i + 1 for i, l in enumerate(lines) if l.rstrip() == "#[cfg(test)]"), len(lines))
        per_file[name] = (cut, len(re.findall(r"\bunsafe\b", text)))
        for s in OPTIONS:
            m = re.search(r"pub struct %s \{(.*?)\n\}" % s, text, re.S)
            if m:
                fields[s] = len(re.findall(r"^\s*pub \w+:", m.group(1), re.M))
    return per_file, fields


def main():
    new_files, new_fields = counts(tree_files())
    old_files, old_fields = new_files, new_fields
    diff = len(sys.argv) == 3 and sys.argv[1] == "--diff"
    if diff:
        old_files, old_fields = counts(ref_files(sys.argv[2]))
    elif len(sys.argv) != 1:
        sys.exit(__doc__)

    def row(name, old, new):
        cells = [f"{o} -> {n}" if diff and o != n else str(n) for o, n in zip(old, new)]
        print(f"{name:<16}{cells[0]:>16}{cells[1]:>12}")

    print(f"{'file':<16}{'non-test lines':>16}{'unsafe':>12}")
    for name in sorted(set(old_files) | set(new_files)):
        row(name, old_files.get(name, (0, 0)), new_files.get(name, (0, 0)))
    total = lambda files: tuple(sum(v[i] for v in files.values()) for i in (0, 1))
    row("total", total(old_files), total(new_files))
    for name, members in GROUPS.items():
        names = [f + ".rs" for f in members.split()]
        group = lambda files: tuple(sum(files.get(f, (0, 0))[i] for f in names) for i in (0, 1))
        row(name, group(old_files), group(new_files))
    print()
    for s in OPTIONS:
        old, new = old_fields.get(s, 0), new_fields.get(s, 0)
        print(f"{s:<16}{f'{old} -> {new}' if diff and old != new else new:>16} fields")


if __name__ == "__main__":
    main()
