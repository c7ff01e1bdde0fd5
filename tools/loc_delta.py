#!/usr/bin/env python3
"""Code lines before, after and the delta per top-level directory.

    tools/loc_delta.py <base> [<head>] [-- <path>...]

Compares two git refs; without <head> the working tree (tracked files plus
untracked files git does not ignore) is the "after" side. With paths, only
files under them are counted and each file gets its own row.

A code line is a line that is neither blank nor comment-only: lines whose
first non-blank characters are `//` in C and C++ sources, or `#` in shell,
Python, YAML and CMake files, are comments. Other files (docs, goldens,
data) are not code and are not counted. This is a report, not a gate.
"""

import os
import subprocess
import sys

CPP_SUFFIXES = (".cc", ".cpp", ".cxx", ".c", ".h", ".hpp", ".hh", ".inc")
HASH_SUFFIXES = (".py", ".sh", ".yml", ".yaml", ".cmake")


def comment_marker(path):
    """The comment-only line prefix for `path`, or None when not code."""
    name = os.path.basename(path)
    if name.endswith(CPP_SUFFIXES):
        return "//"
    if name.endswith(HASH_SUFFIXES) or name == "CMakeLists.txt":
        return "#"
    return None


def count_code_lines(text, marker):
    count = 0
    for line in text.splitlines():
        stripped = line.strip()
        if stripped and not stripped.startswith(marker):
            count += 1
    return count


def git(*args):
    return subprocess.run(("git",) + args, check=True,
                          capture_output=True).stdout


def files_at(ref):
    """{path: text} for every code file at `ref` (None = working tree)."""
    if ref is None:
        names = git("ls-files", "-z", "--cached", "--others",
                    "--exclude-standard").decode().split("\0")
    else:
        names = git("ls-tree", "-r", "-z", "--name-only",
                    ref).decode().split("\0")
    out = {}
    for name in names:
        if not name or comment_marker(name) is None:
            continue
        if ref is None:
            if not os.path.isfile(name):
                continue  # deleted in the working tree, not yet staged
            with open(name, "rb") as f:
                data = f.read()
        else:
            data = git("show", f"{ref}:{name}")
        out[name] = data.decode("utf-8", errors="replace")
    return out


def tally(files, paths):
    rows = {}
    for name, text in files.items():
        if paths:
            if not any(name == p or name.startswith(p.rstrip("/") + "/")
                       for p in paths):
                continue
            row = name
        else:
            row = name.split("/", 1)[0] if "/" in name else "."
        rows[row] = rows.get(row, 0) + count_code_lines(
            text, comment_marker(name))
    return rows


def main(argv):
    paths = []
    if "--" in argv:
        split = argv.index("--")
        argv, paths = argv[:split], argv[split + 1:]
    if len(argv) not in (1, 2) or argv[0].startswith("-"):
        sys.stderr.write(__doc__)
        return 2
    base = argv[0]
    head = argv[1] if len(argv) == 2 else None
    before = tally(files_at(base), paths)
    after = tally(files_at(head), paths)
    head_name = head if head is not None else "worktree"
    width = max([len("total")] + [len(r) for r in set(before) | set(after)])
    print(f"{'':{width}}  {base:>10}  {head_name:>10}  {'delta':>7}")
    for row in sorted(set(before) | set(after)):
        b, a = before.get(row, 0), after.get(row, 0)
        print(f"{row:{width}}  {b:>10}  {a:>10}  {a - b:>+7}")
    b, a = sum(before.values()), sum(after.values())
    print(f"{'total':{width}}  {b:>10}  {a:>10}  {a - b:>+7}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
