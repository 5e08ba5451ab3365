#!/usr/bin/env python3
"""Docs lint: the user-facing surface must be documented, and only it.

Forward checks, both extracted from the code (never from a hand-kept
list, so the lint cannot go stale):

  1. every finesse_cli subcommand in src/core/cliusage.h
     (the table --help renders and test_cli_help audits), and
  2. every FINESSE_* environment variable that appears as a string
     literal anywhere in src/, tools/, bench/ or tests/

must be mentioned in README.md or docs/operations.md. A name missing
from both fails the build -- adding a subcommand or env knob without
documenting it is a CI failure, not doc drift.

Reverse check: every FINESSE_* name README.md or docs/operations.md
mentions must still appear somewhere in src/, tools/, bench/, tests/
or a CMakeLists.txt (FINESSE_SANITIZE is a CMake cache variable, not
a string literal). Deleting a knob from the code without deleting its
documentation fails the build too.

Usage: python3 tools/docs_check.py [--repo-root DIR]
"""

import argparse
import pathlib
import re
import sys

CODE_DIRS = ["src", "tools", "bench", "tests"]
DOC_FILES = ["README.md", "docs/operations.md"]
CODE_SUFFIXES = {".h", ".cpp", ".py"}
NAME_RE = re.compile(r"FINESSE_[A-Z0-9_]+")


def code_files(root: pathlib.Path, cmake: bool):
    """Files under CODE_DIRS with a code suffix; with @p cmake, also
    every CMakeLists.txt there and at the repo root."""
    if cmake:
        yield root / "CMakeLists.txt"
    for d in CODE_DIRS:
        for path in (root / d).rglob("*"):
            if not path.is_file():
                continue
            if path.suffix in CODE_SUFFIXES or (
                    cmake and path.name == "CMakeLists.txt"):
                yield path


def cli_commands(root: pathlib.Path) -> set:
    """Subcommand names from the kCliCommands table in cliusage.h."""
    text = (root / "src/core/cliusage.h").read_text()
    m = re.search(r"kCliCommands\[\]\s*=\s*\{(.*?)\n\};", text, re.S)
    if not m:
        sys.exit("docs_check: kCliCommands table not found in cliusage.h")
    names = re.findall(r'\{"([a-z0-9-]+)"', m.group(1))
    if len(names) < 5:
        sys.exit(f"docs_check: suspiciously few commands parsed: {names}")
    return set(names)


def env_vars(root: pathlib.Path) -> set:
    """FINESSE_* env-var string literals anywhere in the code."""
    found = set()
    for path in code_files(root, cmake=False):
        found.update(
            re.findall(r'"(FINESSE_[A-Z0-9_]+)"', path.read_text()))
    if not found:
        sys.exit("docs_check: no FINESSE_* env vars found -- broken scan?")
    return found


def code_names(root: pathlib.Path) -> set:
    """Every FINESSE_* token in the code and CMake files."""
    found = set()
    for path in code_files(root, cmake=True):
        found.update(NAME_RE.findall(path.read_text()))
    return found


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--repo-root", default=".")
    args = ap.parse_args()
    root = pathlib.Path(args.repo_root)

    docs = ""
    for rel in DOC_FILES:
        path = root / rel
        if not path.is_file():
            print(f"docs_check: FAIL: required doc {rel} is missing")
            return 1
        docs += path.read_text()

    missing = []
    for name in sorted(cli_commands(root)):
        if name not in docs:
            missing.append(f"finesse_cli subcommand `{name}`")
    for name in sorted(env_vars(root)):
        if name not in docs:
            missing.append(f"environment variable {name}")

    stale = sorted(set(NAME_RE.findall(docs)) - code_names(root))

    if missing:
        print("docs_check: FAIL: undocumented surface (add to README.md "
              "or docs/operations.md):")
        for item in missing:
            print(f"  - {item}")
    if stale:
        print("docs_check: FAIL: documented names no code or CMake file "
              "mentions (remove from README.md / docs/operations.md):")
        for name in stale:
            print(f"  - {name}")
    if missing or stale:
        return 1

    print(f"docs_check: OK: {len(cli_commands(root))} subcommands and "
          f"{len(env_vars(root))} env vars all documented")
    return 0


if __name__ == "__main__":
    sys.exit(main())
