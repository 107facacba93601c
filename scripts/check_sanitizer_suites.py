#!/usr/bin/env python3
"""Fails when an entry of the CI's SANITIZER_SUITES list names no test suite.

Usage: scripts/check_sanitizer_suites.py [repo_root]

The TSan and ASan/UBSan jobs run `ctest -R "$SANITIZER_SUITES"`, a
|-separated regex over ctest names. ctest matches nothing for an entry whose
suite is gone, without an error, so a stale entry would silently drop that
coverage. Every entry must name an existing tests/<entry>_test.cc.
"""
import os
import re
import sys

CI_FILE = ".github/workflows/ci.yml"
SUITES_RE = re.compile(r'^\s*SANITIZER_SUITES:\s*"([^"]*)"\s*$', re.MULTILINE)


def main():
    root = os.path.abspath(sys.argv[1] if len(sys.argv) > 1 else ".")
    with open(os.path.join(root, CI_FILE), encoding="utf-8") as f:
        m = SUITES_RE.search(f.read())
    if not m:
        print(f"{CI_FILE}: no SANITIZER_SUITES entry found")
        return 1
    entries = m.group(1).split("|")
    errors = []
    for entry in entries:
        test = os.path.join("tests", f"{entry}_test.cc")
        if not entry or not os.path.isfile(os.path.join(root, test)):
            errors.append(f"{CI_FILE}: SANITIZER_SUITES entry '{entry}' "
                          f"names no {test}")
    for e in errors:
        print(e)
    if errors:
        return 1
    print(f"sanitizer suites ok ({len(entries)} entries)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
