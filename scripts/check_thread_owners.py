#!/usr/bin/env python3
"""Fails when code under src/ starts threads outside the two thread owners,
or sizes anything from the hardware outside the engine constructor.

Usage: scripts/check_thread_owners.py [repo_root]

The owners (docs/concurrency.md#threads) are the engine's WorkerPool
(src/common/worker_pool.*) and ServingEngine's workers (src/serve/serving.*).
Anywhere else, std::thread objects, std::jthread, std::async and
pthread_create are errors; std::thread::id, std::thread::hardware_concurrency
and std::this_thread are not thread starts. hardware_concurrency may appear
only in src/engine/engine.cc, where exec_threads <= 0 sizes the pool.
Comments and string literals are ignored.
"""
import os
import re
import sys

THREAD_OWNERS = ("src/common/worker_pool.", "src/serve/serving.")
HARDWARE_OWNER = "src/engine/engine.cc"

THREAD_START_RE = re.compile(
    r"\bstd::thread\b(?!::)|\bstd::jthread\b|\bstd::async\b|\bpthread_create\b")
HARDWARE_RE = re.compile(r"\bhardware_concurrency\b")
# Comments and string/char literals, blanked before matching.
NOISE_RE = re.compile(
    r'//[^\n]*|/\*.*?\*/|"(?:\\.|[^"\\\n])*"|\'(?:\\.|[^\'\\\n])*\'',
    re.DOTALL)


def strip_noise(text):
    # Keep newlines so reported line numbers stay right.
    return NOISE_RE.sub(lambda m: re.sub(r"[^\n]", " ", m.group(0)), text)


def source_files(root):
    src = os.path.join(root, "src")
    for dirpath, _, names in os.walk(src):
        for name in sorted(names):
            if name.endswith((".h", ".cc", ".cpp", ".hpp")):
                yield os.path.join(dirpath, name)


def main():
    root = os.path.abspath(sys.argv[1] if len(sys.argv) > 1 else ".")
    errors = []
    for path in source_files(root):
        rel = os.path.relpath(path, root).replace(os.sep, "/")
        with open(path, encoding="utf-8") as f:
            code = strip_noise(f.read())
        for lineno, line in enumerate(code.splitlines(), 1):
            if not rel.startswith(THREAD_OWNERS):
                for m in THREAD_START_RE.finditer(line):
                    errors.append(f"{rel}:{lineno}: {m.group(0)} outside the "
                                  "thread owners")
            if rel != HARDWARE_OWNER and HARDWARE_RE.search(line):
                errors.append(f"{rel}:{lineno}: hardware_concurrency outside "
                              f"{HARDWARE_OWNER}")
    for e in errors:
        print(e)
    if errors:
        print(f"{len(errors)} thread-ownership violation(s); see "
              "docs/concurrency.md#threads")
        return 1
    print("thread owners ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
