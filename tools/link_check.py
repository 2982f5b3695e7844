#!/usr/bin/env python3
r"""Report which of libmh's functions each kind of executable links.

Usage:

    python3 tools/link_check.py BUILD_DIR PERFBENCH_BUILD_DIR

BUILD_DIR is a build of every target, and PERFBENCH_BUILD_DIR a build of
perfbench's driver, both compiled with -O0 -ffunction-sections
-fdata-sections and linked with -Wl,--gc-sections, so an executable keeps
exactly the library functions it reaches:

    flags="-O0 -ffunction-sections -fdata-sections"
    cmake -S . -B build-lc -G Ninja -DCMAKE_BUILD_TYPE=Debug \
      "-DCMAKE_CXX_FLAGS=$flags" -DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections
    cmake -S perfbench -B build-pb -G Ninja -DCMAKE_BUILD_TYPE=Debug \
      "-DCMAKE_CXX_FLAGS=$flags" -DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections
    cmake --build build-lc -j && cmake --build build-pb -j --target perfbench

The functions counted are the strong text symbols in namespace mh of
BUILD_DIR/libmh.a, as `nm -C --defined-only` lists them: out-of-line
functions, not inline or template ones. A test is an executable named
test_*; every other executable (a bench, an example, the perfbench driver)
is a program. Prints the functions that only tests link, sorted, with their
count, and the functions that nothing links. Exits 1 when any function is
linked by nothing, 2 on a bad build directory.
"""

import os
import subprocess
import sys
from pathlib import Path


def fail(message):
    print(f"link_check: {message}", file=sys.stderr)
    sys.exit(2)


def text_symbols(path):
    """Demangled names of the strong text symbols in mh:: that `path` defines."""
    out = subprocess.run(["nm", "-C", "--defined-only", str(path)], check=True,
                         capture_output=True, text=True).stdout
    names = set()
    for line in out.splitlines():
        parts = line.split(" ", 2)
        if len(parts) == 3 and parts[1] == "T" and parts[2].startswith("mh::"):
            names.add(parts[2])
    return names


def executables(build_dir):
    """The ELF executables directly inside `build_dir`."""
    found = []
    for path in sorted(build_dir.iterdir()):
        if not path.is_file() or not os.access(path, os.X_OK):
            continue
        with open(path, "rb") as f:
            if f.read(4) == b"\x7fELF":
                found.append(path)
    return found


def main():
    if len(sys.argv) != 3:
        fail("usage: link_check.py BUILD_DIR PERFBENCH_BUILD_DIR")
    build_dir, pb_dir = Path(sys.argv[1]), Path(sys.argv[2])
    library = build_dir / "libmh.a"
    if not library.is_file():
        fail(f"{library} not found")
    driver = pb_dir / "perfbench"
    if not driver.is_file():
        fail(f"{driver} not found")

    functions = text_symbols(library)
    tests, programs = set(), set()
    n_tests = n_programs = 0
    for exe in executables(build_dir) + [driver]:
        linked = text_symbols(exe) & functions
        if exe.name.startswith("test_"):
            tests |= linked
            n_tests += 1
        else:
            programs |= linked
            n_programs += 1
    if n_tests == 0 or n_programs == 1:
        fail(f"{build_dir} holds {n_tests} tests and {n_programs - 1} benches or "
             "examples; build every target")

    test_only = sorted(tests - programs)
    dead = sorted(functions - tests - programs)
    print(f"libmh.a: {len(functions)} out-of-line functions; "
          f"{len(functions & programs)} linked by a program "
          f"({n_programs} programs), {len(test_only)} by tests only "
          f"({n_tests} tests), {len(dead)} by nothing")
    print(f"\nlinked by tests only ({len(test_only)}):")
    for name in test_only:
        print(f"  {name}")
    print(f"\nlinked by nothing ({len(dead)}):")
    for name in dead:
        print(f"  {name}")
    return 1 if dead else 0


if __name__ == "__main__":
    sys.exit(main())
