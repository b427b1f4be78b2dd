#!/usr/bin/env python3
"""Fail when a src/ function is linked by no product binary.

Usage:
    check_reachability.py <build-dir> <ddosbench-build-dir> <allowlist>

Both build directories must be configured with

    -DCMAKE_BUILD_TYPE=None
    -DCMAKE_CXX_FLAGS="-O0 -ffunction-sections -fdata-sections"
    -DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections

so that nothing is inlined away and the linker drops every function that
no root reaches. The roots are the product binaries: tools/ddosrepro,
every bench/bench_* and examples/* executable of <build-dir>, and
<ddosbench-build-dir>/ddosbench (bench/e2e). Tests are not roots.

Every externally visible function (nm type T) defined in a src/ library
archive must appear in at least one root, or be listed in <allowlist>
as "<demangled signature>  # <reason>". An allowlist entry that is
linked after all, or that no longer exists, is stale and also fails.
Header-only code is invisible to this check.

Prints the src/ line count (the same figure as
`cat src/**/*.{h,cpp} | wc -l`). Exit 0 when clean, 1 otherwise.
Standard library plus binutils' nm and c++filt.
"""

import glob
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def nm_symbols(path, types):
    """Mangled names of the defined symbols of `path` whose nm type is in
    `types` (None: every type)."""
    out = subprocess.run(["nm", "-P", "--defined-only", path],
                         check=True, capture_output=True, text=True).stdout
    names = set()
    for line in out.splitlines():
        fields = line.split()
        # Archive member headers ("lib.a[x.o]:") have no type field.
        if len(fields) >= 2 and (types is None or fields[1] in types):
            names.add(fields[0])
    return names


def demangle(names):
    names = sorted(names)
    out = subprocess.run(["c++filt"], input="\n".join(names), check=True,
                         capture_output=True, text=True).stdout
    return dict(zip(names, out.splitlines()))


def is_executable(path):
    return os.path.isfile(path) and os.access(path, os.X_OK)


def roots(build, bench_build):
    found = [os.path.join(build, "tools", "ddosrepro")]
    found += sorted(p for p in glob.glob(os.path.join(build, "bench", "bench_*"))
                    if is_executable(p))
    found += sorted(p for p in glob.glob(os.path.join(build, "examples", "*"))
                    if is_executable(p))
    found.append(os.path.join(bench_build, "ddosbench"))
    for path in found:
        if not is_executable(path):
            sys.exit(f"check_reachability: missing root binary {path}")
    return found


def read_allowlist(path):
    entries = {}
    with open(path) as f:
        for number, line in enumerate(f, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            symbol, sep, reason = line.partition(" # ")
            if not sep or not reason.strip():
                sys.exit(f"{path}:{number}: expected '<symbol>  # <reason>'")
            entries[symbol.strip()] = reason.strip()
    return entries


def src_line_count():
    files = [p for ext in ("h", "cpp")
             for p in glob.glob(os.path.join(ROOT, "src", "**", "*." + ext),
                                recursive=True)]
    lines = 0
    for path in files:
        with open(path, "rb") as f:
            lines += f.read().count(b"\n")
    return lines, len(files)


def main():
    if len(sys.argv) != 4:
        sys.exit(__doc__)
    build, bench_build, allowlist_path = sys.argv[1:]

    archives = sorted(glob.glob(os.path.join(build, "src", "*", "librepro_*.a")))
    if not archives:
        sys.exit(f"check_reachability: no src/ libraries under {build}/src")
    defined = set()
    for archive in archives:
        defined |= nm_symbols(archive, {"T"})

    binaries = roots(build, bench_build)
    linked = set()
    for binary in binaries:
        linked |= nm_symbols(binary, None)

    # Constructor and destructor variants (C1/C2, D0/D1/D2) demangle to one
    # name; a name is reached when any of its variants is.
    names = demangle(defined)
    reached = {names[m] for m in defined if m in linked}
    unreached = sorted({names[m] for m in defined} - reached)
    allow = read_allowlist(allowlist_path)

    missing = [s for s in unreached if s not in allow]
    stale = sorted(s for s in allow if s not in unreached)

    lines, files = src_line_count()
    print(f"roots: {len(binaries)} binaries; src/ functions: "
          f"{len(set(names.values()))} defined, {len(unreached)} unreached "
          f"({len(allow)} allowlisted)")
    print(f"src/ lines (wc -l over {files} .h/.cpp files): {lines}")
    for s in missing:
        print(f"UNREACHED (no product binary links it): {s}")
    for s in stale:
        print(f"STALE allowlist entry (linked or gone): {s}")
    return 1 if missing or stale else 0


if __name__ == "__main__":
    sys.exit(main())
