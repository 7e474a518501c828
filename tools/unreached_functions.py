#!/usr/bin/env python3
"""List library functions that no shipped binary reaches.

Builds every shipped binary (ipfs_sim, the examples, perf_suite and the
perfbench harness) at -O0 with one section per function, linked with
--gc-sections, so a binary keeps exactly the functions it can call.  A
strong (`T`) function of libipfs_core.a that none of them keeps is
reached only by tests.  Each such function must be named, with a reason,
on the allowlist; everything else is code to delete.

Allowlist: one demangled name per line, then ` # ` and why it stays (the
test assertion or the ROADMAP item that keeps it).  Lines starting with
`#` are comments.

Usage:
  unreached_functions.py [--allowlist FILE]
      configure and build build-reach/, then compare
  unreached_functions.py --compare ARCHIVE.nm BINARY.nm... [--allowlist FILE]
      compare `nm -C` listings already taken

Exit 1 when an unreached function is missing from the allowlist, or an
allowlist entry is reached or no longer in the archive; 2 on bad usage.
"""

import argparse
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / "build-reach"
FLAGS = [
    "-DCMAKE_BUILD_TYPE=None",
    "-DCMAKE_CXX_FLAGS=-O0 -DNDEBUG -ffunction-sections -fdata-sections",
    "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections",
]
NM_LINE = re.compile(r"^(?:[0-9a-fA-F]+)?\s+([A-Za-z])\s+(.+)$")


def defined(listing, kinds):
    """Names of the symbols of the given nm kinds in an `nm -C` listing."""
    names = set()
    for line in listing.splitlines():
        match = NM_LINE.match(line)
        if match and match.group(1) in kinds:
            names.add(match.group(2))
    return names


def read_allowlist(path):
    """{name: reason} of the allowlist; exits 2 on an entry with no reason."""
    entries = {}
    for number, line in enumerate(path.read_text().splitlines(), 1):
        if not line.strip() or line.startswith("#"):
            continue
        name, sep, reason = line.partition(" # ")
        if not sep or not reason.strip():
            sys.exit(f"{path}:{number}: entry needs ' # <reason>'")
        entries[name.strip()] = reason.strip()
    return entries


def compare(archive_listing, binary_listings, allowlist):
    """Print the verdict and return the exit code."""
    functions = defined(archive_listing, "T")
    kept = set().union(*(defined(listing, "TtWw") for listing in binary_listings))
    unreached = functions - kept
    unlisted = sorted(unreached - allowlist.keys())
    stale = sorted(allowlist.keys() - unreached)
    for name in unlisted:
        print(f"unreached: {name} (reached by no shipped binary and not "
              "allowlisted: delete it, or give it a caller)")
    for name in stale:
        why = "reached" if name in functions else "not in the archive"
        print(f"stale allowlist entry: {name} ({why}: remove the line)")
    print(f"unreached_functions: {len(functions)} functions, "
          f"{len(unreached)} unreached, {len(allowlist)} allowlisted, "
          f"{len(unlisted)} unlisted, {len(stale)} stale")
    return 1 if unlisted or stale else 0


JOBS = f"-j{os.cpu_count() or 1}"


def run(command):
    subprocess.run(command, check=True, stdout=subprocess.DEVNULL)


def nm(path):
    return subprocess.run(["nm", "-C", "--defined-only", str(path)], check=True,
                          capture_output=True, text=True).stdout


def build():
    """(archive listing, binary listings) of a fresh reachability build."""
    core, bench = BUILD / "core", BUILD / "perfbench"
    run(["cmake", "-S", str(ROOT), "-B", str(core), "-DIPFS_BUILD_TESTS=OFF",
         *FLAGS])
    run(["cmake", "--build", str(core), JOBS])
    run(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(bench), *FLAGS])
    run(["cmake", "--build", str(bench), "--target", "perfbench_harness", JOBS])
    binaries = [core / "tools" / "ipfs_sim", bench / "perfbench_harness"]
    binaries += sorted(p for d in ("examples", "bench") for p in (core / d).iterdir()
                       if p.is_file() and p.stat().st_mode & 0o111)
    print("binaries: " + " ".join(p.name for p in binaries))
    return nm(core / "libipfs_core.a"), [nm(path) for path in binaries]


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        usage="%(prog)s [--compare ARCHIVE.nm BINARY.nm...] [--allowlist FILE]")
    parser.add_argument("--compare", nargs="+", type=Path, metavar="NM")
    parser.add_argument("--allowlist", type=Path,
                        default=ROOT / "tools" / "unreached_allowlist.txt")
    args = parser.parse_args()
    if args.compare is not None and len(args.compare) < 2:
        parser.error("--compare needs the archive listing and at least one binary's")
    allowlist = read_allowlist(args.allowlist)
    if args.compare:
        archive, *binaries = (path.read_text() for path in args.compare)
    else:
        archive, binaries = build()
    return compare(archive, binaries, allowlist)


if __name__ == "__main__":
    sys.exit(main())
