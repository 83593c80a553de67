#!/usr/bin/env python3
"""Fail when a member of the library archive is dead weight in the CLI.

Usage: check_linked_objects.py [ARCHIVE] [BINARY]
       (defaults: build/libethsm.a build/ethsm)

Every object in libethsm.a should contribute code to the `ethsm` binary: an
object none of whose global text (`T`) symbols survives into the binary is
reached only by tests, benchmarks or examples, and belongs with them. The
check compares `nm` symbol tables: for each archive member it collects the
member's defined global `T` symbols and counts how many the binary defines
as `T`. Members with a count of zero are listed, and the exit status is 1.
Needs GNU nm and an unstripped binary (a Release build is fine).
"""

import subprocess
import sys
from collections import defaultdict


def nm_lines(path):
    out = subprocess.run(
        ["nm", "-A", "-P", "--defined-only", "-g", path],
        check=True, capture_output=True, text=True).stdout
    return out.splitlines()


def archive_text_symbols(archive):
    """member name -> set of global T symbols it defines."""
    members = defaultdict(set)
    for line in nm_lines(archive):
        # "libethsm.a[member.cpp.o]: symbol T value size"
        where, _, rest = line.partition("]: ")
        fields = rest.split()
        if len(fields) >= 2 and fields[1] == "T":
            members[where.partition("[")[2]].add(fields[0])
    return members


def binary_text_symbols(binary):
    symbols = set()
    for line in nm_lines(binary):
        # "binary: symbol T value size"
        fields = line.partition(": ")[2].split()
        if len(fields) >= 2 and fields[1] == "T":
            symbols.add(fields[0])
    return symbols


def main(argv):
    archive = argv[1] if len(argv) > 1 else "build/libethsm.a"
    binary = argv[2] if len(argv) > 2 else "build/ethsm"
    members = archive_text_symbols(archive)
    linked = binary_text_symbols(binary)
    unused = []
    for member in sorted(members):
        used = len(members[member] & linked)
        if used == 0:
            unused.append(f"{member} (0 of {len(members[member])})")
    if unused:
        print(f"{archive} members that contribute no T symbol to {binary}:")
        for line in unused:
            print(f"  {line}")
        return 1
    print(f"every one of {len(members)} {archive} members with text symbols "
          f"contributes code to {binary}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
