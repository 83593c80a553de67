#!/usr/bin/env python3
"""Fail when the library holds code that the `ethsm` binary never calls.

Usage: check_linked_objects.py LOG ARCHIVE
       check_linked_objects.py --self-test

LOG is the output of an unoptimised (-O0) link of `ethsm_cli` compiled with
`-ffunction-sections -fdata-sections` and linked by GNU ld with
`-Wl,--gc-sections,--print-gc-sections,-t,-t`; ARCHIVE is the libethsm.a
that link read. docs/ARCHITECTURE.md gives the commands. At -O0 nothing is
inlined, so a function whose section the linker discards has no caller
reachable from main(). (-fdata-sections matters too: without it a switch's
jump table lands in the shared .rodata, which keeps the function alive.)

The check fails on
  * an ARCHIVE member the link never loaded: nothing in it is needed;
  * a discarded out-of-line ethsm function, i.e. a `.text._ZN5ethsm...` or
    `.text._ZNK5ethsm...` section without a `[group]` suffix, that is not on
    ALLOWLIST. COMDAT sections (inline functions, templates) are skipped:
    every object emits its own copy and a discarded copy says nothing;
  * an ALLOWLIST entry the link did not discard: its function gained a
    caller or no longer exists, so the entry must go.
"""

import re
import subprocess
import sys

# Functions with no caller in `ethsm` that stay in the library, each with
# the caller outside it. Keep this list short: a test oracle belongs under
# tests/, and a function nothing calls is deleted.
ALLOWLIST = {
    # analysis::compute_revenue(pi, model, config): perfbench/layers.cpp
    # times the reward kernel on its own.
    "_ZN5ethsm8analysis15compute_revenueERKNS_6markov22StationaryDistribution"
    "ERKNS1_15TransitionModelERKNS_7rewards12RewardConfigE",
    # analysis::SolveMemo::clear(): tests reset the process-wide solve memo.
    "_ZN5ethsm8analysis9SolveMemo5clearEv",
    # analysis::SolveMemo::stats(): tests read the process-wide memo's counts.
    "_ZNK5ethsm8analysis9SolveMemo5statsEv",
    # support::ThreadPool::set_global_concurrency(unsigned): the thread-count
    # determinism tests run one workload at several pool sizes.
    "_ZN5ethsm7support10ThreadPool22set_global_concurrencyEj",
}

GC_LINE = re.compile(
    r"removing unused section '(?P<section>[^']*)' in file '(?P<file>[^']*)'")
ETHSM_TEXT = re.compile(r"\.text\.(?P<symbol>_ZNK?5ethsm[^\[]*)$")


def loaded_members(lines, archive_name):
    """Archive members the link loaded, from the `-t -t` trace lines
    `(path/libethsm.a)member.o`."""
    members = set()
    for line in lines:
        container, closed, member = line.strip().partition(")")
        if closed and container.startswith("(") and \
                container.endswith(archive_name):
            members.add(member)
    return members


def discarded_functions(lines):
    """symbol -> file for every discarded non-COMDAT ethsm text section."""
    dead = {}
    for line in lines:
        gc = GC_LINE.search(line)
        if gc is None:
            continue
        text = ETHSM_TEXT.match(gc["section"])
        if text is not None:
            dead[text["symbol"]] = gc["file"]
    return dead


def findings(lines, archive_name, members, allowlist):
    """(unloaded members, discarded functions off the list, stale entries)."""
    unloaded = sorted(set(members) - loaded_members(lines, archive_name))
    dead = discarded_functions(lines)
    unlisted = sorted((sym, f) for sym, f in dead.items() if sym not in allowlist)
    stale = sorted(set(allowlist) - set(dead))
    return unloaded, unlisted, stale


def demangle(symbols):
    try:
        out = subprocess.run(["c++filt"], input="\n".join(symbols),
                             check=True, capture_output=True, text=True).stdout
    except (OSError, subprocess.CalledProcessError):
        return list(symbols)
    return out.splitlines()


def check(log_path, archive):
    with open(log_path, encoding="utf-8", errors="replace") as f:
        lines = f.read().splitlines()
    if not any(GC_LINE.search(line) for line in lines):
        print(f"{log_path} holds no --print-gc-sections output: relink "
              "ethsm_cli with the flags in this script's docstring")
        return 1
    members = subprocess.run(["ar", "t", archive], check=True,
                             capture_output=True, text=True).stdout.split()
    name = archive.rsplit("/", 1)[-1]
    unloaded, unlisted, stale = findings(lines, name, members, ALLOWLIST)
    if unloaded:
        print(f"{archive} members the ethsm link never loads:")
        for member in unloaded:
            print(f"  {member}")
    if unlisted:
        print("library functions with no caller in ethsm (delete them, or "
              "move test oracles under tests/):")
        names = demangle([sym for sym, _ in unlisted])
        for (_, where), pretty in zip(unlisted, names):
            print(f"  {pretty}  [{where}]")
    if stale:
        print("allowlist entries the link kept or does not have (remove "
              "them from ALLOWLIST):")
        for pretty in demangle(stale):
            print(f"  {pretty}")
    if unloaded or unlisted or stale:
        return 1
    print(f"every one of {len(members)} {name} members is loaded, and every "
          f"discarded ethsm function is one of the {len(ALLOWLIST)} "
          "allowlisted")
    return 0


SELF_TEST_LOG = """\
libethsm.a
(libethsm.a)live.cpp.o
/usr/bin/ld: removing unused section '.text._ZN5ethsm4demo4deadEv' in file 'libethsm.a(live.cpp.o)'
/usr/bin/ld: removing unused section '.text._ZNK5ethsm4demo6Holder3getEv[_ZNK5ethsm4demo6Holder3getEv]' in file 'libethsm.a(live.cpp.o)'
/usr/bin/ld: removing unused section '.text._ZN5ethsm4demo6hookedEv' in file 'libethsm.a(live.cpp.o)'
/usr/bin/ld: removing unused section '.text._ZNKSt6vectorIiSaIiEE4sizeEv' in file 'libethsm.a(live.cpp.o)'
"""


def self_test():
    """The check's cases on a canned log; returns the number that failed."""
    unloaded, unlisted, stale = findings(
        SELF_TEST_LOG.splitlines(), "libethsm.a",
        ["live.cpp.o", "unused.cpp.o"],
        {"_ZN5ethsm4demo6hookedEv", "_ZN5ethsm4demo5staleEv"})
    flagged = [sym for sym, _ in unlisted]
    cases = [
        ("a plain dead function is flagged",
         "_ZN5ethsm4demo4deadEv" in flagged),
        ("a COMDAT section is ignored",
         not any("Holder" in sym for sym in flagged)),
        ("an allowlisted function is ignored",
         "_ZN5ethsm4demo6hookedEv" not in flagged),
        ("a stale allowlist entry is flagged",
         stale == ["_ZN5ethsm4demo5staleEv"]),
        ("a function outside namespace ethsm is ignored",
         flagged == ["_ZN5ethsm4demo4deadEv"]),
        ("an archive member the link never loads is flagged",
         unloaded == ["unused.cpp.o"]),
    ]
    failed = 0
    for name, ok in cases:
        print(f"{'ok  ' if ok else 'FAIL'} {name}")
        failed += not ok
    return failed


def main(argv):
    if argv[1:] == ["--self-test"]:
        return 1 if self_test() else 0
    if len(argv) != 3:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    return check(argv[1], argv[2])


if __name__ == "__main__":
    sys.exit(main(sys.argv))
