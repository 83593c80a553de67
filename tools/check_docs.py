#!/usr/bin/env python3
"""Docs-consistency gate.

Three checks, all run in CI (stdlib only, no pip):

1. The generated preset table in docs/CLI.md must match what the built
   binary actually registers (`ethsm list --format json`): names, kinds,
   descriptions, and both provenance fingerprints. Run with --fix to
   regenerate the block in place after adding or changing a preset.

2. Every relative markdown link in README.md and docs/*.md must point at a
   file that exists (http(s)/mailto links are skipped; #fragments are
   stripped before the existence check).

3. Every `*.md` path named in a comment of a source file under src/,
   tests/, examples/, bench/ or cli/ (C++ `//` and `/* */` comments, `#`
   comments in spec and study files) must name a file that exists, relative
   to the repository root or to the citing file's directory.

Exit code 0 when everything is consistent, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CLI_DOC = os.path.join(REPO_ROOT, "docs", "CLI.md")
BEGIN_MARK = "<!-- BEGIN GENERATED PRESETS (tools/check_docs.py --fix) -->"
END_MARK = "<!-- END GENERATED PRESETS -->"

LINK_DOCS = ["README.md", "docs/ARCHITECTURE.md", "docs/CLI.md",
             "docs/OPERATIONS.md", "docs/OBSERVABILITY.md"]
LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")

COMMENT_DIRS = ["src", "tests", "examples", "bench", "cli"]
CXX_EXTS = (".cpp", ".h")
CXX_COMMENT_RE = re.compile(r"//[^\n]*|/\*.*?\*/", re.S)
HASH_COMMENT_RE = re.compile(r"#[^\n]*")
MD_REF_RE = re.compile(r"[\w./-]*\w\.md\b")


def preset_table(binary: str) -> str:
    """Render the generated block's body from `ethsm list --format json`."""
    out = subprocess.run([binary, "list", "--format", "json"],
                         capture_output=True, text=True, check=True)
    presets = json.loads(out.stdout)["presets"]
    lines = [
        "| preset | kind | description | fingerprint | `--quick` fingerprint |",
        "|---|---|---|---|---|",
    ]
    for p in presets:
        lines.append(
            "| `{name}` | {kind} | {description} | `{fp}` | `{qfp}` |".format(
                name=p["name"], kind=p["kind"], description=p["description"],
                fp=p["spec_fingerprint"], qfp=p["quick_spec_fingerprint"]))
    return "\n".join(lines)


def split_generated_block(text: str) -> tuple[str, str, str]:
    """Split CLI.md into (before, block, after) around the markers."""
    begin = text.find(BEGIN_MARK)
    end = text.find(END_MARK)
    if begin < 0 or end < 0 or end < begin:
        raise SystemExit(
            f"docs/CLI.md: missing or misordered generated-block markers\n"
            f"  expected: {BEGIN_MARK}\n       then: {END_MARK}")
    head = text[: begin + len(BEGIN_MARK)]
    block = text[begin + len(BEGIN_MARK): end].strip("\n")
    tail = text[end:]
    return head, block, tail


def check_preset_table(binary: str, fix: bool) -> list[str]:
    with open(CLI_DOC, encoding="utf-8") as f:
        text = f.read()
    head, block, tail = split_generated_block(text)
    want = preset_table(binary)
    if block == want:
        return []
    if fix:
        with open(CLI_DOC, "w", encoding="utf-8") as f:
            f.write(head + "\n" + want + "\n" + tail)
        print("docs/CLI.md: regenerated preset table")
        return []
    return [
        "docs/CLI.md: generated preset table is stale "
        "(run `python3 tools/check_docs.py --fix` and commit the result)",
        "--- documented ---", block, "--- registered ---", want,
    ]


def check_links() -> list[str]:
    errors = []
    for doc in LINK_DOCS:
        path = os.path.join(REPO_ROOT, doc)
        if not os.path.exists(path):
            errors.append(f"{doc}: file missing")
            continue
        with open(path, encoding="utf-8") as f:
            text = f.read()
        base = os.path.dirname(path)
        for target in LINK_RE.findall(text):
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            bare = target.split("#", 1)[0]
            if not bare:  # pure in-page fragment
                continue
            if not os.path.exists(os.path.join(base, bare)):
                errors.append(f"{doc}: broken relative link -> {target}")
    return errors


def check_comment_refs() -> list[str]:
    errors = []
    for top in COMMENT_DIRS:
        for dirpath, _, files in os.walk(os.path.join(REPO_ROOT, top)):
            for name in sorted(files):
                path = os.path.join(dirpath, name)
                comment_re = (CXX_COMMENT_RE if name.endswith(CXX_EXTS)
                              else HASH_COMMENT_RE)
                with open(path, encoding="utf-8", errors="replace") as f:
                    text = f.read()
                rel = os.path.relpath(path, REPO_ROOT)
                for comment in comment_re.finditer(text):
                    line = text.count("\n", 0, comment.start()) + 1
                    for ref in MD_REF_RE.findall(comment.group()):
                        if not any(os.path.exists(os.path.join(base, ref))
                                   for base in (REPO_ROOT, dirpath)):
                            errors.append(
                                f"{rel}:{line}: comment cites missing {ref}")
    return errors


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--binary", default=os.path.join("build", "ethsm"),
                        help="ethsm binary to interrogate (default build/ethsm)")
    parser.add_argument("--fix", action="store_true",
                        help="rewrite the generated block instead of diffing")
    args = parser.parse_args()

    errors = check_preset_table(args.binary, args.fix)
    errors += check_links()
    errors += check_comment_refs()
    if errors:
        print("\n".join(errors), file=sys.stderr)
        return 1
    print("docs consistent: preset table matches the binary, all links and "
          "comment references resolve")
    return 0


if __name__ == "__main__":
    sys.exit(main())
