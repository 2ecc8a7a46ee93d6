#!/usr/bin/env python3
"""Fails when a library crate grows a `pub` item that no other crate names.

    pub_surface.py

Lists every named `pub` item (`fn`, `struct`, `enum`, `trait`, `type`,
`const`, `static`, `mod`, `union`) declared under `crates/*/src` outside
the items a top-level `#[cfg(test)]` annotates, and searches every `.rs` file
of every *other* crate for its name as a whole word, comments stripped.
An item that no other crate names should be `pub(crate)` or private, so
that rustc's `dead_code` lint sees it. The script fails on any such item
missing from the committed allow-list (`pub_surface.allow`, next to this
script), and on any allow-list entry that no longer matches one, so the
list only shrinks.

Crate boundaries: each `crates/<name>/src` is one library crate, but
every `crates/bench/src/bin/*` and `crates/bench/benches/*.rs` target is
a crate of its own; so are the root facade `src/`, `tests/`, `examples/`
and the frozen `benchmark/` package.

An item another crate never names may still be reached through a
signature: a type is *reached* when it appears in the signature of a
`pub fn`, the type of a `pub` field, a variant of a `pub enum` or a
`pub type` whose own name another crate names (or which is itself
reached). rustc's `private_interfaces` lint forbids narrowing such a
type while its user stays `pub`, so it is not reported.

Allow-list lines read `<crate>/<file>:<name>  <reason>`, with a path
relative to the crate's `src/`; `#` starts a comment. An entry is an
item another crate reaches without naming it in a way the signature
rule above does not see (through a trait impl, a `pub use` path or a
private field's accessor).

The search is by name, not by resolution, so it misses in one
direction: an item whose name is common (`new`, `len`, `run`, `Iter`) is
"named" by any other crate that uses the same word, whoever declared it.
Such an item is never reported, even when nothing outside its crate
reaches it.
"""
import os
import re
import sys

ROOT = os.path.normpath(os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", ".."))
ALLOW = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pub_surface.allow")
ITEM = re.compile(
    r"^\s*pub\s+(?:(?:async|unsafe|const|extern\s+\"C\")\s+)*"
    r"(fn|struct|enum|trait|type|const|static|mod|union)\s+([A-Za-z_][A-Za-z0-9_]*)"
)
TEST_CFG = re.compile(r"^#\[cfg\(test\)\]")
COMMENT = re.compile(r"//.*$")
LITERAL = re.compile(r'"(?:\\.|[^"\\])*"|\'(?:\\.|[^\'\\])\'')
WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
PUB_FN = re.compile(r"^\s*pub\s+(?:(?:async|unsafe|const|extern\s+\"C\")\s+)*fn\s+(\w+)")
PUB_BLOCK = re.compile(r"^(\s*)pub\s+(struct|enum)\s+(\w+)")
PUB_FIELD = re.compile(r"^\s*pub\s+(\w+)\s*:(.*)$")
PUB_TYPE = re.compile(r"^\s*pub\s+type\s+(\w+)(.*)$")
SKIP_DIRS = {"target", ".git", ".bench_build", "out", "golden"}


def rust_files(top):
    for base, dirs, files in os.walk(top):
        dirs[:] = sorted(d for d in dirs if d not in SKIP_DIRS)
        for f in sorted(files):
            if f.endswith(".rs"):
                yield os.path.join(base, f)


def crate_of(path):
    """The crate a repository-relative `.rs` path belongs to."""
    parts = path.split(os.sep)
    if parts[0] == "crates":
        if parts[2] == "src" and parts[3] == "bin":
            return "bin:" + parts[4].removesuffix(".rs")
        if parts[2] == "benches":
            return "bench:" + parts[3].removesuffix(".rs")
        return parts[1]
    if parts[0] in ("tests", "examples"):
        return parts[0] + ":" + parts[1].removesuffix(".rs")
    return parts[0]


def non_test_lines(text):
    """`text`'s lines without the items a top-level `#[cfg(test)]`
    annotates: each skipped item runs to its matching closing brace, or
    to its `;` when no brace opens first."""
    lines = text.splitlines()
    out = []
    i = 0
    while i < len(lines):
        if not TEST_CFG.match(lines[i]):
            out.append(lines[i])
            i += 1
            continue
        i += 1
        while i < len(lines) and lines[i].lstrip().startswith("#["):
            i += 1
        depth = 0
        while i < len(lines):
            line = LITERAL.sub('""', lines[i])
            i += 1
            depth += line.count("{") - line.count("}")
            if depth == 0 and ("}" in line or ";" in line):
                break
    return out


def signatures(lines):
    """(owners, words) for every public signature in `lines`: naming any
    owner from another crate reaches every word of the signature."""
    out = []
    i = 0
    while i < len(lines):
        line = lines[i]
        fn, block, alias = PUB_FN.match(line), PUB_BLOCK.match(line), PUB_TYPE.match(line)
        if fn:
            text = line[fn.end():]
            while "{" not in text and ";" not in text and i + 1 < len(lines):
                i += 1
                text += " " + lines[i]
            out.append(({fn.group(1)}, set(WORD.findall(re.split(r"[{;]", text)[0]))))
        elif alias:
            out.append(({alias.group(1)}, set(WORD.findall(alias.group(2)))))
        elif block and not line.rstrip().endswith("{"):
            out.append(({block.group(3)}, set(WORD.findall(line[block.end():]))))
        elif block:
            indent, kind, name = block.groups()
            while i + 1 < len(lines) and lines[i + 1].rstrip() != indent + "}":
                i += 1
                inner = lines[i]
                if kind == "enum":
                    variant = WORD.match(inner.strip())
                    owners = {name} | ({variant.group(0)} if variant else set())
                    out.append((owners, set(WORD.findall(inner))))
                elif field := PUB_FIELD.match(inner):
                    out.append(({name, field.group(1)}, set(WORD.findall(field.group(2)))))
        i += 1
    return out


def main():
    sources = {}
    for top in ("crates", "src", "tests", "examples", "benchmark"):
        for path in rust_files(os.path.join(ROOT, top)):
            rel = os.path.relpath(path, ROOT)
            with open(path, encoding="utf-8") as f:
                sources[rel] = f.read()

    words = {}  # crate -> set of identifiers its code uses
    code = {}  # library file -> its non-test lines, comments stripped
    for rel, text in sources.items():
        lines = [COMMENT.sub("", line) for line in text.splitlines()]
        words.setdefault(crate_of(rel), set()).update(w for l in lines for w in WORD.findall(l))
        parts = rel.split(os.sep)
        if parts[0] == "crates" and parts[2] == "src" and parts[3] != "bin":
            code[rel] = non_test_lines("\n".join(lines))

    reached = {}  # library crate -> names another crate reaches
    for rel, lines in code.items():
        crate = rel.split(os.sep)[1]
        if crate not in reached:
            reached[crate] = set().union(*(w for c, w in words.items() if c != crate))
    sigs = {crate: [] for crate in reached}
    for rel, lines in code.items():
        sigs[rel.split(os.sep)[1]].extend(signatures(lines))
    for crate, found in reached.items():
        grew = True
        while grew:
            grew = False
            for owners, used in sigs[crate]:
                if owners & found and not used <= found:
                    found |= used
                    grew = True

    unnamed = {}
    for rel, lines in code.items():
        parts = rel.split(os.sep)
        crate = parts[1]
        for line in lines:
            m = ITEM.match(line)
            if m and m.group(2) not in reached[crate]:
                unnamed[f"{crate}/{'/'.join(parts[3:])}:{m.group(2)}"] = m.group(1)

    allowed = {}
    with open(ALLOW, encoding="utf-8") as f:
        for n, line in enumerate(f, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            key, _, reason = line.partition(" ")
            assert reason.strip(), f"pub_surface.allow:{n}: {key} gives no reason"
            allowed[key] = reason.strip()

    new = sorted(k for k in unnamed if k not in allowed)
    stale = sorted(k for k in allowed if k not in unnamed)
    for key in new:
        print(f"pub but named by no other crate: {key} ({unnamed[key]})")
    for key in stale:
        print(f"allow-list entry matches no unnamed pub item: {key}")
    if new or stale:
        sys.exit(1)
    print(f"pub surface OK: {len(unnamed)} unnamed pub items, all on the "
          f"{len(allowed)}-entry allow-list")


if __name__ == "__main__":
    main()
