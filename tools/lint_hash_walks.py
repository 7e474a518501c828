#!/usr/bin/env python3
"""Flag walks over hash tables whose order could reach the output.

A hash table's walk order follows its hash function, capacity and insert
history, not anything the simulation means.  Every walk in src/ over a
std::unordered_* or common::FlatMap/FlatSet variable must therefore say why
its order does not matter, or that it is a known dependency:

    // order-free: <reason>
    // hash-order: ROADMAP item 1

The marker goes on the walk's line or in the comment block right above it.
A walk is a range-for over the variable, a call of its begin()/cbegin() or
erase_if(), or std::erase_if on it.  Variables are found by name from their
declarations: a name declared in a header counts in every file, one
declared in a source file only in that file.  A walk over another variable
of such a name is flagged too; mark it as well.

Usage: lint_hash_walks.py DIR...   (exit 1 when a walk is unmarked)
"""

import re
import sys
from pathlib import Path

HASH_TYPE = re.compile(
    r"\b(?:std::unordered_(?:map|set|multimap|multiset)|(?:common::)?Flat(?:Map|Set))\s*<")
MARKER = re.compile(r"//\s*(?:order-free:\s*\S|hash-order:\s*ROADMAP item 1\b)")
IDENT = re.compile(r"[A-Za-z_]\w*")


def blank_comments_and_strings(text):
    """The text with comments and literals blanked, newlines kept."""
    out = []
    i, n = 0, len(text)
    while i < n:
        if text.startswith("//", i):
            end = text.find("\n", i)
            end = n if end < 0 else end
        elif text.startswith("/*", i):
            end = text.find("*/", i + 2)
            end = n if end < 0 else end + 2
        elif text[i] == '"' or (text[i] == "'" and not text[i - 1:i].isalnum()):
            quote, end = text[i], i + 1
            while end < n and text[end] != quote:
                end += 2 if text[end] == "\\" else 1
            end += 1
        else:
            out.append(text[i])
            i += 1
            continue
        out.append("".join(c if c == "\n" else " " for c in text[i:end]))
        i = end
    return "".join(out)


def matching(text, start, open_char, close_char):
    """Index just past the bracket that closes the one at `start`."""
    depth = 0
    for i in range(start, len(text)):
        if text[i] == open_char:
            depth += 1
        elif text[i] == close_char:
            depth -= 1
            if depth == 0:
                return i + 1
    return len(text)


def declared_names(code):
    """Names declared with a hash-table type."""
    names = set()
    for match in HASH_TYPE.finditer(code):
        after = matching(code, match.end() - 1, "<", ">")
        rest = re.match(r"\s*([A-Za-z_]\w*)\s*([;{=,])", code[after:])
        if rest:
            names.add(rest.group(1))
    return names


def walks(code, names):
    """(offset, name) of each walk over one of `names`."""
    found = []
    for match in re.finditer(r"\bfor\s*\(", code):
        end = matching(code, match.end() - 1, "(", ")")
        header = code[match.end():end - 1]
        colon = re.search(r"(?<!:):(?!:)", header)
        if colon is None:
            continue
        tail = re.search(r"([A-Za-z_]\w*)\s*$", header[colon.end():])
        if tail and tail.group(1) in names:
            found.append((match.start(), tail.group(1)))
    for match in re.finditer(
            r"\b([A-Za-z_]\w*)\s*(?:\.|->)\s*(?:c?begin|erase_if)\s*\(", code):
        if match.group(1) in names:
            found.append((match.start(), match.group(1)))
    for match in re.finditer(r"\bstd::erase_if\s*\(\s*([\w.>-]+?)\s*,", code):
        name = IDENT.findall(match.group(1))[-1]
        if name in names:
            found.append((match.start(), name))
    return found


def marked(lines, index):
    if MARKER.search(lines[index]):
        return True
    index -= 1
    while index >= 0 and lines[index].lstrip().startswith("//"):
        if MARKER.search(lines[index]):
            return True
        index -= 1
    return False


def main(argv):
    if len(argv) < 2:
        print(__doc__.strip().splitlines()[-1], file=sys.stderr)
        return 2
    files = sorted(p for d in argv[1:] for p in Path(d).rglob("*")
                   if p.suffix in (".hpp", ".cpp", ".h", ".cc"))
    texts = {path: path.read_text() for path in files}
    codes = {path: blank_comments_and_strings(text) for path, text in texts.items()}
    local = {path: declared_names(code) for path, code in codes.items()}
    shared = set().union(*(names for path, names in local.items()
                           if path.suffix in (".hpp", ".h")))
    unmarked = 0
    for path in files:
        lines = texts[path].splitlines()
        for offset, name in sorted(walks(codes[path], shared | local[path])):
            line = codes[path].count("\n", 0, offset)
            if marked(lines, line):
                continue
            unmarked += 1
            print(f"{path}:{line + 1}: walk over hash-ordered '{name}' needs "
                  "'// order-free: <reason>' or '// hash-order: ROADMAP item 1'")
    print(f"lint_hash_walks: {len(files)} files, {unmarked} unmarked walks")
    return 1 if unmarked else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
