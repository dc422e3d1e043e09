#!/usr/bin/env python3
"""Fails on require() calls whose message is built before the check runs.

`require(cond, parts...)` (src/support/error.h) formats its parts only
when `cond` is false, but C++ evaluates every argument before the call.
A message part that calls `cat(...)`, `std::string(...)`, `op_name(...)`
or `token_kind_name(...)` (qualified or not) does that work on every
call, which on hot accessors costs more than the check it guards. Pass
plain parts (`require(ok, "bad id ", id)`), or name the value only on the
failure path: `if (!ok) fail(cat("bad op ", op_name(kind)));`.

    scripts/check_require_messages.py [PATH ...]

Each PATH is a file or a directory searched for C++ sources; the
default is the repository's src/, tools/ and examples/. Calls may span lines:
the scanner matches parentheses and skips comments and string, char
and raw-string literals. Prints `file:line: ...` for each eager site
and exits 1 if there is any, 0 otherwise.
"""

import os
import re
import sys

SOURCE_SUFFIXES = (".h", ".hh", ".hpp", ".cc", ".cpp", ".cxx")
EAGER_CALL = re.compile(
    r"(?<![\w:])(?:\w*::)*(?:cat|op_name|token_kind_name)\s*\("
    r"|(?<![\w:])std::string\s*\(")
RAW_STRING_START = re.compile(r'(?:u8|[uUL])?R"([^()\\\s]{0,16})\(')
IDENT_CHARS = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
                  "0123456789_")


def blank_literals(text):
    """Returns text with comments and literal bodies replaced by spaces.

    Newlines and the offsets of everything else are kept, so positions
    in the result map back to the original lines. String and char
    literals keep their quotes, which is enough to tell a literal
    message from a call.
    """
    out = list(text)
    i = 0
    n = len(text)

    def blank(start, end):
        for k in range(start, end):
            if out[k] != "\n":
                out[k] = " "

    while i < n:
        c = text[i]
        if text.startswith("//", i):
            end = text.find("\n", i)
            end = n if end < 0 else end
            blank(i, end)
            i = end
        elif text.startswith("/*", i):
            end = text.find("*/", i + 2)
            end = n if end < 0 else end + 2
            blank(i, end)
            i = end
        elif c in "uULR" and (i == 0 or text[i - 1] not in IDENT_CHARS):
            raw = RAW_STRING_START.match(text, i)
            if raw:
                body = raw.end()
                close = text.find(")" + raw.group(1) + '"', body)
                end = n if close < 0 else close
                blank(body, end)
                i = n if close < 0 else close + len(raw.group(1)) + 2
            else:
                i += 1
        elif c in "\"'":
            k = i + 1
            while k < n and text[k] != c and text[k] != "\n":
                k += 2 if text[k] == "\\" else 1
            blank(i + 1, min(k, n))
            i = k + 1
        else:
            i += 1
    return "".join(out)


def call_arguments(code, open_paren):
    """Splits the call whose '(' is at open_paren into top-level args.

    Returns a list of (start, end) offsets, or None if the parentheses
    never balance.
    """
    depth = 0
    args = []
    start = open_paren + 1
    for k in range(open_paren, len(code)):
        c = code[k]
        if c in "([{":
            depth += 1
        elif c in ")]}":
            depth -= 1
            if depth == 0:
                args.append((start, k))
                return args
        elif c == "," and depth == 1:
            args.append((start, k))
            start = k + 1
    return None


def eager_sites(text):
    """Yields (line, call_name) for each eager require() in text: one
    whose message parts (every argument after the condition) call a
    formatting function."""
    code = blank_literals(text)
    for match in re.finditer(r"\brequire\s*\(", code):
        if match.start() > 0 and code[match.start() - 1] in IDENT_CHARS:
            continue
        args = call_arguments(code, match.end() - 1)
        if not args or len(args) < 2:
            continue
        for start, end in args[1:]:
            call = EAGER_CALL.search(code, start, end)
            if call:
                line = code.count("\n", 0, match.start()) + 1
                yield line, re.sub(r"\s*\($", "", call.group(0))
                break


def source_files(paths):
    for path in paths:
        if os.path.isfile(path):
            yield path
            continue
        for root, dirs, files in os.walk(path):
            dirs.sort()
            for name in sorted(files):
                if name.endswith(SOURCE_SUFFIXES):
                    yield os.path.join(root, name)


def main(argv):
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    paths = argv[1:] or [os.path.join(repo, d)
                         for d in ("src", "tools", "examples")]
    missing = [p for p in paths if not os.path.exists(p)]
    if missing:
        print("check_require_messages: no such path: " + ", ".join(missing),
              file=sys.stderr)
        return 2
    found = 0
    for path in source_files(paths):
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
        for line, head in eager_sites(text):
            found += 1
            print(f"{path}:{line}: require() message calls {head}(...) "
                  f"before the check; pass plain parts, or format it "
                  f"on the failure path")
    print(f"check_require_messages: {found} eager require() message(s)")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
