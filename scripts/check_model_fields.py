#!/usr/bin/env python3
"""Fails when a platform model field is missing from a key or edit list.

Every data member of platform::FpgaModel, CgcModel and MemoryModel must
appear in two lists:

  - that model's `append_key` in src/core/fingerprint.cc, which keys the
    sweep cache and the sweep's shared mapper tables (core::AxisMemo);
  - `test::platform_field_edits()` in tests/test_helpers.h, which the
    tests walk to show that each field changes the digest, gets tables
    of its own and changes some price.

    scripts/check_model_fields.py [HEADER ...]

Each HEADER is searched for the three model structs; the default is the
repository's src/platform/{fpga,cgc,memory}_model.h, where all three
must be found. Static members and member functions are not fields.
Prints `file:line: ...` for each missing entry and exits 1 if there is
any, 0 otherwise.
"""

import os
import re
import sys

from check_require_messages import blank_literals

# Each model and the Platform member that holds it.
MODELS = {"FpgaModel": "fpga", "CgcModel": "cgc", "MemoryModel": "memory"}
DEFAULT_HEADERS = ("fpga_model.h", "cgc_model.h", "memory_model.h")


def matching_brace(code, open_at):
    """Returns the offset just past the brace that closes code[open_at]."""
    depth = 0
    for i in range(open_at, len(code)):
        if code[i] == "{":
            depth += 1
        elif code[i] == "}":
            depth -= 1
            if depth == 0:
                return i + 1
    return len(code)


def struct_fields(code, name):
    """Returns [(offset, member)] for each data member of struct `name`,
    or None when `code` holds no such struct."""
    found = re.search(r"\bstruct\s+" + name + r"\s*\{", code)
    if not found:
        return None
    fields = []
    end = matching_brace(code, found.end() - 1) - 1
    i = found.end()
    start = i
    while i < end:
        c = code[i]
        if c == "{":
            close = matching_brace(code, i)
            if "(" in code[start:i]:  # a member function's body
                start = close
            i = close
        elif c == ";":
            declarator = code[start:i].split("=", 1)[0]
            member = re.search(r"(\w+)\s*(?:\[[^\]]*\])?\s*$", declarator)
            if ("(" not in declarator and member and
                    not re.match(r"\s*(?:static|using|friend|typedef)\b",
                                 declarator)):
                fields.append((start + member.start(1), member.group(1)))
            i += 1
            start = i
        else:
            i += 1
    return fields


def function_bodies(code, pattern):
    """Yields (match, body) for each function whose head matches."""
    for head in re.finditer(pattern, code):
        open_at = code.find("{", head.end())
        if open_at >= 0:
            yield head, code[open_at:matching_brace(code, open_at)]


def keyed_members(fingerprint_code):
    """Returns {model: members its append_key reads}."""
    keyed = {model: set() for model in MODELS}
    pattern = (r"\bappend_key\s*\([^)]*platform::(\w+)\s*&\s*(\w+)\s*\)")
    for head, body in function_bodies(fingerprint_code, pattern):
        model, param = head.group(1), head.group(2)
        if model in keyed:
            keyed[model] |= set(re.findall(
                r"\b" + param + r"\s*\.\s*(\w+)", body))
    return keyed


def edited_members(helpers_code):
    """Returns {model: members platform_field_edits assigns}."""
    edited = {model: set() for model in MODELS}
    pattern = r"\bplatform_field_edits\s*\(\s*\)"
    for _, body in function_bodies(helpers_code, pattern):
        for model, member in MODELS.items():
            edited[model] |= set(re.findall(
                r"\.\s*" + member + r"\s*\.\s*(\w+)\s*=", body))
    return edited


def read(path):
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def main(argv):
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    headers = argv[1:] or [os.path.join(repo, "src", "platform", name)
                           for name in DEFAULT_HEADERS]
    missing = [p for p in headers if not os.path.isfile(p)]
    if missing:
        print("check_model_fields: no such file: " + ", ".join(missing),
              file=sys.stderr)
        return 2
    fingerprint_path = os.path.join(repo, "src", "core", "fingerprint.cc")
    helpers_path = os.path.join(repo, "tests", "test_helpers.h")
    keyed = keyed_members(blank_literals(read(fingerprint_path)))
    edited = edited_members(blank_literals(read(helpers_path)))

    seen = set()
    unlisted = 0
    for path in headers:
        code = blank_literals(read(path))
        for model in MODELS:
            fields = struct_fields(code, model)
            if fields is None:
                continue
            seen.add(model)
            for offset, member in fields:
                line = code.count("\n", 0, offset) + 1
                for where, listed in (
                        ("append_key in src/core/fingerprint.cc", keyed),
                        ("platform_field_edits in tests/test_helpers.h",
                         edited)):
                    if member not in listed[model]:
                        unlisted += 1
                        print(f"{path}:{line}: {model}::{member} is missing "
                              f"from {where}")
    wanted = set(MODELS) if len(argv) < 2 else set()
    if not seen or wanted - seen:
        print("check_model_fields: model struct(s) not found: " +
              ", ".join(sorted(set(MODELS) - seen)), file=sys.stderr)
        return 2
    print(f"check_model_fields: {unlisted} unlisted field(s)")
    return 1 if unlisted else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
