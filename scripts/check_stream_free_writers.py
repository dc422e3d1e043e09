#!/usr/bin/env python3
"""Fails when a src/core source builds its text through a string stream.

The cache, wire and emission writers build each line in one reused
buffer with `text::append` (src/support/text.h), and so does every other
src/core source. A string stream per line costs more than the rest of
the line's work, and one quiet edit brings it back, so this lint rejects
any of these in the checked files:

  - an `#include <sstream>`;
  - the name `ostringstream` or `stringstream`, with or without `std::`.

    scripts/check_stream_free_writers.py [FILE ...]

The default files are every src/core/*.cc. Comments and string literals
are skipped. Prints `file:line: ...` for each site and exits 1 if there
is any, 0 otherwise.
"""

import glob
import os
import re
import sys

from check_require_messages import blank_literals

SSTREAM_INCLUDE = re.compile(r"^[ \t]*#[ \t]*include[ \t]*<sstream>", re.M)
STREAM_NAME = re.compile(r"\b(?:std\s*::\s*)?o?stringstream\b")


def stream_sites(text):
    """Yields (line, what) for each string-stream use in text."""
    code = blank_literals(text)
    sites = [(m.start(), "#include <sstream>")
             for m in SSTREAM_INCLUDE.finditer(code)]
    sites += [(m.start(), re.sub(r"\s", "", m.group(0)))
              for m in STREAM_NAME.finditer(code)]
    for offset, what in sorted(sites):
        yield code.count("\n", 0, offset) + 1, what


def main(argv):
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    paths = argv[1:] or sorted(
        glob.glob(os.path.join(repo, "src", "core", "*.cc")))
    missing = [p for p in paths if not os.path.isfile(p)]
    if missing:
        print("check_stream_free_writers: no such file: " +
              ", ".join(missing), file=sys.stderr)
        return 2
    found = 0
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
        for line, what in stream_sites(text):
            found += 1
            print(f"{path}:{line}: {what}: build the line "
                  f"with text::append (support/text.h)")
    print(f"check_stream_free_writers: {found} string-stream site(s)")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
