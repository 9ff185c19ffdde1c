#!/usr/bin/env python3
"""Checks README.md's EngineOptions knob table against the struct.

Parses the fields of `struct EngineOptions` in src/llm/engine_options.h
and the rows of the table under README.md's "## EngineOptions knobs"
heading, and fails when:

  * a field has no README row;
  * a README row names no field;
  * a bool or integer field's README default differs from the header's
    initializer.

Usage:
  check_engine_options_doc.py [--root <repo root>]

Exits 0 when the table matches, 1 with one line per problem otherwise.
"""

import argparse
import os
import re
import sys

HEADER = os.path.join("src", "llm", "engine_options.h")
README = "README.md"
TABLE_HEADING = "## EngineOptions knobs"

INTEGER_TYPES = {"int", "int32_t", "int64_t", "uint32_t", "uint64_t"}
# `type name;` or `type name = initializer;` at the struct's top level.
FIELD_RE = re.compile(
    r"^\s*([A-Za-z_][\w:<>]*)\s+([a-z_][a-z0-9_]*)\s*(?:=\s*(.+?))?;\s*$")
ROW_RE = re.compile(r"^\|\s*`([a-z_][a-z0-9_]*)`\s*\|\s*([^|]*?)\s*\|")


def parse_fields(text):
    """Returns {name: (type, initializer or None)} for EngineOptions."""
    start = text.find("struct EngineOptions {")
    if start < 0:
        raise ValueError(f"{HEADER}: struct EngineOptions not found")
    fields = {}
    depth = 0
    for line in text[start:].splitlines():
        code = line.split("//", 1)[0]
        if depth == 1:
            m = FIELD_RE.match(code)
            if m:
                fields[m.group(2)] = (m.group(1), m.group(3))
        depth += code.count("{") - code.count("}")
        if depth == 0 and "}" in code:
            break
    if not fields:
        raise ValueError(f"{HEADER}: no EngineOptions fields parsed")
    return fields


def parse_rows(text):
    """Returns {name: default cell} for the README knob table."""
    start = text.find(TABLE_HEADING)
    if start < 0:
        raise ValueError(f"{README}: '{TABLE_HEADING}' heading not found")
    rows = {}
    for line in text[start + len(TABLE_HEADING):].splitlines():
        if line.startswith("## "):
            break
        m = ROW_RE.match(line)
        if m:
            if m.group(1) in rows:
                raise ValueError(f"{README}: duplicate row `{m.group(1)}`")
            rows[m.group(1)] = m.group(2)
    if not rows:
        raise ValueError(f"{README}: the knob table has no rows")
    return rows


def parse_int(literal):
    literal = literal.strip().rstrip("uUlL")
    try:
        return int(literal, 0)
    except ValueError:
        return None


def check(fields, rows):
    problems = []
    for name in sorted(set(fields) - set(rows)):
        problems.append(f"EngineOptions::{name} has no README row")
    for name in sorted(set(rows) - set(fields)):
        problems.append(f"README row `{name}` names no EngineOptions field")
    for name in sorted(set(fields) & set(rows)):
        ftype, init = fields[name]
        documented = rows[name].strip("` ")
        if ftype == "bool":
            expected = init if init is not None else "false"
            if documented != expected:
                problems.append(
                    f"`{name}`: README default {rows[name]!r}, header "
                    f"initializer {expected}")
        elif ftype in INTEGER_TYPES:
            expected = parse_int(init) if init is not None else 0
            if expected is None:
                continue  # A computed initializer; nothing to compare.
            if parse_int(documented) != expected:
                problems.append(
                    f"`{name}`: README default {rows[name]!r}, header "
                    f"initializer {init}")
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--root",
        default=os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    args = parser.parse_args()
    try:
        with open(os.path.join(args.root, HEADER), encoding="utf-8") as f:
            fields = parse_fields(f.read())
        with open(os.path.join(args.root, README), encoding="utf-8") as f:
            rows = parse_rows(f.read())
    except (OSError, ValueError) as e:
        print(f"check_engine_options_doc: {e}", file=sys.stderr)
        return 1
    problems = check(fields, rows)
    for p in problems:
        print(f"check_engine_options_doc: {p}", file=sys.stderr)
    if problems:
        return 1
    print(f"check_engine_options_doc: {len(fields)} EngineOptions fields "
          f"match the README knob table")
    return 0


if __name__ == "__main__":
    sys.exit(main())
