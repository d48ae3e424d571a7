#!/usr/bin/env python3
"""Compares two files of `dspaddr serve` answers, ignoring node counts.

usage: tools/diff_answers.py A B

Both files hold one JSON answer per line. Line by line, the answers are
compared member by member, in order, with numbers compared as written.
The one member left out is the phase-2 search's node count of the
allocate stage, `stages.allocate.phase2.nodes` from the answer's top
level: a change to the search's pruning may move it without moving any
answer. Every other member counts, other node counts too (a stats
line's `stats.phase2.nodes`).

Prints a one-line verdict, preceded by the first few differences if
there are any. Exits 0 when the files agree apart from phase-2 node
counts, 1 on any other difference, and 2 on a usage or read error.
"""

import json
import sys

# How many differences to print before the verdict.
SHOWN = 5


class Members(list):
    """A JSON object's (name, value) pairs, in order."""


class Number(str):
    """A JSON number as written."""


def parse(line):
    """One answer, with members kept in order and numbers as written."""
    return json.loads(line, object_pairs_hook=Members, parse_float=Number,
                      parse_int=Number, parse_constant=Number)


def shown(value):
    return value if isinstance(value, Number) else json.dumps(value)


# The path of the one member left out.
IGNORED = ("stages", "allocate", "phase2", "nodes")


def compare(a, b, path, diffs, node_diffs):
    """Appends (path, a, b) to `diffs` for every difference below `path`
    and counts the differing phase-2 node counts in node_diffs[0]."""
    if isinstance(a, Members) and isinstance(b, Members):
        names_a = [name for name, _ in a]
        names_b = [name for name, _ in b]
        if names_a != names_b:
            diffs.append((path, "members " + ",".join(names_a),
                          "members " + ",".join(names_b)))
            return
        for (name, value_a), (_, value_b) in zip(a, b):
            compare(value_a, value_b, path + (name,), diffs, node_diffs)
    elif type(a) is list and type(b) is list:
        if len(a) != len(b):
            diffs.append((path, f"{len(a)} elements", f"{len(b)} elements"))
            return
        for index, (value_a, value_b) in enumerate(zip(a, b)):
            compare(value_a, value_b, path + (str(index),), diffs, node_diffs)
    elif type(a) is not type(b) or a != b:
        if path == IGNORED:
            node_diffs[0] += 1
        else:
            diffs.append((path, shown(a), shown(b)))


def read_lines(path):
    with open(path, encoding="utf-8") as handle:
        return handle.read().splitlines()


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    try:
        lines_a, lines_b = read_lines(argv[1]), read_lines(argv[2])
    except (OSError, UnicodeDecodeError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    diffs = []
    node_diffs = [0]
    if len(lines_a) != len(lines_b):
        diffs.append((("file",), f"{len(lines_a)} lines",
                      f"{len(lines_b)} lines"))
    for number, (line_a, line_b) in enumerate(zip(lines_a, lines_b), 1):
        if line_a == line_b:
            continue
        found = []
        try:
            compare(parse(line_a), parse(line_b), (), found, node_diffs)
        except json.JSONDecodeError:
            found.append(((), "unparsed line", "unparsed line"))
        diffs.extend(((f"line {number}",) + path, a, b)
                     for path, a, b in found)

    for path, a, b in diffs[:SHOWN]:
        print(f"{'.'.join(path)}: {a} != {b}")
    if diffs:
        print(f"DIFFERENT: {len(diffs)} difference(s) beyond phase-2 node "
              f"counts ({argv[1]} vs {argv[2]})")
        return 1
    print(f"same answers: {len(lines_a)} lines, {node_diffs[0]} phase-2 node "
          f"count(s) differ")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
