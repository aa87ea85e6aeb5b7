"""Problem files: the parser and the canonical printer.

A problem is a small declarative text file: `key = value` lines with
integers, quoted strings and nested arrays, comments starting at `#`,
and a `[grading]` section, whose keys may also be set at the top level
as dotted keys, `grading.free_rank = 1`.  `parse_input` collects every
diagnostic it can before failing, and `print_input` writes the
canonical form back, so parse(print(p)) == p.

Reports and scripts are written and read by `report`, which only the
commands that write or read one load.
"""

from __future__ import annotations

import io
import re
from operator import index

from .errors import InputError, StructuralError
from .grading import DegreeMatrix, GradingGroup
from .polynomials import (GradedPolyRing, Ideal, _line_col, _line_starts,
                          _long_integer_message, default_names,
                          parse_polynomial, polynomial_to_str)

MODES = ("all-subsets", "user-faces")


# --- problem files -----------------------------------------------------

class ProblemInput:
    """One problem, exactly as a file describes it.

    `rows` holds the degree matrix with free rows first, then one row
    per torsion factor.  Generator strings are kept in canonical
    printed form.  `faces` lists 1-based variable index sets and is
    present exactly when mode is "user-faces".
    """

    def __init__(self, free_rank: int, torsion, var_count: int, rows,
                 ideal_gens=(), w=None, faces=None, mode: str = "all-subsets"):
        self.free_rank = index(free_rank)
        self.torsion = tuple(map(index, torsion))
        self.var_count = index(var_count)
        self.rows = tuple(tuple(map(index, r)) for r in rows)
        self.ideal_gens = tuple(ideal_gens)
        self.w = None if w is None else tuple(map(index, w))
        self.faces = (None if faces is None
                      else tuple(tuple(map(index, f)) for f in faces))
        self.mode = mode
        if mode not in MODES:
            raise StructuralError(f"unknown mode {mode!r}")
        if (faces is not None) != (mode == "user-faces"):
            raise StructuralError("faces and mode user-faces go together")

    def _fields(self):
        return (self.free_rank, self.torsion, self.var_count, self.rows,
                self.ideal_gens, self.w, self.faces, self.mode)

    def __eq__(self, other):
        return self is other or (type(other) is ProblemInput
                                 and self._fields() == other._fields())

    def group(self) -> GradingGroup:
        return GradingGroup(self.free_rank, self.torsion)

    def degree_matrix(self) -> DegreeMatrix:
        return DegreeMatrix.from_rows(self.group(), self.rows)

    def ring(self) -> GradedPolyRing:
        return GradedPolyRing(self.degree_matrix())

    def ideal(self, ring: GradedPolyRing | None = None) -> Ideal:
        ring = self.ring() if ring is None else ring
        return Ideal(ring, tuple(ring.parse(s) for s in self.ideal_gens))


def print_input(p: ProblemInput) -> str:
    lines = ["# graded ring automorphism problem"]
    lines.append(f"vars = {p.var_count}")
    lines.append("Q = [")
    for row in p.rows:
        lines.append("    [" + ", ".join(str(x) for x in row) + "],")
    lines.append("]")
    if p.ideal_gens:
        lines.append("ideal = [")
        for g in p.ideal_gens:
            lines.append(f'    "{g}",')
        lines.append("]")
    else:
        lines.append("ideal = []")
    if p.w is not None:
        lines.append("w = [" + ", ".join(str(x) for x in p.w) + "]")
    if p.faces is not None:
        lines.append("faces = [")
        for f in p.faces:
            lines.append("    [" + ", ".join(str(i) for i in f) + "],")
        lines.append("]")
    lines.append(f'mode = "{p.mode}"')
    lines.append("")
    lines.append("[grading]")
    lines.append(f"free_rank = {p.free_rank}")
    lines.append("torsion = [" + ", ".join(str(a) for a in p.torsion) + "]")
    return "\n".join(lines) + "\n"


# the problem-file scanner's patterns, each matched at an offset
_BLANK = re.compile(r"[ \t]*(?:#[^\n]*)?")  # blanks and a comment, in a line
_GAP = re.compile(r"(?:[ \t\r\n]|#[^\n]*)*")  # blanks, newlines, comments
_BARE = re.compile(r"[\w-]*")  # isalnum() characters, _ and -
_KEY = re.compile(r"(?:[\w-]+(?:\.[\w-]+)*)?")  # bare parts joined by dots
_INT = re.compile(r"-?\d*")  # \d is what int() reads as a digit
_QUOTED = re.compile(r'"[^"\n]*')  # a string up to its closing quote
_BRACKET = re.compile(r'[][]|"[^"\n]*"?|#[^\n]*')  # outside strings, comments
# the deepest arrays a value may nest; a problem's values nest two deep
NESTING_BOUND = 16


def _array_end(text: str, pos: int) -> int:
    """The offset after the array that starts at text[pos], found by
    counting its brackets; len(text) if it is not closed."""
    depth = 0
    for m in _BRACKET.finditer(text, pos):
        if m.group() == "[":
            depth += 1
        elif m.group() == "]":
            depth -= 1
            if not depth:
                return m.end()
    return len(text)


def _read_value(text: str, pos: int, diags: list, depth: int = 0):
    """The value at text[pos], an integer, quoted string, or array
    (arrays span lines), or None after a diagnostic; and the offset
    after what was read.  Diagnostics go to `diags` as (offset,
    message).  `depth` counts the arrays around the value; one nested
    deeper than NESTING_BOUND is skipped, not read."""
    ch = text[pos:pos + 1]
    if ch in ("", "\r", "\n"):
        diags.append((pos, "missing value"))
        return None, pos
    if ch == '"':
        end = _QUOTED.match(text, pos).end()
        if text.startswith('"', end):
            return text[pos + 1:end], end + 1
        diags.append((pos, "unterminated string"))
        return None, end
    if ch == "[":
        if depth == NESTING_BOUND:
            diags.append((pos, f"arrays nested deeper than {NESTING_BOUND}"))
            return None, _array_end(text, pos)
        items = []
        end = _GAP.match(text, pos + 1).end()
        while end < len(text) and text[end] != "]":
            value, end = _read_value(text, end, diags, depth + 1)
            items.append(value)
            end = _GAP.match(text, end).end()
            if text.startswith(",", end):
                end = _GAP.match(text, end + 1).end()
            elif end < len(text) and text[end] != "]":
                diags.append((end, "expected ',' or ']' in array, "
                              f"found {text[end]!r}"))
                return None, end
        if end == len(text):
            diags.append((pos, "unterminated array"))
            return None, end
        return items, end + 1
    end = _INT.match(text, pos).end()
    if end == pos:
        diags.append((pos, f"unexpected character {ch!r} in value"))
        return None, pos + 1
    if end == pos + 1 and ch == "-":
        diags.append((pos, "malformed integer"))
        return None, end
    try:
        return int(text[pos:end]), end
    except ValueError:
        diags.append((pos, _long_integer_message()))
        return None, end


def _read_entries(text: str):
    """Raw scan: `full.key -> (value, line, col)` plus syntax
    diagnostics.  After a syntax error the scan goes on at the next
    line."""
    entries = {}
    diags = []
    section = ""
    pos = 0
    while True:
        pos = _GAP.match(text, pos).end()
        if pos == len(text):
            break
        start = pos
        if text[start] == "[":
            pos = _BARE.match(text, start + 1).end()
            if pos == start + 1 or not text.startswith("]", pos):
                diags.append((start, "malformed section header"))
            else:
                section = text[start + 1:pos]
                pos = _BLANK.match(text, pos + 1).end()
                if text[pos:pos + 1] in ("", "\r", "\n"):
                    continue
                diags.append((pos, "unexpected text after section header"))
        else:
            pos = _KEY.match(text, start).end()
            key = text[start:pos]
            pos = _BLANK.match(text, pos).end()
            if not key:
                diags.append((start, f"unexpected character {text[start]!r}"))
            elif not text.startswith("=", pos):
                diags.append((pos, f"expected '=' after key {key!r}"))
            else:
                pos = _BLANK.match(text, pos + 1).end()
                value, pos = _read_value(text, pos, diags)
                full = f"{section}.{key}" if section else key
                if full in entries:
                    diags.append((start, f"duplicate key {full!r}"))
                else:
                    entries[full] = (value, start)
                pos = _BLANK.match(text, pos).end()
                if text[pos:pos + 1] in ("", "\r", "\n"):
                    continue
                diags.append((pos, "unexpected text after the "
                              f"value of {full!r}"))
        # skip to the end of the line
        pos = text.find("\n", pos) + 1 or len(text)
    starts = _line_starts(text)
    return ({key: (value, *_line_col(starts, at))
             for key, (value, at) in entries.items()},
            [(*_line_col(starts, at), message) for at, message in diags])


_KNOWN_KEYS = ("grading.free_rank", "grading.torsion", "vars", "Q",
               "ideal", "w", "faces", "mode")


def _as_int(entry, key, diags):
    value, line, col = entry
    if isinstance(value, int):
        return value
    diags.append((line, col, f"{key} must be an integer"))
    return None


def _as_int_list(entry, key, diags):
    value, line, col = entry
    if isinstance(value, list) and all(isinstance(x, int) for x in value):
        return [int(x) for x in value]
    diags.append((line, col, f"{key} must be an array of integers"))
    return None


def parse_input(text: str) -> ProblemInput:
    """Parse a problem file; raises InputError carrying every
    (line, column, message) diagnostic found."""
    entries, diags = _read_entries(text)
    for key, (_, line, col) in entries.items():
        if key not in _KNOWN_KEYS:
            diags.append((line, col, f"unknown key {key!r}"))

    def have(key):
        return key in entries and entries[key][0] is not None

    free_rank = torsion = var_count = None
    if have("grading.free_rank"):
        free_rank = _as_int(entries["grading.free_rank"], "free_rank", diags)
        if free_rank is not None and free_rank < 0:
            diags.append(entries["grading.free_rank"][1:]
                         + ("free_rank must be nonnegative",))
            free_rank = None
    elif "grading.free_rank" not in entries:
        diags.append((1, 1, "missing key grading.free_rank"))
    torsion = []
    if have("grading.torsion"):
        torsion = _as_int_list(entries["grading.torsion"], "torsion", diags)
        if torsion is not None and any(a < 2 for a in torsion):
            diags.append(entries["grading.torsion"][1:]
                         + ("every torsion order must be at least 2",))
            torsion = None
    if have("vars"):
        var_count = _as_int(entries["vars"], "vars", diags)
        if var_count is not None and var_count < 1:
            diags.append(entries["vars"][1:] + ("vars must be positive",))
            var_count = None
        elif var_count is not None and var_count > len(text):
            # refused before Q's rows are checked against it and before
            # the ideal's parser builds one name per variable
            diags.append(entries["vars"][1:] + (
                f"vars = {var_count}, but no row of Q in a file of "
                f"{len(text)} characters has that many entries",))
            var_count = None
    elif "vars" not in entries:
        diags.append((1, 1, "missing key vars"))

    rows = None
    if have("Q"):
        value, line, col = entries["Q"]
        if not isinstance(value, list):
            diags.append((line, col, "Q must be an array of rows"))
        elif not value:
            diags.append((line, col, "Q must have at least one row"))
        else:
            rows = []
            for i, row in enumerate(value, start=1):
                if not (isinstance(row, list)
                        and all(isinstance(x, int) for x in row)):
                    diags.append((line, col,
                                  f"Q row {i} must be an array of integers"))
                    rows = None
                    break
                if var_count is not None and len(row) != var_count:
                    diags.append((line, col,
                                  f"Q row {i} has {len(row)} entries, "
                                  f"expected vars = {var_count}"))
                    rows = None
                    break
                rows.append(tuple(row))
            if (rows is not None and free_rank is not None
                    and torsion is not None
                    and len(rows) != free_rank + len(torsion)):
                diags.append((line, col,
                              f"Q has {len(rows)} rows, expected free_rank"
                              f" + torsion count = {free_rank + len(torsion)}"))
                rows = None
    elif "Q" not in entries:
        diags.append((1, 1, "missing key Q"))

    gens = []
    if have("ideal"):
        value, line, col = entries["ideal"]
        if not isinstance(value, list):
            diags.append((line, col, "ideal must be an array of strings"))
            gens = None
        elif var_count is not None:
            names = default_names(var_count)
            for i, s in enumerate(value, start=1):
                if not isinstance(s, str):
                    diags.append((line, col,
                                  f"ideal generator {i} must be a string"))
                    continue
                try:
                    f = parse_polynomial(s, names)
                except InputError as exc:
                    msg = exc.diagnostics[0][2] if exc.diagnostics else "parse error"
                    diags.append((line, col, f"ideal generator {i}: {msg}"))
                    continue
                if f.is_zero():
                    diags.append((line, col, f"ideal generator {i} is zero"))
                    continue
                gens.append(polynomial_to_str(f, names))

    w = None
    if have("w"):
        w = _as_int_list(entries["w"], "w", diags)
        if (w is not None and free_rank is not None and torsion is not None
                and len(w) != free_rank + len(torsion)):
            diags.append(entries["w"][1:]
                         + (f"w has {len(w)} coordinates, expected "
                            f"free_rank + torsion count = "
                            f"{free_rank + len(torsion)}",))
            w = None

    faces = None
    if have("faces"):
        value, line, col = entries["faces"]
        if (not isinstance(value, list)
                or not all(isinstance(f, list) for f in value)):
            diags.append((line, col, "faces must be an array of index arrays"))
        elif not value:
            diags.append((line, col,
                          "faces, when given, must list at least one face"))
        else:
            faces = []
            for i, f in enumerate(value, start=1):
                if not f or not all(isinstance(x, int) for x in f):
                    diags.append((line, col,
                                  f"face {i} must be a nonempty integer array"))
                    faces = None
                    break
                if var_count is not None and any(
                        x < 1 or x > var_count for x in f):
                    diags.append((line, col,
                                  f"face {i} has an index outside 1..{var_count}"))
                    faces = None
                    break
                faces.append(tuple(f))
            if faces is not None:
                faces = tuple(faces)

    mode = None
    if have("mode"):
        value, line, col = entries["mode"]
        if not isinstance(value, str) or value not in MODES:
            diags.append((line, col,
                          "mode must be one of " + ", ".join(MODES)))
        else:
            mode = value
    if mode is None:
        mode = "user-faces" if faces is not None else "all-subsets"
    if mode == "user-faces" and faces is None and not diags:
        diags.append(entries["mode"][1:]
                     + ("mode user-faces needs a faces key",))
    if mode == "all-subsets" and faces is not None:
        diags.append(entries["mode"][1:]
                     + ("faces given, but mode is all-subsets",))

    if diags or None in (free_rank, torsion, var_count, rows, gens):
        raise InputError(sorted(set(diags)) or
                         [(1, 1, "incomplete problem description")])
    return ProblemInput(free_rank, tuple(torsion), var_count, tuple(rows),
                        tuple(gens), None if w is None else tuple(w),
                        faces, mode)


def read_text(path) -> str:
    """The UTF-8 text of a file; undecodable bytes raise InputError at
    their line and column."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        # read() decodes the whole file in one call, so exc.object is
        # every byte of it
        at = _byte_line_col(io.BytesIO(exc.object), exc.start)
        raise InputError([(*at, f"not UTF-8 text: {exc.reason}")]) from None


def read_input(path) -> ProblemInput:
    return parse_input(read_text(path))


def _byte_line_col(src, at: int) -> tuple[int, int]:
    """The line and column of byte `at` of the binary stream `src`, the
    column counted in characters."""
    src.seek(0)
    line, start = 1, 0
    for text in src:
        if start + len(text) > at or not text.endswith(b"\n"):
            break
        line += 1
        start += len(text)
    else:
        text = b""
    return line, len(text[:at - start].decode("utf-8", "replace")) + 1
