"""Result bundles on disk, and script export.

Result bundles persist as JSON under the schema name "graded-aut/1".
`read_report` computes a report's sections again from its problem and
accepts the file only if it is, byte for byte, what `write_report`
writes of them.  The schema's "timing" key is always null, which keeps
reports byte-stable across runs.  An `EquationList` is written from its
zero pattern, and its zero slots and witness det * Z - 1 are never
expanded.  The script export writes each list as `EquationList.write`
does.

The command line loads this module only to write a report (`--out`) or
a script (`export`), so the other commands never load it or `json`.
"""

from __future__ import annotations

import io
import json
import os
import stat
from contextlib import suppress
from functools import partial
from json.encoder import encode_basestring_ascii
from operator import index

from .errors import InputError, StructuralError, ValidationError
from .grading import GradingGroup
from .inout import ProblemInput, _byte_line_col, parse_input, print_input
from .polynomials import (EquationList, GradedPolyRing, _blocks, _joined,
                          _leibniz, _long_integer_message, _pairs)
from .validation import Stages, ValidationReport

# AutPresentation and StabilizerPresentation, named in annotations, are
# not imported: the report reader runs its stages through
# `validation.Stages`, which imports each stage's module when it first
# runs it, so writing a report of `check` loads neither ringaut nor
# algebraaut

SCHEMA = "graded-aut/1"


# --- result bundles ----------------------------------------------------

class FilterResult:
    """Outcome of the chamber filter: the class w, the chamber's
    primitive rays, and the 0-based indices of the retained triples."""

    def __init__(self, w, retained, chamber_rays):
        self.w = tuple(map(index, w))
        self.retained = tuple(map(index, retained))
        self.chamber_rays = tuple(tuple(map(index, r)) for r in chamber_rays)


class ResultBundle:
    """Everything one run produced.  Later stages may be absent."""

    def __init__(self, problem: ProblemInput,
                 report: ValidationReport | None = None,
                 weight_auts: tuple[tuple[tuple[int, ...], ...], ...] = (),
                 presentation: AutPresentation | None = None,
                 stabilizer: StabilizerPresentation | None = None,
                 filter_result: FilterResult | None = None):
        self.problem = problem
        self.report = report
        self.weight_auts = weight_auts
        self.presentation = presentation
        self.stabilizer = stabilizer
        self.filter_result = filter_result


def _int(x) -> int:
    """A report's integer: a JSON number without fraction or exponent.
    int() would take 1.5 for 1 and true for 1."""
    if type(x) is not int:
        raise TypeError(f"expected an integer, found {json.dumps(x)[:40]}")
    return x


def _ints(xs) -> tuple[int, ...]:
    return tuple(map(_int, xs))


def _int_rows(rows) -> tuple[tuple[int, ...], ...]:
    return tuple(map(_ints, rows))


def _strs(xs) -> tuple[str, ...]:
    """A report's list of strings.  tuple() would split a bare string
    into characters and take the keys of an object."""
    if type(xs) is not list or any(type(x) is not str for x in xs):
        raise TypeError("expected a list of strings, found "
                        f"{json.dumps(xs)[:40]}")
    return tuple(xs)


def _encode_ring(ring: GradedPolyRing):
    return {"free_rank": ring.grading.free_rank,
            "torsion": list(ring.grading.torsion_orders),
            "Q": [list(r) for r in ring.degrees.rows()]}


def _encode_problem(p: ProblemInput):
    return {"grading": {"free_rank": p.free_rank, "torsion": list(p.torsion)},
            "vars": p.var_count,
            "Q": [list(r) for r in p.rows],
            "ideal": list(p.ideal_gens),
            "w": None if p.w is None else list(p.w),
            "faces": None if p.faces is None else [list(f) for f in p.faces],
            "mode": p.mode}


def _decode_problem(data) -> ProblemInput:
    """The problem section, checked as the problem file it prints."""
    faces = data.get("faces")
    p = ProblemInput(
        _int(data["grading"]["free_rank"]),
        _ints(data["grading"]["torsion"]),
        _int(data["vars"]),
        _int_rows(data["Q"]),
        _strs(data["ideal"]),
        None if data.get("w") is None else _ints(data["w"]),
        None if faces is None else _int_rows(faces),
        data.get("mode", "all-subsets"))
    try:
        parse_input(print_input(p))
    except InputError as exc:
        raise ValueError("problem section: " + "; ".join(
            msg for _, _, msg in exc.diagnostics)) from None
    return p


def _encode_presentation(pres: AutPresentation, polys):
    """polys(gens, nvars) encodes each equation list."""
    nvars = pres.n ** 2 + 1
    return {"ring": _encode_ring(pres.ring),
            "n": pres.n,
            "triples": [{"weight_aut": [list(r) for r in t.weight_aut.matrix],
                         "pattern": [list(r) for r in t.matrix.pattern],
                         "equations": polys(t.ideal, nvars)}
                        for t in pres.triples]}


def _encode_stabilizer(stab: StabilizerPresentation, base: dict, polys):
    """`base` is the encoded stab.base; polys(gens, nvars) encodes each
    list of polynomials."""
    roster = [list(u.free_part) + list(u.torsion_part)
              for u in stab.degree_roster]
    nvars = stab.n ** 2 + 1
    return {"base": base,
            "ideal": polys(stab.ideal.generators,
                           stab.ring.variable_count),
            "roster": roster,
            "stabilizer_gens": [polys(t.stabilizer_gens, nvars)
                                for t in stab.triples]}


def _bundle_tree(bundle: ResultBundle, polys=None) -> dict:
    """The report's tree with each list of polynomials gens, in nvars
    variables, as polys(gens, nvars); by default a leaf that writes
    itself, for _json_chunks, all sharing one `_polys_chunks` dict.
    When the stabilizer's base is the presentation itself, as the CLI
    builds it, one encoded dict stands under both keys."""
    if polys is None:
        texts = {}
        polys = lambda gens, nvars: partial(_polys_chunks, gens, nvars, texts)
    pres = (None if bundle.presentation is None
            else _encode_presentation(bundle.presentation, polys))
    stab = bundle.stabilizer
    stab_data = None
    if stab is not None:
        base = (pres if stab.base is bundle.presentation
                else _encode_presentation(stab.base, polys))
        stab_data = _encode_stabilizer(stab, base, polys)
    return {
        "schema": SCHEMA,
        "problem": _encode_problem(bundle.problem),
        "validation": (None if bundle.report is None
                       else bundle.report.as_dict()),
        "weight_symmetries": [[list(r) for r in m]
                              for m in bundle.weight_auts],
        "presentation": pres,
        "stabilizer": stab_data,
        "filter": (None if bundle.filter_result is None
                   else {"w": list(bundle.filter_result.w),
                         "retained": list(bundle.filter_result.retained),
                         "chamber_rays": [list(r) for r in
                                          bundle.filter_result.chamber_rays]}),
        "timing": None,
    }


def _decode_filter(data, group: GradingGroup,
                   triple_count: int) -> FilterResult:
    """The filter section: a class of the group, chamber rays in its
    free part, and increasing indices of the triples export writes."""
    k = group.free_rank
    filt = FilterResult(_ints(data["w"]), _ints(data["retained"]),
                        _int_rows(data["chamber_rays"]))
    if len(filt.w) != k + group.torsion_rank:
        raise ValueError(f"filter w has {len(filt.w)} coordinates, the "
                         f"group {k + group.torsion_rank}")
    if any(len(r) != k for r in filt.chamber_rays):
        raise ValueError(f"a chamber ray does not have {k} coordinates")
    kept = (-1, *filt.retained, triple_count)
    if any(a >= b for a, b in zip(kept, kept[1:])):
        raise ValueError(f"retained {list(filt.retained)} is not increasing "
                         f"indices below {triple_count} triples")
    return filt


def _json_chunks(value, write, pad: str):
    """Pass the text json.dumps(value, indent=2) gives to `write`, in
    pieces; `pad` is the newline and indentation of value's own line.
    A callable leaf, from `_bundle_tree`, writes itself as
    value(write, pad); a dict that stands twice is written twice."""
    if callable(value):
        value(write, pad)
    elif isinstance(value, (list, tuple)):
        if not value:
            write("[]")
            return
        inner = pad + "  "
        if type(value) is list and set(map(type, value)) == {int}:
            # the repr of a list of ints is "[" + its items joined by
            # ", " + "]"
            write("[" + inner + repr(value)[1:-1].replace(", ", "," + inner)
                  + pad + "]")
            return
        sep = "[" + inner
        for item in value:
            write(sep)
            _json_chunks(item, write, inner)
            sep = "," + inner
        write(pad + "]")
    elif isinstance(value, dict):
        if not value:
            write("{}")
            return
        inner = pad + "  "
        sep = "{" + inner
        for key, item in value.items():
            write(sep + encode_basestring_ascii(key) + ": ")
            _json_chunks(item, write, inner)
            sep = "," + inner
        write(pad + "}")
    else:
        write(json.dumps(value))


def _zeros(nvars: int, pad: str) -> str:
    """The entries of an all-zero exponent vector whose entries stand at
    `pad`: "0" each, joined by "," + pad, so entry k is at
    k * (len(pad) + 2)."""
    return ("," + pad).join("0" * nvars)


def _polys_chunks(gens, nvars: int, texts: dict, write, pad: str):
    """Pass json.dumps of the polynomials, indent=2, at `pad` to `write`,
    one piece per polynomial: each is the list of its terms
    [exponents, [num, den]], the exponent vector dense over `nvars`
    variables, one or more, as every ring here has.  The exponents are
    ints, so each vector is the all-zero text with the entries of its
    pairs written in.  An EquationList's zero slots and witness are
    written from `allowed`, the witness one row text per slot row joined
    once per Leibniz term, never expanded.  Its `rest` goes through
    `texts`, as in `EquationList.write`, but a text is kept with its pad
    and made again when the pad changes: the report writes its copies
    of a presentation one after the other, each at its own depth, so the
    dict holds one copy's texts at a time."""
    if not gens:
        write("[]")
        return
    p1, p2, p3, p4 = (pad + "  " * k for k in range(1, 5))
    # a term is [exponents, [num, den]]: the exponents stand between
    # `head` and `coeff`, then num and den, then `shut`
    head = "[" + p3 + "[" + p4
    coeff = p3 + "]," + p3 + "[" + p4
    shut = p3 + "]" + p2 + "]"
    zeros = _zeros(nvars, p4)
    step = len(p4) + 2

    def text(f):
        if f.is_zero():
            return "[]"
        out, lead = [], "[" + p2
        for mono, c in f.sorted_terms():
            out += lead, head
            at = 0
            for k, e in _pairs(mono):
                out += zeros[at:k * step], str(e)
                at = k * step + 1
            out += zeros[at:], coeff, f"{c.numerator},{p4}{c.denominator}", shut
            lead = "," + p2
        return "".join(out) + p1 + "]"

    sep = "[" + p1
    shared = None
    if type(gens) is EquationList:
        for v in gens.zero_slots():
            write(f"{sep}[{p2}{head}{zeros[:v * step]}1{zeros[v * step + 1:]}"
                  f"{coeff}1,{p4}1{shut}{p1}]")
            sep = "," + p1
        # the exponent of Z is the last, always 1, as is each den; a slot
        # row with its 1 in column c is the zero row with "1" written in
        row = _zeros(len(gens.allowed), p4) + "," + p4
        ends = (f"1{coeff}1,{p4}1{shut},{p2}", f"1{coeff}-1,{p4}1{shut},{p2}")
        write(f"{sep}[{p2}")
        for first, parity, tails in _leibniz(gens.allowed, lambda i, c: (
                row[:c * step] + "1" + row[c * step + 1:],), ()):
            for tail, p in tails:
                write("".join([head, *first, *tail, ends[parity ^ p]]))
        write(f"{head}{zeros}{coeff}-1,{p4}1{shut}{p1}]")
        sep = "," + p1
        gens, shared = gens.rest, texts
    for f in gens:
        if shared is None:
            write(sep + text(f))
        else:
            kept = shared.get(id(f))
            if kept is None or kept[1] != pad:
                kept = shared[id(f)] = (f, pad, text(f))
            write(sep + kept[2])
        sep = "," + p1
    write(pad + "]")


def _report_chunks(value_of, write):
    """Pass a report's text to `write`, in pieces: the top-level object
    with value_of(key) under each key, in the schema's order.  Each
    value_of(key) is asked for once the key's own text is written."""
    sep = "{\n  "
    for key in ("schema", "problem", "validation", "weight_symmetries",
                "presentation", "stabilizer", "filter", "timing"):
        write(f'{sep}"{key}": ')
        _json_chunks(value_of(key), write, "\n  ")
        sep = ",\n  "
    write("\n}\n")


def report_to_text(bundle: ResultBundle) -> str:
    """The report as JSON with two-space indentation, the bytes of
    json.dumps(tree, indent=2) plus a newline, tree the report's tree
    with each polynomial's terms as in `_polys_chunks`."""
    return _joined(_report_chunks, _bundle_tree(bundle).__getitem__)


def _write_file(path, render, value):
    """render(value, write) to the file at `path`, in blocks of 64 KiB or
    more, so the text is never held whole.  The file is opened for the
    first block: a render that fails before it leaves the file as it was.
    If the render or a write fails after, the file is closed, removed if
    `path` is a regular file, never a pipe, a device or a link such as
    /dev/stdout, and the error goes on."""
    fh = regular = None

    def sink(text):
        nonlocal fh, regular
        if fh is None:
            fh = open(path, "w", encoding="utf-8")
            regular = stat.S_ISREG(os.lstat(path).st_mode)
        fh.write(text)

    write, flush = _blocks(sink)
    try:
        render(value, write)
        flush()
        if fh is not None:
            fh.close()
    except BaseException:
        if fh is not None:
            with suppress(OSError):
                fh.close()
            if regular:
                os.remove(path)
        raise


def write_report(bundle: ResultBundle, path):
    """Write report_to_text(bundle) to `path`; see `_write_file`."""
    _write_file(path, _report_chunks, _bundle_tree(bundle).__getitem__)


def read_report(path) -> ResultBundle:
    """The bundle that the report file at `path` holds; the file is read
    as it is compared, never whole.  See `_checked_report`."""
    with open(path, "rb") as fh:
        return _checked_report(fh)


def report_from_text(text: str) -> ResultBundle:
    """The bundle that a report's text holds, as `read_report` reads it."""
    return _checked_report(io.BytesIO(text.encode("utf-8", "surrogatepass")))


def _checked_report(src) -> ResultBundle:
    """The bundle that the report in `src`, a binary stream at its
    start, holds.

    Only the values of "schema", "problem" and "filter" are parsed, by
    json.  The filter is read, not recomputed: `autxhat --w` and
    `--mode` filter by a class and faces other than the problem's, and
    the report records neither option.  A non-null "validation",
    "presentation" or "stabilizer" and a non-empty "weight_symmetries"
    are computed again from the problem by `validation.Stages`, the
    command line's pipeline, behind the same gates.  The writer's text
    of the result is compared with `src` in blocks of 64 KiB or more,
    each block flushed before a key's value is asked for, so that value
    is read where it stands and neither text is held whole.  Anything
    but that text, byte for byte, raises InputError at the line and
    column of the first byte that differs: a changed byte, an early end,
    trailing text, or a compact or hand-edited layout of the same
    values."""
    read, tell, seek = src.read, src.tell, src.seek
    fields = {}  # the ResultBundle's, as its sections are reached
    stages = None

    def fail(at: int, message: str):
        raise InputError([(*_byte_line_col(src, at), message)])

    def compare(piece: str):
        want = piece.encode()
        got = read(len(want))
        if got != want:
            i = next((i for i, (a, b) in enumerate(zip(want, got)) if a != b),
                     len(got))
            at = tell() - len(got) + i
            if i == len(got):
                fail(at, f"report ends early: expected {piece[i]!r}")
            found = repr(chr(got[i])) if got[i] < 0x80 else f"byte {got[i]:#x}"
            fail(at, "report differs from its recomputation: expected "
                 f"{piece[i]!r}, found {found}")

    def ahead(text: bytes) -> bool:
        at = tell()
        found = read(len(text))
        seek(at)
        return found == text

    def parsed(decode, *args):
        """decode(the JSON value at the stream's position, *args).  The
        value is read up to the first line that starts with "  }",
        where the writer closes a top-level object, and the stream is
        left where it was."""
        at = tell()
        lines = [src.readline()]
        while lines[-1] and not lines[-1].startswith(b"  }"):
            lines.append(src.readline())
        seek(at)
        text = b"".join(lines).decode("utf-8", "surrogateescape")
        try:
            data = json.JSONDecoder().raw_decode(text)[0]
        except json.JSONDecodeError as exc:
            fail(at + len(text[:exc.pos].encode("utf-8", "surrogateescape")),
                 f"not valid JSON: {exc.msg}")
        except ValueError:  # json's int() refused a number as too long
            fail(at, "malformed report: " + _long_integer_message())
        except RecursionError:  # json's scanner takes one call per level
            fail(at, "malformed report: arrays or objects nested too deeply")
        try:
            return decode(data, *args)
        except KeyError as exc:
            fail(at, f"report has no key {exc.args[0]!r}")
        except (TypeError, ValueError, AttributeError, StructuralError) as exc:
            fail(at, f"malformed report: {exc}")

    write, flush = _blocks(compare)

    def value_of(key: str):
        nonlocal stages
        flush()
        if key == "schema":
            found = parsed(lambda data: data)
            if found != SCHEMA:
                fail(tell(), f"unsupported report schema {found!r}; this "
                     f"build reads {SCHEMA!r}")
            return SCHEMA
        if key == "problem":
            fields["problem"] = parsed(_decode_problem)
            ring = fields["problem"].ring()
            stages = Stages(ring, fields["problem"].ideal(ring))
        elif key == "validation" and not ahead(b"null"):
            fields["report"] = stages.report
        elif key == "weight_symmetries" and not ahead(b"[]"):
            fields["weight_auts"] = stages.displays
        elif key in ("presentation", "stabilizer") and not ahead(b"null"):
            fields[key] = getattr(stages, key)
        elif key == "filter" and not ahead(b"null"):
            exported = fields.get("stabilizer", fields.get("presentation"))
            fields["filter_result"] = parsed(
                _decode_filter, stages.ring.grading,
                0 if exported is None else len(exported.triples))
        return _bundle_tree(ResultBundle(**fields))[key]

    _report_chunks(value_of, write)
    flush()
    if read(1):
        fail(tell() - 1, "text after the end of the report")
    return ResultBundle(**fields)


# --- script export -----------------------------------------------------

def export_cas_script(bundle: ResultBundle) -> str:
    """A ready-to-run singular-like script declaring the slot ring and
    every equation list, with dimension and absolute-decomposition
    commands at the end.  The output is a pure function of the bundle."""
    return _joined(write_cas_script, bundle)


def write_cas_script(bundle: ResultBundle, write):
    """Pass export_cas_script(bundle) to `write` in pieces, each
    equation list as `EquationList.write` writes it."""
    pres = bundle.stabilizer or bundle.presentation
    if pres is None:
        raise ValidationError("bundle carries no presentation to export")
    items = list(enumerate(t.ideal for t in pres.triples))
    if bundle.filter_result is not None:
        keep = set(bundle.filter_result.retained)
        items = [(i, gens) for i, gens in items if i in keep]
    n = pres.n
    names = pres.slot_names()
    texts = {}  # the shared generators' text, see EquationList.write
    write("// automorphism equations, singular-like dialect\n"
          f"// {len(items)} weight symmetries, matrix size {n}\n"
          'LIB "primdec.lib";\n'
          f"ring Sp = 0,(Y(1..{n * n}),Z),dp;\n")
    for pos, (orig, gens) in enumerate(items, start=1):
        write(f"\n// triple {orig + 1} of the full list\nideal J{pos} = ")
        gens.write(names, write, ",\n  ", texts)
        write(";\n")
    if items:
        ideal_names = [f"J{pos}" for pos in range(1, len(items) + 1)]
        joined = (ideal_names[0] if len(ideal_names) == 1
                  else "intersect(" + ",".join(ideal_names) + ")")
        write(f"\nideal J = {joined};\n"
              + "".join(f"dim(std({name}));\n" for name in ideal_names)
              + "dim(std(J));\nlist absJ = absPrimdecGTZ(J);\nabsJ;\n")
