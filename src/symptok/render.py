"""JSON and ASCII forms of every object family.

JSON shapes (the CLI reads and writes exactly these):

  tableau   {"family": "t"|"st"|"qt", "shape": [...],
             "rows": [[{"level":k,"barred":b,"primed":p}, ...], ...]}
  uasm      [[-1|0|1, ...], ...]                       (bare 2n x m array)
  cpm       [["WE"|"NS"|..., ...], ...]
  gtp       {"n": n, "rows": [[...], ...]}             (rows bottom to top)

ASCII uses a trailing '-' for barred letters and a trailing apostrophe for
primes (safe in any terminal); shifted rows are indented, patterns staggered.
"""

from __future__ import annotations

import json
from typing import List, Tuple, Union

from .matrices import (CPM_CODES, CompassPointMatrix, SympGTPattern, UTurnASM,
                       _check_gtp_rows)
from .shapes import letter, letter_barred, letter_level, letter_str
from .tableaux import PrimedShiftedTableau, ShiftedTableau, SymplecticTableau

AnyObject = Union[SymplecticTableau, ShiftedTableau, PrimedShiftedTableau,
                  UTurnASM, CompassPointMatrix, SympGTPattern]


class InputFormatError(ValueError):
    """The JSON document does not describe any known object."""


# -- JSON ---------------------------------------------------------------------


#: The "family" tag of each tableau kind in JSON.
_TABLEAU_TAGS = {SymplecticTableau: "t", ShiftedTableau: "st", PrimedShiftedTableau: "qt"}


def _tableau_cells(obj) -> Tuple[Tuple[int, ...], List[List[Tuple[int, bool]]]]:
    """The shape and the rows of (letter, primed) cells of any tableau kind."""
    if isinstance(obj, PrimedShiftedTableau):
        return obj.base.shape, [list(zip(row, flags))
                                for row, flags in zip(obj.base.rows, obj.primed)]
    return obj.shape, [[(c, False) for c in row] for row in obj.rows]


def to_json_data(obj: AnyObject):
    if type(obj) in _TABLEAU_TAGS:
        shape, rows = _tableau_cells(obj)
        return {
            "family": _TABLEAU_TAGS[type(obj)],
            "shape": list(shape),
            "rows": [[{"level": letter_level(c), "barred": letter_barred(c), "primed": p}
                      for c, p in row] for row in rows],
        }
    if isinstance(obj, (UTurnASM, CompassPointMatrix)):
        return [list(row) for row in obj.entries]
    if isinstance(obj, SympGTPattern):
        return {"n": obj.n, "rows": [list(r) for r in obj.rows]}
    raise TypeError(f"cannot serialise {type(obj).__name__}")


def to_json(obj: AnyObject) -> str:
    return json.dumps(to_json_data(obj), indent=2)


def _parse_tableau(data: dict) -> AnyObject:
    family, shape = data.get("family"), data["shape"]
    if not (isinstance(shape, list) and all(type(p) is int for p in shape)):
        raise InputFormatError(f"tableau shape must be an array of integers, got {shape!r}")
    if not (isinstance(data["rows"], list)
            and all(isinstance(r, list) for r in data["rows"])):
        raise InputFormatError("tableau rows must be an array of arrays")
    shape = tuple(shape)
    rows: List[List[int]] = []
    primes: List[List[bool]] = []
    for row in data["rows"]:
        codes, flags = [], []
        for cell in row:
            # type() rather than truth: the string "no" would read as barred
            if not (isinstance(cell, dict) and type(cell.get("barred")) is bool
                    and type(cell.get("primed", False)) is bool):
                raise InputFormatError(f"tableau cell must be an object whose barred and "
                                       f"primed flags are true or false, got {cell!r}")
            if type(cell.get("level")) is not int or cell["level"] < 1:
                raise InputFormatError(f"letter level must be a positive integer, "
                                       f"got {cell.get('level')!r}")
            codes.append(letter(cell["level"], cell["barred"]))
            flags.append(cell.get("primed", False))
        rows.append(codes)
        primes.append(flags)
    base_rows = tuple(tuple(r) for r in rows)
    if family in ("t", "st") and any(f for row in primes for f in row):
        raise InputFormatError(f"a {family!r} tableau has no primed cells; "
                               "primes belong to 'qt' tableaux")
    if family == "t":
        return SymplecticTableau(shape, base_rows)
    if family == "st":
        return ShiftedTableau(shape, base_rows)
    if family == "qt":
        return PrimedShiftedTableau(
            ShiftedTableau(shape, base_rows),
            tuple(tuple(p) for p in primes),
        )
    raise InputFormatError(f"unknown tableau family {family!r}")


def from_json_data(data) -> AnyObject:
    """Detect and build the object a JSON document describes."""
    if isinstance(data, list):
        if not data or not all(isinstance(r, list) for r in data):
            raise InputFormatError("matrix must be a nonempty array of arrays")
        if len(data) % 2:
            raise InputFormatError("matrix must have 2n rows")
        if len({len(r) for r in data}) != 1:
            raise InputFormatError("matrix rows must have equal length")
        rows = tuple(tuple(r) for r in data)
        # type() rather than isinstance(): JSON true/false and 1.0 are no entries
        if all(type(v) is int and v in (-1, 0, 1) for row in rows for v in row):
            return UTurnASM(rows)
        if all(isinstance(v, str) and v in CPM_CODES for row in rows for v in row):
            return CompassPointMatrix(rows)
        raise InputFormatError("array entries are neither -1/0/1 integers nor compass codes")
    if isinstance(data, dict):
        if "shape" in data and "rows" in data:
            return _parse_tableau(data)
        if "n" in data and "rows" in data:
            rows = data["rows"]
            if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
                raise InputFormatError("pattern rows must be an array of arrays")
            if any(type(v) is not int for v in [data["n"], *(v for r in rows for v in r)]):
                raise InputFormatError("pattern n and entries must be integers")
            # the rows fix the rank, so "n" must agree, and each level its lengths
            _check_gtp_rows(data["n"], rows)
            return SympGTPattern(tuple(tuple(r) for r in rows))
    raise InputFormatError("unrecognised object layout")


def from_json(text: str) -> AnyObject:
    return from_json_data(json.loads(text))


# -- ASCII ---------------------------------------------------------------------


def _grid(rows: List[List[str]], width: int, indents: List[int]) -> str:
    lines = []
    for indent, row in zip(indents, rows):
        lines.append(" " * indent + "".join(s.ljust(width) for s in row).rstrip())
    return "\n".join(lines)


def tableau_ascii(obj: Union[SymplecticTableau, ShiftedTableau,
                             PrimedShiftedTableau]) -> str:
    rows = [[letter_str(c, p) for c, p in row] for row in _tableau_cells(obj)[1]]
    shifted = not isinstance(obj, SymplecticTableau)
    width = max((len(s) for row in rows for s in row), default=1) + 1
    indents = [i * width if shifted else 0 for i in range(len(rows))]
    return _grid(rows, width, indents)


def _labelled(lines: List[str], codes) -> str:
    """Each line after the letter whose row it shows, in the order of codes."""
    labels = [letter_str(i) for i in codes]
    lw = max(len(s) for s in labels)
    return "\n".join(f"{lab:<{lw}} {line}" for lab, line in zip(labels, lines))


def uasm_ascii(a: UTurnASM) -> str:
    return _labelled([f"[{' '.join(f'{v:>2}' for v in row)} ]" for row in a.entries],
                     range(1, 2 * a.n + 1))


def cpm_ascii(c: CompassPointMatrix) -> str:
    return _labelled([f"[ {' '.join(row)} ]" for row in c.entries],
                     range(1, 2 * c.n + 1))


def gtp_ascii(g: SympGTPattern) -> str:
    width = max(len(str(v)) for row in g.rows for v in row) + 2
    rows = [[str(v) for v in row] for row in reversed(g.rows)]
    indents = [i * (width // 2) for i in range(len(rows))]
    body = [" " + line for line in _grid(rows, width, indents).split("\n")]
    return _labelled(body, range(2 * g.n, 0, -1))


def to_ascii(obj: AnyObject) -> str:
    if isinstance(obj, (SymplecticTableau, ShiftedTableau, PrimedShiftedTableau)):
        return tableau_ascii(obj)
    if isinstance(obj, UTurnASM):
        return uasm_ascii(obj)
    if isinstance(obj, CompassPointMatrix):
        return cpm_ascii(obj)
    if isinstance(obj, SympGTPattern):
        return gtp_ascii(obj)
    raise TypeError(f"cannot render {type(obj).__name__}")
