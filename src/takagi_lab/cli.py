"""Command-line front end.

Subcommands map one-to-one onto library operations: ``eval``,
``enclose``, ``slopes``, ``neighbors``, ``measure``, ``lemma``,
``blowup``, ``classify``, ``refute``, ``sample`` and ``verify-all``.
Each subcommand has one handler (``lemma`` and ``blowup`` share one)
and takes only the shared flags that handler reads:

* ``--format text|json``: every subcommand except ``sample``, which
  always writes UTF-8 CSV with a header row;
* ``--approx``: ``eval``, ``enclose``, ``measure`` and ``sample``; it
  adds decimal convenience values that are explicitly non-authoritative.

All machine output is exact: JSON carries rationals as ``"p/q"``
strings under a versioned ``"schema": "takagi-lab/1"`` key, in the bytes
``json.dumps(tree, indent=2)`` writes for the tree of the reference
serializer in ``tests/oracles.py``; the ``--approx`` decimals under
``"approx"`` are the only floats.  Only this module writes report data:
JSON (:func:`_json`) and text (:func:`_text_lines`), in one pass, no tree.

One table, ``_COMMANDS``, is the spec of the argv, and a flag spec that
several subcommands take is one object named beside it.  A named
subcommand's plain arguments (each flag spelled in full, as ``--flag value``
or a bare ``--approx``/``--classical``) are read from it (:func:`_plain_args`);
any other argv goes through one ``parse_known_args`` of the top-level
argparse parser built from it (:func:`_build_parser`), which prints help and
reports usage errors.

Exit codes: 0 on success or a certified outcome, 2 when a verification
came back undecided (or a corpus run has failures), 1 on usage or
precondition errors, on an integer argument too large to compute with,
on an exact result too long to print, on a query over its cell budget
(a lemma's too) or past ``MEASURE_DEPTH_MAX``, on a failed internal
invariant and when memory runs out, each reported as one ``error:`` line.
``verify-all`` runs its entries in order in one process; its ``--jobs``
must be 1.
"""

from __future__ import annotations

import functools
import re
import sys
from _json import encode_basestring_ascii
from collections.abc import Iterator
from enum import Enum
from fractions import Fraction
from math import gcd, isfinite
from types import SimpleNamespace

from . import analysis, measure
from .exactnum import (_join, _to_fraction, check_printable, dyadic_neighbors,
                       format_dyadic, format_rat, format_ratio, is_dyadic, parse_rat)
from .takagi import (DEFAULT_DEPTH, _enclosure_nums, _grid_nums, slope_seq,
                     takagi_enclosure, takagi_exact)

SCHEMA = "takagi-lab/1"

# Largest ``measure --depth``.  At alpha = 1/2 a query's time grows about as
# depth**2.3, and the widest window (r = 1/2) takes about 1.2 s at depth 1024;
# at other slopes the cells visited can grow about as 2**(depth/2) (x = 1/3,
# r = 1/4, alpha = -1, LE), until the cell budget stops the query.
# Lemma certificates run their own queries through ``measure.certify_lower``,
# unbounded here; a blow-up runs none.
MEASURE_DEPTH_MAX = 1024


class _UsageError(Exception):
    pass


# a negative rational like -3/5, which passes as an option value
_NEGATIVE_NUMBER = re.compile(r"^-\d+(/\d+)?$")


def _parse_dyadic(text: str) -> Fraction:
    value = parse_rat(text)
    if not is_dyadic(value):
        raise ValueError(f"{text!r} is not dyadic (denominator must be a power of two)")
    return value


# check kind -> (centre parser, report function, k), for ``lemma``, ``blowup``
# and corpus entries, whose report at scale n prints ``2**-(n + k)``; the
# report function is looked up on ``analysis`` per call, so a patched one runs
_CHECKS = {
    "lemma": (parse_rat, lambda x, n: analysis.verify_lemma(x, n), 5),
    "blowup": (_parse_dyadic, lambda x, n: analysis.blowup_check(x, n), 2),
}


def _emit_json(command: str, result, approx=None) -> str:
    # a verify-all run keeps its fields at the top level
    payload = {"schema": SCHEMA, "command": command,
               **(result if command == "verify-all" else {"result": result})}
    if approx is not None:
        payload["approx"] = {key: _Approx(value) for key, value in approx.items()}
    return _json(payload)


class _Approx(float):
    """An ``--approx`` value: the one kind of float :func:`_json` writes."""


# record type -> its field names as JSON strings, filled the first time _json meets one
_KEYS: dict[type, tuple[str, ...]] = {}


def _json(node, pad: str = "\n") -> str:
    """``json.dumps(tree, indent=2)`` for the reference serializer's tree of ``node``, at
    the indent ``pad`` ends with, written in one pass over ``node``.

    The exact types of report data are written directly: ``str``, ``int``, ``bool`` and
    None as they are, a ``Fraction`` as ``"p/q"``, a record (named tuple) as an object of
    its fields, a ``dict`` as an object (a key that is no ``str`` raises ``TypeError``),
    a ``list`` or ``tuple`` as an array (of plain ints in one join) and an ``Enum``
    member as its value.  Any other type, a float or a subclass of one of those among
    them, raises ``TypeError("cannot serialize <type name> exactly")``.  Only an
    :class:`_Approx` is written as a JSON number; a NaN or an infinity (no JSON form)
    raises ``ValueError``.  Strings go through the C escaper of ``_json``, which
    ``json.encoder`` re-exports; importing it from ``_json`` leaves the ``json`` package
    unloaded.
    """
    cls = type(node)
    if cls is str:
        return encode_basestring_ascii(node)
    if cls is Fraction:
        return f'"{_join(node.numerator, node.denominator)}"'
    if cls is int:
        return repr(node)
    if cls is bool or node is None:
        return "null" if node is None else "true" if node else "false"
    inner = pad + "  "
    keys = _KEYS.get(cls)
    # only a tuple is probed for _fields: on an Enum it is a slow EnumType.__getattr__
    if keys is None and issubclass(cls, tuple) and hasattr(cls, "_fields"):
        keys = _KEYS[cls] = tuple(map(encode_basestring_ascii, cls._fields))
    if keys is not None:
        items, ends = [f"{key}: {_json(value, inner)}" for key, value in zip(keys, node)], "{}"
    elif cls is dict:
        items, ends = [f"{encode_basestring_ascii(key)}: {_json(value, inner)}"
                       for key, value in node.items()], "{}"
    elif cls is list or cls is tuple:  # a list of plain ints (slope sums) skips the call per item
        items, ends = ([*map(repr, node)] if all(type(item) is int for item in node)
                       else [_json(item, inner) for item in node]), "[]"
    elif cls is _Approx:
        if not isfinite(node):
            raise ValueError(f"{node!r} has no JSON form")
        return float.__repr__(node)
    elif isinstance(node, Enum):
        return _json(node.value, pad)
    else:
        raise TypeError(f"cannot serialize {cls.__name__} exactly")
    return f"{ends[0]}{inner}{(',' + inner).join(items)}{pad}{ends[1]}" if items else ends


def _text_lines(result) -> list[str]:
    """One ``label: value`` line per leaf of ``result``, in the order :func:`_json` writes.

    Records are walked by their fields, dicts by their items and lists and tuples by
    index, and a label joins the keys on the way with dots; an empty container prints no
    line, a leaf ``str`` of its JSON value and a ``result`` that is a leaf one unlabelled
    line.  Any other leaf type, a float among them, raises the ``TypeError`` of ``_json``.
    """
    out: list[str] = []

    def walk(label: str | None, node) -> None:
        cls = type(node)
        if cls is dict:
            items = node.items()
        elif cls is list or cls is tuple:
            items = enumerate(node)
        elif issubclass(cls, tuple) and hasattr(cls, "_fields"):
            items = zip(cls._fields, node)
        else:  # a leaf
            if isinstance(node, Enum):
                return walk(label, node.value)
            if cls is Fraction:
                node = _join(node.numerator, node.denominator)
            elif not (cls is str or cls is int or cls is bool or node is None):
                raise TypeError(f"cannot serialize {cls.__name__} exactly")
            out.append(f"{node}" if label is None else f"{label}: {node}")
            return
        prefix = "" if label is None else f"{label}."
        for key, value in items:
            walk(f"{prefix}{key}", value)

    walk(None, result)
    return out


def _emit(args, result, *, text=_text_lines, approx=None) -> None:
    """Print ``result``: the JSON envelope with ``--format json``, else ``text(result)``.

    ``approx`` holds the non-authoritative decimals: JSON carries them under
    ``"approx"``, and each handler's text renderer shows them its own way.
    """
    if args.fmt == "json":
        print(_emit_json(args.command, result, approx))
    else:
        for line in text(result):
            print(line)


def sample_rows(a, b, count: int, depth: int,
                *, approx: bool = False, classical: bool = False) -> Iterator[list[str]]:
    """Enclosure rows "y,lo,hi" at equally spaced points of the dyadic range [a, b].

    The arguments are checked at the call; each row is then computed from
    integers as it is read.  A dyadic step puts every point on the level-m
    grid, ``m`` the least level that holds ``a`` and the step, where ``T`` is
    exact.  With the step ``s/2**m`` and ``s <= m``, the rows walk that grid
    (:func:`takagi._grid_nums`): ``s`` integer steps per row, no more than
    Horner's rule takes at level ``m``, and each value reduced by its trailing
    zeros.  Any other grid runs Horner's rule on the orbit of each point
    ``y_i = (top + i*inc) / den``, on one common denominator.  A classical row
    is ``2*T(y/2)`` (:mod:`takagi`): the walk at level ``m + 1``, or twice ``y/2``'s
    enclosure at ``depth + 1``.
    """
    a, b = _to_fraction(a), _to_fraction(b)
    if not (is_dyadic(a) and is_dyadic(b)):
        raise ValueError(f"sample range [{a}, {b}] must have dyadic ends")
    if not a < b:
        raise ValueError("need a < b")
    if count < 2:
        raise ValueError("need at least two sample points")
    if depth < 1:
        raise ValueError("enclosure depth must be positive")
    step = (b - a) / (count - 1)
    if is_dyadic(step):
        m = max(a.denominator, step.denominator).bit_length() - 1
        s = step.numerator * (1 << m) // step.denominator
        if s <= m:  # s walk steps cost no more than Horner's rule
            k0 = a.numerator * (1 << m) // a.denominator

            def walk_row(k: int, num: int) -> list[str]:
                value = format_dyadic(num, m)
                cells = [format_dyadic(k, m), value, value]
                if approx:
                    cells.append(repr(num / (1 << m)))  # int division rounds correctly
                return cells

            return map(walk_row, range(k0, k0 + count * s, s),
                       _grid_nums(k0, s, count, m + classical))
    else:
        # a + step is then not dyadic: one end of its enclosure has a
        # denominator that is a multiple of 2**(depth + 1)
        check_printable(depth + 1)
    unit = max(a.denominator, b.denominator)  # a and b are multiples of 1/unit
    a_num, b_num = a.numerator * (unit // a.denominator), b.numerator * (unit // b.denominator)
    # y_i = a + i*(b - a)/(count - 1) = (top + i*inc) / den
    den, top, inc = unit * (count - 1), a_num * (count - 1), b_num - a_num

    def row(num: int) -> list[str]:
        common = gcd(num, den)
        p, q = num // common, den // common
        lo, hi, enc_den = _enclosure_nums(p, q << classical, depth + classical)
        enc_den >>= classical  # twice y/2's enclosure
        lo_text = format_ratio(lo, enc_den)
        cells = [_join(p, q), lo_text,
                 lo_text if hi == lo else format_ratio(hi, enc_den)]
        if approx:
            cells.append(repr((lo + hi) / (2 * enc_den)))  # int division rounds correctly
        return cells

    return map(row, range(top, top + count * inc, inc))


# -- corpus runner ----------------------------------------------------

def _parse_corpus(text: str, *, check_printable_reports: bool
                  ) -> list[tuple[int, str, str, object, int]]:
    """``(line number, kind, x as written, parsed x, n)`` for each entry line."""
    entries = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        try:
            if len(parts) != 3 or parts[0] not in _CHECKS:
                raise ValueError("want '<lemma|blowup> <x> <n>'")
            kind, x_text, n_text = parts
            parse, _, k = _CHECKS[kind]
            x, n = parse(x_text), int(n_text)
            if check_printable_reports:
                check_printable(n + k)
            entries.append((lineno, kind, x_text, x, n))
        except ValueError as exc:
            raise ValueError(f"corpus line {lineno}: {exc}") from None
    return entries


def _default_corpus() -> str:
    lines = [f"lemma {format_rat(x)} {n}"
             for x in analysis.NONDYADIC_CORPUS for n in range(2, 6)]
    for x in analysis.DYADIC_CORPUS:
        first = analysis._first_blowup_scale(x)
        lines.extend(f"blowup {format_rat(x)} {n}" for n in range(first, first + 4))
    return "\n".join(lines)


def _corpus_lines(outcome: dict) -> list[str]:
    results = outcome["results"]
    lines = [f"{r['index']:4d}  {r['kind']:6s}  x={r['x']:>10s}  "
             f"n={r['n']:<3d}  {r['status']}" for r in results]
    verdict = "all certified" if outcome["certified"] else "FAILURES PRESENT"
    lines.append(f"{verdict} ({len(results)} entries)")
    return lines


def _verify_all(args) -> int:
    if args.jobs != 1:
        raise ValueError(f"--jobs must be 1 (entries run in one process), got {args.jobs}")
    if args.corpus is not None:
        with open(args.corpus, encoding="utf-8") as corpus:
            text = corpus.read()
    else:
        text = _default_corpus()
    results = []
    # only JSON output carries the reports; text shows their statuses
    entries = _parse_corpus(text, check_printable_reports=args.fmt == "json")
    if not entries:  # only a corpus file can have none
        raise ValueError(f"corpus {args.corpus} has no entries")
    for index, (lineno, kind, x_text, x, n) in enumerate(entries):
        try:
            report = _CHECKS[kind][1](x, n)
        except (ValueError, OverflowError, RuntimeError) as exc:
            raise ValueError(f"corpus line {lineno}: {exc}") from None
        results.append({"index": index, "kind": kind, "x": x_text, "n": n,
                        "status": report.status, "report": report})
    all_ok = all(r["status"] == measure.CERTIFIED for r in results)
    _emit(args, {"certified": all_ok, "results": results}, text=_corpus_lines)
    return 0 if all_ok else 2


# -- subcommand handlers ----------------------------------------------

def _eval(args) -> int:
    x = parse_rat(args.x)
    if not is_dyadic(x):
        raise ValueError(f"{args.x!r} is not dyadic; use 'enclose' for general rationals")
    value = takagi_exact(x, classical=args.classical)
    approx = {"value": float(value)} if args.approx else None
    suffix = f"  (~{approx['value']})" if approx else ""
    _emit(args, {"x": x, "value": value},
          text=lambda _: [f"{format_rat(value)}{suffix}"], approx=approx)
    return 0


def _enclose(args) -> int:
    x = parse_rat(args.x)
    if not is_dyadic(x):
        # one end of the enclosure has a denominator that is a multiple of
        # 2**(depth + 1): the tail term's, unless G_depth(x) has it already
        check_printable(args.depth + 1)
    enc = takagi_enclosure(x, args.depth, classical=args.classical)
    approx = {"mid": float((enc.lo + enc.hi) / 2)} if args.approx else None
    suffix = f"  (~{approx['mid']})" if approx else ""
    _emit(args, {"x": x, "depth": args.depth, "lo": enc.lo, "hi": enc.hi},
          text=lambda _: [f"[{format_rat(enc.lo)}, {format_rat(enc.hi)}]{suffix}"],
          approx=approx)
    return 0


def _slopes(args) -> int:
    _emit(args, slope_seq(parse_rat(args.x), args.n),
          text=lambda seq: [" ".join(str(v) for v in seq.values)])
    return 0


def _neighbors(args) -> int:
    check_printable(args.n)  # x_n or y_n has denominator 2**n
    lo, hi = dyadic_neighbors(parse_rat(args.x), args.n)
    _emit(args, {"x_n": lo, "y_n": hi}, text=lambda _: [f"{format_rat(lo)} {format_rat(hi)}"])
    return 0


def _measure(args) -> int:
    if args.depth > MEASURE_DEPTH_MAX:
        raise ValueError(f"--depth must be at most {MEASURE_DEPTH_MAX}, got {args.depth}")
    query = measure.QuotientQuery(
        x=parse_rat(args.x),
        r=_parse_dyadic(args.r),
        alpha=parse_rat(args.alpha),
        direction=measure.Dir(args.dir),
        depth=args.depth,
    )
    left, right = measure.quotient_set_sides(query)
    bound = left + right
    approx = {"lo": float(bound.lo), "hi": float(bound.hi)} if args.approx else None
    approx_lines = [f"approx.{key}: {value}" for key, value in (approx or {}).items()]
    _emit(args, {"query": query, "bound": bound, "left": left, "right": right},
          text=lambda report: _text_lines(report) + approx_lines, approx=approx)
    return 0


def _check(args) -> int:
    """``lemma`` and ``blowup``: one check at (x, n), at the depth ``analysis`` sets."""
    parse, check, k = _CHECKS[args.command]
    x = parse(args.x)
    check_printable(args.n + k)
    report = check(x, args.n)
    _emit(args, report)
    return 0 if report.status == measure.CERTIFIED else 2


def _classify(args) -> int:
    _emit(args, analysis.classify(parse_rat(args.x), args.n))
    return 0


def _refute(args) -> int:
    evidence = analysis.refute(parse_rat(args.x), args.n)
    _emit(args, evidence)
    return 0 if evidence.status == measure.CERTIFIED else 2


def _sample(args) -> int:
    rows = sample_rows(_parse_dyadic(args.a), _parse_dyadic(args.b), args.count,
                       args.depth, approx=args.approx, classical=args.classical)
    # no field needs CSV quoting: each is "p/q", an int or a float's repr
    sys.stdout.write("y,lo,hi,approx\n" if args.approx else "y,lo,hi\n")
    sys.stdout.writelines(f"{','.join(row)}\n" for row in rows)
    return 0


# -- the argv spec ----------------------------------------------------

# The one spec of the argv: each subcommand's handler, help text and flags, which
# :func:`_plain_args` reads and :func:`_build_parser` builds argparse parsers from.
# A flag maps to (dest, type, default, required, choices, help); its type is None
# (the value as given), int, or bool for a bare flag that stores True.  A spec that
# more than one subcommand takes is written once, below, and named in each entry.
_FORMAT = ("fmt", None, "text", False, ("text", "json"), None)
_APPROX = ("approx", bool, False, False, None,
           "add non-authoritative decimal values to the output")
_X = ("x", None, None, True, None, None)
_N = ("n", int, None, True, None, None)
_HORIZON = ("n", int, None, True, None, "horizon N")
_CLASSICAL = ("classical", bool, False, False, None, None)
_COMMANDS = {
    "eval": (_eval, "exact T(x) at a dyadic point", {
        "--format": _FORMAT, "--approx": _APPROX, "--x": _X,
        "--classical": ("classical", bool, False, False, None,
                        "include the distance-to-integers term")}),
    "enclose": (_enclose, "certified enclosure of T(x)", {
        "--format": _FORMAT, "--approx": _APPROX, "--x": _X,
        "--depth": ("depth", int, DEFAULT_DEPTH, False, None, None),
        "--classical": _CLASSICAL}),
    "slopes": (_slopes, "slope sums G_1'(x)..G_N'(x)", {
        "--format": _FORMAT, "--x": _X, "--n": _HORIZON}),
    "neighbors": (_neighbors, "level-n grid neighbours around x", {
        "--format": _FORMAT, "--x": _X, "--n": _N}),
    "measure": (_measure, "certified measure bracket for a quotient level set", {
        "--format": _FORMAT, "--approx": _APPROX, "--x": _X,
        "--r": ("r", None, None, True, None, "dyadic radius"),
        "--alpha": ("alpha", None, None, True, None, None),
        "--dir": ("dir", None, None, True, ("ge", "le"), None),
        "--depth": ("depth", int, None, True, None, None)}),
    "lemma": (_check, "certify the one-scale measure estimate at (x, n)", {
        "--format": _FORMAT, "--x": _X, "--n": _N}),
    "blowup": (_check, "certify the quotient blow-up at a dyadic point", {
        "--format": _FORMAT, "--x": _X, "--n": _N}),
    "classify": (_classify, "horizon evidence about the slope sums at x", {
        "--format": _FORMAT, "--x": _X, "--n": _HORIZON}),
    "refute": (_refute, "emit certificates against approximate derivability", {
        "--format": _FORMAT, "--x": _X,
        "--n": ("n", int, 20, False, None, "horizon N")}),
    "sample": (_sample, "CSV enclosure samples of T on [a, b]", {
        "--approx": _APPROX,
        "--a": ("a", None, None, True, None, None),
        "--b": ("b", None, None, True, None, None),
        "--count": ("count", int, None, True, None, None),
        "--depth": ("depth", int, 20, False, None, None),
        "--classical": _CLASSICAL}),
    "verify-all": (_verify_all, "run a corpus of lemma/blowup checks", {
        "--format": _FORMAT,
        "--corpus": ("corpus", None, None, False, None, "file with '<kind> <x> <n>' lines"),
        "--jobs": ("jobs", int, 1, False, None, "must be 1: corpus entries run in one process")}),
}


def _plain_args(command: str, argv) -> SimpleNamespace | None:
    """The namespace the subcommand's argparse parser gives a plain ``argv``, else None.

    Read from ``_COMMANDS`` alone; ``argv`` holds str items only, as :func:`run`
    checks.  Plain: each flag spelled in full and, unless bare, followed by a value
    that passes its type and choices and starts with ``-`` only as a negative
    number; no required flag missing.  A repeated flag keeps its last value.
    """
    flags = _COMMANDS[command][2]
    values = {"command": command}
    items = iter(argv)
    for flag in items:
        spec = flags.get(flag)
        if spec is None:
            return None
        dest, kind, _, _, choices, _ = spec
        if kind is bool:
            values[dest] = True
            continue
        value = next(items, None)
        if value is None or value.startswith("-") and not _NEGATIVE_NUMBER.match(value):
            return None
        if kind is not None:
            try:
                value = kind(value)
            except ValueError:
                return None
        if choices is not None and value not in choices:
            return None
        values[dest] = value
    for dest, _, default, required, _, _ in flags.values():
        if required and dest not in values:
            return None
        values.setdefault(dest, default)
    return SimpleNamespace(**values)


@functools.cache
def _build_parser():
    """The top-level argparse parser and each subcommand's by name, from ``_COMMANDS``."""
    import argparse

    class Parser(argparse.ArgumentParser):
        """argparse variant that reports usage problems as exit code 1."""

        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self._negative_number_matcher = _NEGATIVE_NUMBER

        def error(self, message):
            self.print_usage(sys.stderr)
            raise _UsageError(message)

    # the module docstring's first line, written out: under -OO __doc__ is None
    parser = Parser(prog="takagi-lab", description="Command-line front end.")
    sub = parser.add_subparsers(dest="command", parser_class=Parser)
    for name, (_, summary, flags) in _COMMANDS.items():
        command = sub.add_parser(name, help=summary)
        command.set_defaults(command=name)
        for flag, (dest, kind, default, required, choices, help_text) in flags.items():
            how = {"action": "store_true"} if kind is bool else {"type": kind, "choices": choices}
            command.add_argument(flag, dest=dest, default=default, required=required,
                                 help=help_text, **how)
    return parser, sub.choices


def run(argv=None) -> int:
    """Parse and execute; returns the process exit code."""
    if argv is None:
        argv = sys.argv[1:]
    try:
        for item in argv:  # a command line yields only str; a library caller may not
            if not isinstance(item, str):
                raise _UsageError(f"argument {item!r} is not a string")
        args = _plain_args(argv[0], argv[1:]) if argv and argv[0] in _COMMANDS else None
        if args is None:  # argparse reads any other argv, and reports what is wrong
            parser, commands = _build_parser()
            args, extras = parser.parse_known_args(argv)
            if extras:  # a flag the subcommand does not take: show that subcommand's usage
                usage = commands.get(args.command, parser)
                usage.error(f"unrecognized arguments: {' '.join(extras)}")
            if args.command is None:
                parser.print_usage(sys.stderr)
                return 1
        return _COMMANDS[args.command][0](args)
    except (_UsageError, ValueError, OverflowError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:  # its message is often empty
        print("error: out of memory", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
