"""Command line front end.

Subcommands: report | eval | theta | twist | table. All reports are
built as dictionaries whose leaves are strings (numerics in decimal) or
booleans; the text renderer and --json both print that same dictionary,
so the two formats carry identical data. --json output is the text of
`json.dumps(report, ensure_ascii=False, indent=2)`, written by `_json`:
joins over the tree, with every key and string encoded by json's C
string encoder (`indent` would send dumps to its pure-Python encoder).

A plain argv is read straight from the parser's own actions
(`_read_plain`); argparse parses every other argv.
"""

from __future__ import annotations

import _thread
import argparse
import functools
import os
import sys

from . import classes as cl
from . import errors, expr, topology, twists
from .abelian import element_order
from .classes import FormalClass, Kappa1, Lambda, MU, ModuliContext, render_class

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_RANGE = 3
EXIT_INTERNAL = 4

# held by main from saving the int/str digit limit to restoring it
_MAIN_LOCK = _thread.allocate_lock()


def _use_color() -> bool:
    if os.environ.get("RSPIN_NO_COLOR"):
        return False
    return sys.stdout.isatty()


def _render_text(report: dict, color: bool) -> str:
    lines = []
    _render_into(report, lines, 0, color)
    return "\n".join(lines)


def _render_into(node, lines, depth, color):
    pad = "  " * depth
    for key, value in node.items():
        label = key.replace("_", " ")
        if isinstance(value, dict):
            head = f"{pad}{label}:"
            if color:
                head = f"\x1b[1m{head}\x1b[0m"
            lines.append(head)
            _render_into(value, lines, depth + 1, color)
        elif isinstance(value, list):
            lines.append(f"{pad}{label}:")
            for item in value:
                if isinstance(item, dict):
                    lines.append(f"{pad}  -")
                    _render_into(item, lines, depth + 2, color)
                elif isinstance(item, list):
                    lines.append(f"{pad}  - {' '.join(_scalar(x) for x in item)}")
                else:
                    lines.append(f"{pad}  - {_scalar(item)}")
        else:
            lines.append(f"{pad}{label}: {_scalar(value)}")


def _scalar(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    return str(v)


def _json(node, encode, pad: str = "") -> str:
    """`json.dumps(node, ensure_ascii=False, indent=2)` for a report tree
    of dicts with string keys, lists, strings and booleans, built by
    joins. Keys and strings go through encode, which is
    `json.encoder.encode_basestring`, the C function dumps calls for
    them; any other leaf raises TypeError."""
    if isinstance(node, str):
        return encode(node)
    if node is True:
        return "true"
    if node is False:
        return "false"
    inner = pad + "  "
    if isinstance(node, dict):
        if not node:
            return "{}"
        items = [f"{encode(key)}: {_json(value, encode, inner)}" for key, value in node.items()]
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "}"
    if isinstance(node, list):
        if not node:
            return "[]"
        items = [_json(item, encode, inner) for item in node]
        return "[\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "]"
    raise TypeError(f"Object of type {type(node).__name__} is not JSON serializable")


def _emit(report: dict, args) -> None:
    if args.json:
        from json.encoder import encode_basestring  # only --json output needs it

        print(_json(report, encode_basestring))
    else:
        print(_render_text(report, _use_color()))


def _context_dict(ctx: ModuliContext) -> dict:
    d = {
        "r": str(ctx.r),
        "g": str(ctx.g),
        "chi": str(ctx.chi),
        "nonempty": ctx.nonempty,
        "stable_h2_range": ctx.in_h2_range,
    }
    if ctx.eps is not None:
        d["eps"] = str(ctx.eps)
    if ctx.allow_unstable and not ctx.in_h2_range:
        d["banner"] = "UNVERIFIED (below stable range)"
    return d


def _presentation_dict(pres: cl.Presentation, r: int) -> dict:
    names = [render_class(g, r) for g in pres.generators]
    return {
        "generators": names,
        "relations": [
            [str(c) for c in pres.relations.row(i)] for i in range(pres.relations.rows)
        ],
        "rendered": pres.render(r),
    }


def _make_ctx(args) -> ModuliContext:
    """The one context of a query. Its genus range is checked before any
    other input, so every subcommand with --g fails in the same order."""
    ctx = ModuliContext(args.r, args.g, args.eps, allow_unstable=args.force)
    ctx.require_h2_range()
    return ctx


def cmd_report(args, max_digits) -> dict:
    ctx = _make_ctx(args)
    report = {"command": "report", "context": _context_dict(ctx)}
    report["u_r"] = str(ctx.u)

    table = {}
    symbols = [Lambda(ctx.r), Lambda(1), Kappa1(ctx.r), Kappa1(1)]
    if ctx.r % 2 == 0:
        symbols.append(MU)
    for sym in symbols:
        x = FormalClass.single(sym)
        table[render_class(x, ctx.r)] = str(cl.free_coordinate(ctx, x))
    report["divisibility"] = table

    if not ctx.nonempty:
        report["note"] = "moduli space is empty: groups omitted"
        return report

    pic = topology.picard_report(ctx)
    report["groups"] = {
        "h1": str(topology.h1_moduli(ctx)),
        "h2": str(pic["group"]),
    }
    if ctx.torsion_order > 1:
        t = cl.torsion_generator(ctx)
        phi = cl.phi_value(ctx, t)
        report["torsion"] = {
            "generator": render_class(t, ctx.r),
            "phi": str(phi),
            "order": str(element_order(24, phi)),
        }
    else:
        report["torsion"] = "trivial"
    report["presentation"] = _presentation_dict(pic["presentation"], ctx.r)
    report["picard"] = pic["isomorphisms"]
    return report


def cmd_eval(args, max_digits) -> dict:
    ctx = _make_ctx(args)
    x = expr.parse_class(args.expression, ctx.r, max_digits)
    coords = cl.canonical_coords(ctx, x)
    phi = cl.phi_value(ctx, x)
    report = {
        "command": "eval",
        "context": _context_dict(ctx),
        "expression": render_class(x, ctx.r),
        "d": str(coords.d),
        "tau": str(coords.tau),
        "phi": str(phi),
        "rational_multiple_of_lambda": str(cl.rational_multiple_of_lambda(ctx, x)),
    }
    if coords.d == 0:
        order = element_order(24, coords.tau)
        report["diagnosis"] = "zero class" if order == 1 else f"torsion of order {order}"
    else:
        report["diagnosis"] = "infinite order"
    return report


def cmd_theta(args, max_digits) -> dict:
    ctx = _make_ctx(args)
    image = twists.tors_map_image(ctx)
    h1 = twists.h1_theta(ctx, image)
    sub = twists.h2_theta_subgroup(ctx)
    report = {
        "command": "theta",
        "context": _context_dict(ctx),
        "h1": str(h1),
        "fiber_image": {
            "modulus": str(image.modulus),
            "generator": str(image.generator),
            "order": str(image.order),
        },
        "h2_subgroup": {
            "group": str(sub.group),
            "index": str(sub.index),
            "generators": [render_class(x, ctx.r) for x in sub.generators],
            "presentation": _presentation_dict(sub.presentation, ctx.r),
        },
    }
    note = twists.theta_g_dependence_note(ctx, image)
    if note:
        report["warning"] = note
    return report


def cmd_twist(args, max_digits) -> dict:
    ctx = _make_ctx(args)
    tw = twists.TwistInput(ctx, args.arf, args.beta)
    x = expr.parse_class(args.expression, ctx.r, max_digits)
    per_term, total = twists.twist_class(tw, x)
    report = {
        "command": "twist",
        "context": _context_dict(ctx),
        "expression": render_class(x, ctx.r),
        "beta_coefficient": str(args.beta),
        "terms": [
            {
                "symbol": cl.render_symbol(sym, ctx.r),
                "coefficient": str(c),
                "shift": str(s),
            }
            for sym, c, s in per_term
        ],
        "total_shift": f"{total} mod {ctx.r}",
    }
    return report


def cmd_table(args, max_digits) -> dict:
    if args.r_min > args.r_max:
        raise ValueError(f"empty range: --r-min {args.r_min} is greater than --r-max {args.r_max}")
    if args.r_min < 2:
        # u_r, and so every row, needs r >= 2
        raise ValueError("r must be >= 2")
    rows = []
    for r in range(args.r_min, args.r_max + 1):
        pi0, euler_index = topology.pi0_mtspin(r)
        rows.append(
            {
                "r": str(r),
                "u_r": str(cl.u_r(r)),
                "torsion": str(topology.pi1_mtspin(r)),
                "pi2_multiplier": str(topology.pi2_multiplier(r)),
                "pi0": str(pi0),
                "euler_image_index": str(euler_index),
            }
        )
    return {"command": "table", "rows": rows}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on the first call (the first
    `main`) and returned as is on every later call; `import rspin.cli`
    builds nothing. Parsing only reads it: each `parse_args` fills a new
    namespace, so one call's options and defaults never reach the next.
    `set_defaults(func=cmd_*)` binds each subcommand's function when the
    parser is built, so replacing a `cmd_*` function after the first
    `main` call has no effect. `build_parser.__wrapped__()` builds a
    fresh parser. The parser carries `plain_shapes`, the table that
    `_read_plain` reads, made from the same `Action` objects."""
    parser = argparse.ArgumentParser(
        prog="rspin",
        description="Stable Picard groups and characteristic classes of r-Spin moduli spaces.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p):
        return [
            p.add_argument("--r", type=int, required=True, help="the root order r >= 2"),
            p.add_argument("--g", type=int, required=True, help="the genus g >= 2"),
            p.add_argument("--eps", type=int, choices=(0, 1), help="Arf invariant (even r only)"),
            p.add_argument("--force", action="store_true", help="allow genera below the stable range"),
            p.add_argument("--json", action="store_true", help="emit JSON instead of text"),
        ]

    actions = {}

    p = sub.add_parser("report", help="full structure report for one moduli space")
    actions["report"] = common(p)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("eval", help="canonical coordinates of a class expression")
    actions["eval"] = common(p) + [
        p.add_argument("expression", help="class expression, e.g. '3*lambda(1/3) + lambda'"),
    ]
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("theta", help="theta-characteristic space data")
    actions["theta"] = common(p)
    p.set_defaults(func=cmd_theta)

    p = sub.add_parser("twist", help="shift of a class under twisting")
    actions["twist"] = common(p) + [
        p.add_argument("--arf", type=int, choices=(0, 1), help="Arf invariant of the base structure"),
        p.add_argument("--beta", type=int, required=True, help="coefficient of beta(D)"),
        p.add_argument("expression", help="class expression to twist"),
    ]
    p.set_defaults(func=cmd_twist)

    p = sub.add_parser("table", help="per-r batch table")
    actions["table"] = [
        p.add_argument("--r-min", type=int, required=True),
        p.add_argument("--r-max", type=int, required=True),
        p.add_argument("--json", action="store_true"),
    ]
    p.set_defaults(func=cmd_table)

    # what _read_plain reads: per subcommand, the namespace of defaults,
    # the options by exact string, the positional and the required dests
    parser.plain_shapes = {
        name: (
            {sub.dest: name, **{a.dest: a.default for a in acts}, "func": sub.choices[name].get_default("func")},
            {s: a for a in acts for s in a.option_strings},
            next((a for a in acts if not a.option_strings), None),
            {a.dest for a in acts if a.required},
        )
        for name, acts in actions.items()
    }
    return parser


def _read_plain(argv):
    """The namespace `build_parser().parse_args(argv)` returns, read
    straight from the subcommand's actions, when argv has the plain
    shape: a subcommand name, then only exact option strings each
    followed by a value that does not start with "-", store_true flags,
    and the one positional, with every value that `type` accepts and
    in `choices` and every required option given. Any other argv gives
    None and is left to argparse, so every usage error, help text and
    exit code stays argparse's own."""
    shape = build_parser().plain_shapes.get(argv[0]) if argv else None
    if shape is None:
        return None
    defaults, options, positional, required = shape
    values = {}
    tokens = iter(argv[1:])
    for token in tokens:
        action = options.get(token)
        if action is None:
            if positional is None or positional.dest in values:
                return None
            action, value = positional, token
        elif action.nargs == 0:
            values[action.dest] = action.const
            continue
        else:
            value = next(tokens, None)
            if value is None:
                return None
        if value.startswith("-"):
            return None
        if action.type is not None:
            try:
                value = action.type(value)
            except (TypeError, ValueError):
                return None
        if action.choices is not None and value not in action.choices:
            return None
        values[action.dest] = value
    if not required <= values.keys():
        return None
    return argparse.Namespace(**{**defaults, **values})


def main(argv=None) -> int:
    """Run one query. argv is parsed under the interpreter's int/str digit
    limit, where it has one, which bounds the input; the subcommand gets
    the limit too, and holds the integer literals of an expression to
    it. The answer may have more digits (chi = 2 - 2g, r^2), so the
    query and its output run without the limit, and it is restored
    before main returns. The limit is process-wide: main calls run one
    at a time, and while one runs the limit is lifted for every thread."""
    with _MAIN_LOCK:
        limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
        if argv is None:
            argv = sys.argv[1:]
        try:
            args = _read_plain(argv)
            if args is None:
                args = build_parser().parse_args(argv)
            if limit is not None:
                sys.set_int_max_str_digits(0)
            _emit(args.func(args, limit), args)
            return EXIT_OK
        except errors.StableRangeError as e:
            print(f"error: {e}", file=sys.stderr)
            return EXIT_RANGE
        except errors.InternalConsistencyError as e:
            print(f"internal consistency error: {e}", file=sys.stderr)
            return EXIT_INTERNAL
        except (errors.RSpinError, ValueError) as e:
            print(f"error: {e}", file=sys.stderr)
            return EXIT_USAGE
        except MemoryError:
            print("error: out of memory", file=sys.stderr)
            return EXIT_USAGE
        finally:
            if limit is not None:
                sys.set_int_max_str_digits(limit)


def entry() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early; the interpreter's own flush at
        # exit would fail again, so later writes go to the null device
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_OK
    raise SystemExit(code)


if __name__ == "__main__":
    entry()
