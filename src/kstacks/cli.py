"""Command-line surface: drivers over the library plus machine-readable reports.

Each command is a function ``cmd_x(args, data)`` of the parsed arguments
and the stack data, returning ``(exit code, payload, text lines)``.
``main`` does the rest once for all of them: it loads the stack that
--example or --input names (``data`` is None for ``example``, which takes
neither; ``map`` loads its --target itself), times the load and the
command, builds the report (``command``, ``input`` from ``data.label``,
the payload, ``timing_ms``), prints the lines and writes the report where
--json PATH says ("-" meaning stdout).  Reports are deterministic
byte-for-byte except for the timing_ms field.

The K-group commands (k0, eq, class, map) compute on any valid input: the
presentation formula gives the K-group whether or not the degree-zero
hypothesis holds, since connectify's output presents the same stack and
its quotient ring is isomorphic to the input's (see
``ktheory.k0_presentation``).  Each computes only what its report holds:
k0 reads the ideal generators straight from the data and builds the
K-group only for --invariants, map builds only the target's K-group and
reads the source's generators from its data, and the others parse every
argument before the K-group is built, so a malformed one fails fast.
check-connected is the one command that answers the hypothesis.

Exit codes: 0 success (or: equal, connected), 1 input or parse error,
3 negative verdict (not equal, map failure, or a connectedness verdict of
not_connected or unknown).
"""

import argparse
import json
import sys
import time

from .abelian import describe_invariants
from .exprs import _parse_int_list, ascii_int, parse_element
from .ktheory import _ideal_generators, class_of_koszul_quotient, induced_map, invariants, k0_presentation
from .picard import _unit_degrees, pic, pic_open
from .stacks import (
    EXAMPLES,
    StackDataError,
    builtin_example,
    check_connected,
    connectify,
    example_symbols,
    load_stackdata,
    stackdata_to_json,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NEGATIVE = 3


def _load(named, path, flags=("--example", "--input"), what="an input"):
    """Stack data from one of two option values, a built-in example
    [NAME, PARAMS...] or a JSON file path (``flags`` names the two options
    in errors)."""
    if named is not None and path is not None:
        raise StackDataError(f"give either {flags[0]} or {flags[1]}, not both")
    if named is not None:
        return builtin_example(named[0], named[1:])
    if path is not None:
        return load_stackdata(path)
    raise StackDataError(f"{what} is required: {flags[0]} NAME [PARAMS...] or {flags[1]} PATH")


def _group_json(group):
    return {
        "rank": group.free_rank,
        "torsion": [int(m) for m in group.torsion],
        "description": group.describe(),
    }


def _parse_vector(text, length, what):
    vec = _parse_int_list(text, what)
    if len(vec) != length:
        raise StackDataError(f"{what} needs {length} entries, got {len(vec)}")
    return vec


def _parse_vectors(text, length, what):
    return [
        _parse_vector(chunk, length, what)
        for chunk in text.split(";")
        if chunk.strip() != ""
    ]


# ---------------------------------------------------------------------------
# commands


def cmd_k0(args, data):
    generators = [q.render() for q in _ideal_generators(data)]
    payload = {"group": _group_json(data.group), "generators": generators}
    lines = [f"K0 presentation of {data.label or 'input'}:"]
    lines.append(f"  group ring over {data.group.describe()}")
    if generators:
        lines.append("  ideal generators:")
        lines.extend(f"    {q}" for q in generators)
    else:
        lines.append("  ideal generators: none (zero ideal)")
    if args.invariants:
        inv = invariants(k0_presentation(data))
        payload["invariants"] = inv.to_json()
        if inv.free_rank is None:
            lines.append(f"  invariants: {inv.status}")
        else:
            desc = describe_invariants(inv.free_rank, inv.torsion)
            lines.append(f"  invariants: {desc} (status: {inv.status})")
    return EXIT_OK, payload, lines


def cmd_pic(args, data):
    removed = None  # the degree as given
    if args.remove_degree is not None:
        removed = list(_parse_vector(args.remove_degree, data.group.num_generators, "--remove-degree"))
        quotient = pic_open(data, data.group.element(removed))
    else:
        quotient = pic(data)
    payload = {
        "group": _group_json(quotient),
        "units_degrees": [list(data.group.user_representative(u)) for u in _unit_degrees(data)],
        "removed_degree": removed,
    }
    what = data.label or "input"
    if removed is not None:
        what += f" minus a hypersurface of degree {removed}"
    lines = [f"Pic of {what}: {quotient.describe()}"]
    return EXIT_OK, payload, lines


def cmd_eq(args, data):
    symbols = example_symbols(args.example[0], data) if args.example is not None else {}
    lhs = parse_element(args.lhs, data.group, symbols)
    rhs = parse_element(args.rhs, data.group, symbols)
    pres = k0_presentation(data)
    lhs_reduced, rhs_reduced = pres.reduce(lhs), pres.reduce(rhs)
    equal = lhs_reduced == rhs_reduced
    payload = {
        "lhs": args.lhs,
        "rhs": args.rhs,
        "lhs_reduced": lhs_reduced.render(),
        "rhs_reduced": rhs_reduced.render(),
        "equal": equal,
    }
    verdict = "equal" if equal else "not equal"
    lines = [f"{args.lhs}  vs  {args.rhs}: {verdict} in K0({data.label or 'input'})"]
    return (EXIT_OK if equal else EXIT_NEGATIVE), payload, lines


def cmd_check_connected(args, data):
    result = check_connected(data, bound=args.bound)
    lines = [f"degree-zero check for {data.label or 'input'}: {result.verdict}"]
    if result.witness is not None:
        named = ", ".join(
            f"{v.name}^{w}" for v, w in zip(data.variables, result.witness) if w
        )
        lines.append(f"  witness monomial of degree zero: {named}")
    code = EXIT_OK if result.is_connected() else EXIT_NEGATIVE
    return code, result.to_json(), lines


def cmd_connectify(args, data):
    out = connectify(data)
    obj = stackdata_to_json(out)
    payload = {"output": obj, "output_path": args.output}
    lines = [f"connectified {data.label or 'input'} -> {out.label}"]
    lines.append(f"  grading group: {out.group.describe()}")
    lines.append(f"  components: {[list(c) for c in out.irrelevant]}")
    text = json.dumps(obj, indent=2, sort_keys=True)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        lines.append(f"  written to {args.output}")
    else:
        lines.append(text)
    return EXIT_OK, payload, lines


def cmd_class(args, data):
    vectors = _parse_vectors(args.koszul, data.group.num_generators, "--koszul")
    degrees = [data.group.element(v) for v in vectors]
    cls = class_of_koszul_quotient(k0_presentation(data), degrees)
    reduced = cls.normal_form()
    payload = {
        "koszul_degrees": [list(v) for v in vectors],
        "class": cls.representative.render(),
        "reduced": reduced.render(),
        "is_zero": reduced.is_zero(),
    }
    lines = [
        f"Koszul quotient class in K0({data.label or 'input'}):",
        f"  representative: {cls.representative.render()}",
        f"  reduced: {reduced.render()}",
    ]
    return EXIT_OK, payload, lines


def cmd_map(args, data):
    target_data = _load(args.target, args.target_input, ("--target", "--target-input"), "a target")
    rows = _parse_vectors(args.matrix, target_data.group.num_generators, "--matrix rows")
    if len(rows) != data.group.num_generators:
        raise StackDataError(
            f"--matrix needs {data.group.num_generators} rows (one per source generator)"
        )
    target = k0_presentation(target_data)
    payload = {"target": target_data.label, "matrix": [list(r) for r in rows]}
    try:
        pushed = induced_map(rows, data, target)
    except ValueError as exc:
        payload.update({"ok": False, "reason": str(exc)})
        return EXIT_NEGATIVE, payload, [f"induced map check failed: {exc}"]
    images = [
        {"generator": q.render(), "image": image.render()}
        for q, image in zip(pushed.generators, pushed.images)
    ]
    payload.update({"ok": True, "generator_images": images})
    lines = [f"induced map {data.label or 'input'} -> {target_data.label or 'target'}: ok"]
    lines.extend(f"  {entry['generator']}  |->  {entry['image']}" for entry in images)
    return EXIT_OK, payload, lines


def cmd_example(args, data):
    rows = [
        {"name": name, "params": params, "description": description}
        for name, (params, description, _, _) in sorted(EXAMPLES.items())
    ]
    lines = ["built-in examples:"]
    for row in rows:
        params = f" {row['params']}" if row["params"] else ""
        lines.append(f"  {row['name']}{params}: {row['description']}")
    return EXIT_OK, {"examples": rows}, lines


# ---------------------------------------------------------------------------
# argument plumbing


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        # usage problems are input errors (exit 1), not argparse's exit 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def non_negative_int(text):
    try:
        value = ascii_int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    if value < 0:
        raise argparse.ArgumentTypeError("must be non-negative")
    return value


def build_parser():
    parser = _ArgumentParser(
        prog="kstacks",
        description="exact K-group and Picard-group computations for graded "
        "polynomial coordinate rings of toric stacks",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    # option groups shared by several commands, each option declared once
    report = argparse.ArgumentParser(add_help=False)
    report.add_argument("--json", metavar="PATH", help="write the JSON report here ('-' for stdout)")
    inputs = argparse.ArgumentParser(add_help=False, parents=[report])
    inputs.add_argument(
        "--example",
        nargs="+",
        metavar=("NAME", "PARAM"),
        help="built-in example name with its parameters",
    )
    inputs.add_argument("--input", metavar="PATH", help="stack data JSON file")

    def command(name, func, parent, summary):
        sub = subs.add_parser(name, parents=[parent], help=summary)
        sub.set_defaults(func=func)
        return sub

    k0 = command("k0", cmd_k0, inputs, "ideal presentation of the K-group")
    k0.add_argument("--invariants", action="store_true", help="also compute abelian-group invariants")

    picp = command("pic", cmd_pic, inputs, "Picard group")
    picp.add_argument("--remove-degree", metavar="VEC", help="degree of a removed hypersurface (comma-separated)")

    eq = command("eq", cmd_eq, inputs, "decide equality of two K-classes")
    eq.add_argument("--lhs", required=True, metavar="EXPR")
    eq.add_argument("--rhs", required=True, metavar="EXPR")

    cc = command("check-connected", cmd_check_connected, inputs, "decide the degree-zero hypothesis")
    cc.add_argument("--bound", type=non_negative_int,
                    help="integer witness search bound of the degree-zero check")

    cf = command("connectify", cmd_connectify, inputs, "force the degree-zero hypothesis")
    cf.add_argument("-o", "--output", metavar="PATH", help="write the transformed data here")

    cl = command("class", cmd_class, inputs, "K-class of a Koszul-type quotient")
    cl.add_argument("--koszul", required=True, metavar="DEGREES",
                    help="degree vectors, ';'-separated, entries ','-separated")

    mp = command("map", cmd_map, inputs, "check a grading homomorphism induces a K-group map")
    mp.add_argument("--matrix", required=True, metavar="M",
                    help="rows ';'-separated, entries ','-separated")
    mp.add_argument("--target", nargs="+", metavar=("NAME", "PARAM"))
    mp.add_argument("--target-input", metavar="PATH")

    ex = command("example", cmd_example, report, "list built-in examples")
    ex.add_argument("--list", action="store_true", help="list the registry (default action)")

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_INPUT
    started = time.perf_counter()
    try:
        # every command but example takes --example/--input
        data = _load(args.example, args.input) if "input" in args else None
        code, payload, lines = args.func(args, data)
        report = {"command": args.command, "input": None if data is None else data.label, **payload,
                  "timing_ms": round((time.perf_counter() - started) * 1000.0, 3)}
        for line in lines:
            print(line)
        if args.json:
            text = json.dumps(report, indent=2, sort_keys=True) + "\n"
            if args.json == "-":
                sys.stdout.write(text)
            else:
                with open(args.json, "w", encoding="utf-8") as fh:
                    fh.write(text)
        return code
    except (OSError, ValueError) as exc:  # StackDataError, ParseError, JSONDecodeError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
