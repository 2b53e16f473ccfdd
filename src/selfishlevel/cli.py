"""Command-line surface.

Subcommands: analyze, level, transform, generate, dynamics, sweep,
closedform.  Game documents are read from a file argument ("-" or
omitted means standard input) and reports are written to standard
output, so generate/transform pipe into the analysis commands.

``generate`` takes a family name from ``families.FAMILIES`` and
``closedform`` one from ``closedform.CONTINUOUS`` or, failing that,
``families.FAMILIES``; each family parses its own ``--param`` values.

Exit codes: 0 on success, 2 on parse or validation errors, 3 when a
generated game or an input document would exceed the joint-strategy
cell cap (``--cap``).
"""

from __future__ import annotations

import argparse
import functools
import sys
import time
from fractions import Fraction

from . import analysis, closedform, families, gamedoc, transforms
from .core import parse_rational
from .errors import ExplosionGuard, GameDocumentError, GameError, ParamOutOfRange


def _read_text(path: str | None) -> str:
    stdin = path is None or path == "-"
    try:
        if stdin:
            text = sys.stdin.read()
            if not text.isascii():
                # Undecodable bytes arrive as lone surrogates: decoding again names the first.
                text.encode("utf-8", "surrogateescape").decode("utf-8")
            return text
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as e:
        raise GameDocumentError(f"cannot read {path!r}: {e.strerror or e}") from None
    except UnicodeError as e:
        source = "standard input" if stdin else repr(path)
        raise GameDocumentError(
            f"{source} is not UTF-8 text: {e.reason} at byte {e.start}") from None


def _parse_params(groups: list[list[str]] | None) -> dict[str, Fraction]:
    params: dict[str, Fraction] = {}
    for pair in (pair for group in groups or [] for pair in group):
        key, sep, raw = pair.partition("=")
        if not sep or not key:
            raise ParamOutOfRange(f"expected --param key=value, got {pair!r}")
        if key in params:
            raise ParamOutOfRange(f"parameter {key!r} given twice")
        params[key] = parse_rational(raw)
    return params


#: ``closedform`` takes a continuous family over a generator family of the same name.
_CLOSED_FORM_FAMILIES = {**families.FAMILIES, **closedform.CONTINUOUS}


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_analyze(args) -> int:
    doc = gamedoc.parse_game_document(_read_text(args.file), args.cap)
    started = time.perf_counter()
    body = gamedoc.analyze_body(doc)
    elapsed = time.perf_counter() - started
    sys.stdout.write(gamedoc.render_report(body, {"analyze_seconds": elapsed}, doc))
    return 0


def cmd_level(args) -> int:
    doc = gamedoc.parse_game_document(_read_text(args.file), args.cap)
    result = analysis.selfishness_level(doc.game)
    sys.stdout.write(result.render() + "\n")
    return 0


def cmd_transform(args) -> int:
    doc = gamedoc.parse_game_document(_read_text(args.file))
    game = doc.game
    alpha = parse_rational(args.alpha)
    model = transforms.AltruismModel(args.model)
    if args.inverse:
        if model is not transforms.AltruismModel.A:
            raise ParamOutOfRange("--inverse only applies to model A")
        game = transforms.inverse_altruistic(game, alpha)
    else:
        param = transforms.convert_param(alpha, model, game.player_count)
        game = transforms.altruistic_model(game, param)
    if args.scale is not None:
        game = transforms.scale(game, parse_rational(args.scale))
    if args.shift is not None:
        game = transforms.shift(game, parse_rational(args.shift))
    sys.stdout.write(gamedoc.render_game_document(
        gamedoc.GameDocument(game, doc.player_names)
    ))
    return 0


def cmd_generate(args) -> int:
    params = _parse_params(args.param)
    spec = families.named(args.family).spec(params)
    game = families.generate(spec, cap=args.cap)
    sys.stdout.write(gamedoc.render_game_document(gamedoc.GameDocument.from_game(game)))
    return 0


def cmd_dynamics(args) -> int:
    doc = gamedoc.parse_game_document(_read_text(args.file), args.cap)
    started = time.perf_counter()
    body = gamedoc.dynamics_body(doc, args.cap)
    elapsed = time.perf_counter() - started
    sys.stdout.write(gamedoc.render_report(body, {"dynamics_seconds": elapsed}, doc))
    return 0


def cmd_sweep(args) -> int:
    doc = gamedoc.parse_game_document(_read_text(args.file), args.cap)
    alphas = [parse_rational(part) for part in args.alphas.split(",") if part]
    if not alphas:
        raise ParamOutOfRange("--alphas needs at least one value")
    body = gamedoc.sweep_body(doc, alphas)
    sys.stdout.write(gamedoc.render_report(body, None, doc))
    return 0


def cmd_closedform(args) -> int:
    params = _parse_params(args.param)
    spec = families.named(args.family, _CLOSED_FORM_FAMILIES).spec(params)
    result = closedform.closed_form_level(spec, cap=args.cap)
    body = {
        "family": args.family,
        "result": {
            "kind": result.kind.value,
            "value": None if result.value is None else str(result.value),
            "tight": result.tight,
        },
    }
    sys.stdout.write(gamedoc.render_report(body))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="selfishlevel",
        description="Exact selfishness-level analysis of finite strategic games",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_file(p):
        p.add_argument("file", nargs="?", default=None,
                       help="game document ('-' or omitted: standard input)")

    def add_family(p, table):
        p.add_argument("family", help="one of: " + ", ".join(table))
        p.add_argument("--param", action="append", nargs="+", metavar="KEY=VALUE",
                       help="family parameters, e.g. --param n=4 c=2")

    def add_cap(p):
        p.add_argument("--cap", type=int, default=families.DEFAULT_CELL_CAP,
                       help="maximum number of joint strategies")

    p = sub.add_parser("analyze", help="equilibria, optima, level, prices")
    add_file(p)
    add_cap(p)

    p = sub.add_parser("level", help="print the selfishness level: 0, p/q, or inf")
    add_file(p)
    add_cap(p)

    p = sub.add_parser("transform", help="altruistic / shift / scale / inverse transform")
    add_file(p)
    p.add_argument("--alpha", default="0", help="altruism share (model-A scale)")
    p.add_argument("--model", choices=["A", "B", "C", "D"], default="A")
    p.add_argument("--shift", default=None, help="add a constant to every value")
    p.add_argument("--scale", default=None, help="multiply every value by a positive constant")
    p.add_argument("--inverse", action="store_true",
                   help="invert the altruistic transform instead of applying it")

    p = sub.add_parser("generate", help="emit a game document for a family")
    add_family(p, families.FAMILIES)
    add_cap(p)

    p = sub.add_parser("dynamics", help="improvement-path properties")
    add_file(p)
    add_cap(p)

    p = sub.add_parser("sweep", help="price of stability of the altruistic versions")
    add_file(p)
    p.add_argument("--alphas", required=True, help="comma-separated altruism shares")
    add_cap(p)

    p = sub.add_parser("closedform", help="analytic level or bound for a family")
    add_family(p, _CLOSED_FORM_FAMILIES)
    add_cap(p)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of this process; each ``parse_args`` returns a fresh namespace."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        # Looked up by name at call time, so a command replaced on the module runs.
        return globals()[f"cmd_{args.command}"](args)
    except BrokenPipeError:
        return 0
    except ExplosionGuard as e:
        sys.stderr.write(f"error: {e}\n")
        return 3
    except GameError as e:
        sys.stderr.write(f"error: {e}\n")
        return 2


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
