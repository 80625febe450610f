"""Command-line driver.

Subcommands:

  itirel extract [input.conllu|-] [--lexicons DIR] [--format json|turtle|both]
                 [--base-iri IRI] [--loose-toponyms] [--out-dir DIR]
  itirel lexicon validate [DIR]

Exit codes: 0 success, 2 lexicon/usage error (also a lexicon file that is not
UTF-8), 3 CoNLL-U error (also input that is not UTF-8).
Logs go to stderr only; single-format output goes to stdout.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .depgraph import ConlluParseError, StructureError
from .lexicon import (LexiconError, bundled_lexicon_dir, decode_text,
                      load_lexicons, validate_lexicons)
from .serialize import run_extract, to_json, to_turtle

EXIT_OK = 0
EXIT_LEXICON = 2
EXIT_CONLLU = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="itirel",
        description="Extract n-ary relations and spatio-temporal itinerary "
                    "relations from dependency-parsed French sentences.")
    sub = parser.add_subparsers(dest="command", required=True)

    ex = sub.add_parser("extract", help="run the extraction pipeline")
    ex.add_argument("input", nargs="?", default="-",
                    help="CoNLL-U file, or - for stdin (default)")
    ex.add_argument("--lexicons", metavar="DIR", default=None,
                    help="lexicon directory (default: bundled seed lexicons)")
    ex.add_argument("--format", choices=("json", "turtle", "both"),
                    default="json")
    ex.add_argument("--base-iri", metavar="IRI", default=None,
                    help="base IRI for Turtle output (required for turtle)")
    ex.add_argument("--loose-toponyms", action="store_true",
                    help="also accept capitalized PROPN tokens as toponyms")
    ex.add_argument("--out-dir", metavar="DIR", default=None,
                    help="write files instead of stdout (required for both)")

    lx = sub.add_parser("lexicon", help="lexicon utilities")
    lsub = lx.add_subparsers(dest="lexicon_command", required=True)
    lv = lsub.add_parser("validate", help="validate a lexicon directory")
    lv.add_argument("lexicons", nargs="?", default=None,
                    help="lexicon directory (default: bundled)")
    return parser


def _fail(message: str, code: int) -> int:
    print(f"itirel: {message}", file=sys.stderr)
    return code


def _read_input(name: str) -> str:
    """The CoNLL-U input (a path, or - for stdin) as strict UTF-8, with
    universal newlines as a text-mode read gives: CRLF input parses as LF."""
    data = sys.stdin.buffer.read() if name == "-" else Path(name).read_bytes()
    try:
        return decode_text(data)
    except ValueError as err:
        line_no, problem = err.args
        raise ConlluParseError(problem, line_no) from None


def _cmd_extract(args) -> int:
    lexicon_dir = Path(args.lexicons) if args.lexicons else bundled_lexicon_dir()
    if args.format in ("turtle", "both") and not args.base_iri:
        return _fail("--base-iri is required for turtle output", EXIT_LEXICON)
    if args.format == "both" and not args.out_dir:
        return _fail("--out-dir is required with --format both", EXIT_LEXICON)
    if args.input != "-" and not Path(args.input).is_file():
        return _fail(f"no such input file: {Path(args.input)}", EXIT_CONLLU)
    try:
        doc = run_extract(_read_input(args.input), lexicon_dir,
                          loose=args.loose_toponyms)
    except LexiconError as err:
        for problem in err.problems:
            print(f"itirel: lexicon: {problem}", file=sys.stderr)
        return EXIT_LEXICON
    except (ConlluParseError, StructureError) as err:
        return _fail(f"conllu: {err}", EXIT_CONLLU)
    try:
        outputs = {}
        if args.format in ("json", "both"):
            outputs["extraction.json"] = to_json(doc)
        if args.format in ("turtle", "both"):
            outputs["extraction.ttl"] = to_turtle(doc, args.base_iri)
    except ValueError as err:
        return _fail(str(err), EXIT_LEXICON)
    if args.out_dir:
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        for name, content in outputs.items():
            (out_dir / name).write_text(content, encoding="utf-8")
            print(f"itirel: wrote {out_dir / name}", file=sys.stderr)
    else:
        for content in outputs.values():
            sys.stdout.write(content)
    return EXIT_OK


def _cmd_lexicon_validate(args) -> int:
    lexicon_dir = Path(args.lexicons) if args.lexicons else bundled_lexicon_dir()
    try:
        lex = load_lexicons(lexicon_dir)
    except LexiconError as err:
        for problem in err.problems:
            print(f"error: {problem}")
        print("result: INVALID")
        return EXIT_LEXICON
    report = validate_lexicons(lex)
    print(report.render())
    return EXIT_OK if report.valid else EXIT_LEXICON


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "extract":
        return _cmd_extract(args)
    return _cmd_lexicon_validate(args)


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
