"""Command-line driver.

Subcommands:

  itirel extract [input.conllu|-] [--lexicons DIR] [--format json|turtle|both]
                 [--base-iri IRI] [--loose-toponyms] [--out-dir DIR]
  itirel lexicon validate [DIR]

Exit codes: 0 success, 2 lexicon/usage error (also a lexicon file that is not
UTF-8, an --out-dir that cannot be created, and any output that cannot be
written: a temporary file, stdout, a closed pipe, or a file of the out dir),
3 CoNLL-U error (also input that is not UTF-8, or that cannot be opened or
read; any readable path is an input, a pipe included).
Logs go to stderr only; single-format output and the ``lexicon validate``
report go to stdout, as UTF-8 bytes whatever the locale.

``extract`` streams: it reads the input a block of lines at a time (8 KiB
and the rest of the line the block cuts) and passes each sentence through the
pipeline to the writers as soon as it ends.  Output is copied to stdout or
the out dir only once the whole input has been read, so a failure anywhere
leaves none.
"""

from __future__ import annotations

import argparse
import errno
import os
import shutil
import sys
import tempfile
from contextlib import ExitStack, nullcontext
from pathlib import Path
from typing import Iterator

from .depgraph import (ConlluParseError, StructureError, read_blocks,
                       read_conllu)
from .lexicon import (LexiconError, LexiconSet, bundled_lexicon_dir,
                      load_lexicons, validate_lexicons)
from .serialize import JsonWriter, TurtleWriter, extract_sentence

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


def _cmd_extract(args) -> int:
    lexicon_dir = Path(args.lexicons) if args.lexicons else bundled_lexicon_dir()
    if args.format in ("turtle", "both") and not args.base_iri:
        return _fail("--base-iri is required for turtle output", EXIT_LEXICON)
    if args.format == "both" and not args.out_dir:
        return _fail("--out-dir is required with --format both", EXIT_LEXICON)
    try:
        lex = load_lexicons(lexicon_dir)
    except LexiconError as err:
        for problem in err.problems:
            print(f"itirel: lexicon: {problem}", file=sys.stderr)
        return EXIT_LEXICON
    return _extract(args, lex)


def _extract(args, lex: LexiconSet) -> int:
    with ExitStack() as stack:
        # each output goes to a temporary file and is copied out only once
        # the last sentence is written, so a failure leaves no output
        outputs, writers = {}, []
        try:
            if args.format in ("json", "both"):
                tmp = outputs["extraction.json"] = stack.enter_context(
                    _temporary_file())
                writers.append(JsonWriter(tmp.write, lex.fingerprint))
            if args.format in ("turtle", "both"):
                tmp = outputs["extraction.ttl"] = stack.enter_context(
                    _temporary_file())
                writers.append(TurtleWriter(tmp.write, args.base_iri))
        except ValueError as err:
            return _fail(str(err), EXIT_LEXICON)
        try:
            for g in read_conllu(_input_blocks(args.input)):
                result = extract_sentence(g, lex, args.loose_toponyms)
                for writer in writers:
                    writer.add(result)
        except (ConlluParseError, StructureError) as err:
            return _fail(f"conllu: {err}", EXIT_CONLLU)
        except _InputError as err:
            return _fail(str(err), EXIT_CONLLU)
        for writer in writers:
            writer.finish()
        if not args.out_dir:
            _copy_to_stdout(outputs.values())
            return EXIT_OK
        out_dir = Path(args.out_dir)
        made = [d for d in (out_dir, *out_dir.parents) if not d.exists()]
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as err:
            return _fail(f"cannot create --out-dir {out_dir}: "
                         f"{err.strerror}", EXIT_LEXICON)
        try:
            _copy_to_out_dir(outputs, out_dir)
        except OSError:
            for d in made:  # deepest first
                d.rmdir()
            raise
    return EXIT_OK


class _InputError(Exception):
    """The input could not be opened or read."""


def _input_blocks(path: str) -> Iterator[bytes]:
    """The input at any readable path, or stdin for "-", in the blocks of
    :func:`read_blocks`.  Only failing to open or read it raises
    ``_InputError``."""
    try:
        with (nullcontext(sys.stdin.buffer) if path == "-"
              else open(path, "rb")) as binary:
            yield from read_blocks(binary)
    except FileNotFoundError:
        raise _InputError(f"no such input file: {Path(path)}") from None
    except OSError as err:
        raise _InputError(f"cannot read input {Path(path)}: "
                          f"{err.strerror}") from None


def _temporary_file():
    """A text file deleted on close, written and read back unchanged."""
    return tempfile.TemporaryFile("w+", encoding="utf-8", newline="")


def _copy_to_stdout(outputs) -> None:
    """Write finished temporary outputs to stdout as UTF-8 bytes, flushed."""
    for tmp in outputs:
        tmp.seek(0)
        if hasattr(sys.stdout, "buffer"):
            # the bytes, whatever encoding the locale gives stdout
            sys.stdout.flush()
            shutil.copyfileobj(tmp.buffer, sys.stdout.buffer)
        else:  # a text stream put in place of stdout, such as io.StringIO
            shutil.copyfileobj(tmp, sys.stdout)
    sys.stdout.flush()


def _copy_to_out_dir(outputs: dict, out_dir: Path) -> None:
    """Copy finished temporary outputs, as their UTF-8 bytes, into out_dir.

    Each is copied in full to a new file in out_dir first, and only then
    are the copies renamed onto their names, so a name that cannot be
    written (a directory, say) or a failed write raises ``OSError`` with the
    out dir as it was."""
    staged: list[tuple[Path, Path]] = []
    try:
        for name, tmp in outputs.items():
            path = out_dir / name
            if path.is_dir():
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR),
                                        str(path))
            with open(out_dir / f".{name}.{os.getpid()}", "xb") as out:
                staged.append((Path(out.name), path))
                tmp.seek(0)
                shutil.copyfileobj(tmp.buffer, out)
    except OSError:
        for copy, _ in staged:
            copy.unlink(missing_ok=True)
        raise
    for copy, path in staged:
        os.replace(copy, path)
        print(f"itirel: wrote {path}", file=sys.stderr)


def _cmd_lexicon_validate(args) -> int:
    lexicon_dir = Path(args.lexicons) if args.lexicons else bundled_lexicon_dir()
    try:
        code, report = EXIT_OK, validate_lexicons(
            load_lexicons(lexicon_dir)).render()
    except LexiconError as err:
        code, report = EXIT_LEXICON, "\n".join(
            [*(f"error: {problem}" for problem in err.problems),
             "result: INVALID"])
    with _temporary_file() as tmp:  # written as extract's output is
        tmp.write(report + "\n")
        _copy_to_stdout([tmp])
    return code


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    command = (_cmd_extract if args.command == "extract"
               else _cmd_lexicon_validate)
    # one handler for every output write: temporary files, stdout, out dir
    try:
        return command(args)
    except BrokenPipeError:
        return EXIT_LEXICON  # the reader of stdout has gone: tell it nothing
    except OSError as err:
        return _fail(f"cannot write {err.filename or 'output'}: "
                     f"{err.strerror or err}", EXIT_LEXICON)


def entrypoint() -> None:
    code = main()
    try:
        sys.stdout.flush()
    except OSError:
        # else what a failed write left in its buffer fails again at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    raise SystemExit(code)


if __name__ == "__main__":
    entrypoint()
