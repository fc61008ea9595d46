"""Input fuzzing through the command line: manifests changed one field at a
time, malformed argument vectors and token-level mutants of the corpus
programs. Every case runs through `cli.main` in process; none may print
`internal error`, and every exit code is 0, 1 or 2. See B. Miller et al.,
"An Empirical Study of the Reliability of UNIX Utilities", CACM 33(12), 1990.

The cases are seeded and their count is fixed. They stay within the call
and nesting depths the tool handles today: mutated programs run with a small
fuel, which bounds the call depth, and a huge budget goes only to a program
that terminates."""

import copy
import json
import os
import random

from jcore.cli import main
from jcore.corpus import CORPUS_DIR, load_corpus
from jcore.parser import tokenize

MANIFEST_DIR = os.path.join(CORPUS_DIR, "manifests")
MANIFEST_CASES = 240
SOURCE_CASES = 48

_MISSING = object()  # the field is removed
# a value of each JSON type, an empty string, an unknown name, a path to a
# missing file and a directory (`.`, the mutated manifest's own directory)
_FIELD_VALUES = (_MISSING, 7, -1, 1.5, True, None, [], ["x"], {"a": 1}, "", "Nope", "missing.jcore", ".")


def _clean(capsys, argv):
    code = main(argv)
    out, err = capsys.readouterr()
    assert code in (0, 1, 2) and "internal error" not in out + err, (argv, code, err)


def _manifest_variants():
    """Every one-field change of every manifest; table paths are made
    absolute so that the variant can live anywhere."""
    for name in sorted(os.listdir(MANIFEST_DIR)):
        with open(os.path.join(MANIFEST_DIR, name)) as f:
            data = json.load(f)
        for table in ("tableA", "tableB"):
            data[table] = os.path.normpath(os.path.join(MANIFEST_DIR, data[table]))
        fields = [(key,) for key in data] + [("entry", key) for key in data.get("entry", ())]
        for path in fields:
            for value in _FIELD_VALUES:
                variant = copy.deepcopy(data)
                *outer, key = path
                holder = variant[outer[0]] if outer else variant
                if value is _MISSING:
                    del holder[key]
                else:
                    holder[key] = value
                yield variant


def test_manifests_changed_one_field_at_a_time(tmp_path, capsys):
    variants = random.Random(18).sample(list(_manifest_variants()), MANIFEST_CASES)
    path = tmp_path / "variant.json"
    for variant in variants:
        path.write_text(json.dumps(variant))
        for command in ("equiv", "simtest"):
            _clean(capsys, [command, str(path)])


def _c(name):
    return os.path.join(CORPUS_DIR, name)


_OBOOL = ["--own", "OBool", "--rep", "Bool"]


def test_malformed_argument_vectors(tmp_path, capsys):
    src, manifest = _c("obool_v1.jcore"), os.path.join(MANIFEST_DIR, "obool_pair.json")
    entries = ["", ".", "A.", ".m", "A.b.c", "Main.", ".main", "Main.main.x", "Nope.main", "Main.main"]
    budgets = ["-1", "0", "1", "-99999999999999999999", "99999999999999999999", "1.5", "x", ""]
    argvs = [
        [], ["frobnicate"], ["--format"], ["--format", "xml", "check", src], ["check"],
        ["check", "--bogus", src], ["analyze", src, "-x"], ["analyze", "--own", "OBool", src],
        ["run", src], ["run", "--entry"], ["run", src, "--entry", "Main.main", "--monitor", "sometimes"],
        ["run", src, "--entry", "Main.main", "--monitor", "every"],
        ["dot", src, "--entry", "Main.main", "-o", str(tmp_path), *_OBOOL],
        ["equiv"], ["equiv", manifest, "--bogus"], ["simtest", manifest], ["equiv", src],
        ["corpus"], ["corpus", "rerun"], ["corpus", "list", "--extra", str(tmp_path / "missing")],
        ["corpus", "list", "--extra", src],
    ]
    for entry in entries:
        argvs += [["run", src, "--entry", entry], ["dot", src, "--entry", entry, *_OBOOL]]
    for budget in budgets:
        for option in ("--max-fuel", "--loop-cap"):
            # obool_v1's Main.main terminates, so a huge budget stays small
            argvs += [["run", src, "--entry", "Main.main", option, budget],
                      ["dot", src, "--entry", "Main.main", option, budget, *_OBOOL]]
    for argv in argvs:
        for fmt in ("text", "json"):
            _clean(capsys, ["--format", fmt, *argv])


def _mutant(rng, tokens):
    """The program's token texts, spaced, with one token deleted, doubled,
    swapped with its successor, or replaced by another token of the program
    of the same kind (so that more mutants parse)."""
    tokens = tokens[:-1]  # without `eof`
    texts = [t.text for t in tokens]
    i = rng.randrange(len(texts) - 1)
    mode = rng.randrange(4)
    if mode == 0:
        del texts[i]
    elif mode == 1:
        texts.insert(i, texts[i])
    elif mode == 2:
        texts[i], texts[i + 1] = texts[i + 1], texts[i]
    else:
        texts[i] = rng.choice([t.text for t in tokens if t.kind == tokens[i].kind])
    return " ".join(texts)


def test_token_mutants_of_the_corpus(tmp_path, capsys):
    rng = random.Random(18)
    records = [rec for rec in load_corpus() if rec.entries]
    path = tmp_path / "mutant.jcore"
    for _ in range(SOURCE_CASES):
        rec = rng.choice(records)
        path.write_text(_mutant(rng, tokenize(rec.source())))
        designations = ["--own", rec.own, "--rep", rec.rep]
        entry = rng.choice(rec.entries)
        run = ["run", str(path), "--entry", f"{entry.entry_class}.{entry.entry_method}",
               "--max-fuel", "64", "--loop-cap", "1000", *designations]
        for argv in (["check", str(path)], ["analyze", *designations, str(path)], run, [*run, "--monitor", "every"]):
            _clean(capsys, ["--format", "json", *argv])
