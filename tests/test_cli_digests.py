"""The corpus through the command line, pinned: `check` and `analyze` of every
corpus file under its designations, `run` (plain, traced, monitored) and
`dot` of every entry, and `equiv` of every equivalence manifest, in text and
JSON. One sha256 per subcommand of (argv, exit code, stdout, stderr), so a
change to any verdict, diagnostic or rendering names the subcommand it shows
in. Paths are given relative to the corpus directory, so the digests do not
depend on where the checkout lives. `simtest` and `corpus run-all` are left
to the expectation replays, which cover them at a fraction of the cost."""

import contextlib
import hashlib
import io
import json
import os

from jcore.cli import main
from jcore.corpus import CORPUS_DIR, equiv_expectations, load_corpus

DIGESTS = {
    "check": "e7835c2190f44d12f990c5ada317e4b6221f9fb4151b43420f512f918c1c777a",
    "analyze": "d09c3eba7f2cf254756270a4b96b205f907cfa7a67fe6bc720bf12209197a79b",
    "run": "b8ba543f6550b4ab055576c236298db033ff4466abf7549859ee3ae6f9437399",
    "dot": "87ca42cda5d32cea3bb1f1d6cbd00646cac783df235dae8b980470f45a059f8c",
    "equiv": "6d9a21f30e4289ee5b3bbcbd6402c81d691596845b83e2f4016e1017bc4f8c3a",
}
INVOCATIONS = 332


def _invocations():
    """(subcommand, argv) in a fixed order."""
    out = []
    for fmt in ("text", "json"):
        for r in load_corpus():
            file = os.path.basename(r.path)
            des = ["--own", r.own, "--rep", r.rep] + (["--rep2", r.rep2] if r.rep2 else [])
            out.append(("check", ["--format", fmt, "check", file, *des]))
            out.append(("analyze", ["--format", fmt, "analyze", file, *des]))
            for e in r.entries:
                entry = ["--entry", f"{e.entry_class}.{e.entry_method}", *des]
                for mode in ([], ["--trace"], ["--monitor", "every"], ["--monitor", "calls"]):
                    out.append(("run", ["--format", fmt, "run", file, *entry, *mode]))
                out.append(("dot", ["--format", fmt, "dot", file, *entry]))
        for mpath, _ in equiv_expectations():
            out.append(("equiv", ["--format", fmt, "equiv", os.path.relpath(mpath, CORPUS_DIR)]))
    return out


def _digests():
    hashes, count = {}, 0
    for group, argv in _invocations():
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv)
        record = json.dumps([argv, code, stdout.getvalue(), stderr.getvalue()]).encode()
        hashes.setdefault(group, hashlib.sha256()).update(record)
        count += 1
    return {group: h.hexdigest() for group, h in hashes.items()}, count


def test_corpus_cli_outputs_are_pinned(monkeypatch):
    monkeypatch.chdir(CORPUS_DIR)
    digests, count = _digests()
    assert count == INVOCATIONS
    assert digests == DIGESTS
