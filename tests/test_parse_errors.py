"""Every parse error's message, line and column, pinned on drawn inputs.

`tests/data/parse_errors.json` holds malformed inputs drawn, from a fixed
seed, out of the alphabets that `tests/test_parsing.py` uses: texts for
`parse_term`, `parse_context`, `parse_substitution` and `parse_judgement`,
with and without a signature, and multi-line system files for
`parse_system`, so that errors past the first line are covered. Each entry
stores the input and its `ParseError`: the message as `str` gives it, the
line and the column.

Regenerate only when an error is meant to change, and log it in CHANGES.md:

    PYTHONPATH=src python tests/test_parse_errors.py
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from nomc import ParseError, parse_context, parse_judgement, parse_substitution, parse_system, parse_term

from test_parsing import SIG, _PIECES

DATA = Path(__file__).resolve().parent / "data" / "parse_errors.json"

PARSERS = {
    "term": parse_term,
    "context": parse_context,
    "substitution": parse_substitution,
    "judgement": parse_judgement,
}
# The piece list of the tokenizer test, and the character alphabets of the
# term tests.
ALPHABETS = (_PIECES, list("abfXY()[].,# "), list("abXY()[].,# "), list("a中ǅ"))
SYSTEM_LINES = (
    "sig:",
    "  fC: 2 commutative",
    "  h: 1",
    "# a comment",
    "",
    "rules:",
    "  r1: |- fC(X, Y) -> fC(Y, X)",
    "  a#X, b#X |- h([a]X) -> (a b).X",
    "  swap: a, b#X |- h(fC([a]X, [b]X)) -> h(X)",
    "problems:",
    '  p: check "a # h(b)"',
)


def _outcome(parse, text: str, sig) -> dict | None:
    try:
        parse(text) if sig is None else parse(text, sig)
    except ParseError as err:
        return {"error": str(err), "line": err.line, "col": err.col}
    return None


def _system_text(rng: random.Random) -> str:
    """The sample system with one to three lines edited: a piece inserted,
    a character deleted, or a line repeated."""
    lines = list(SYSTEM_LINES)
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(lines))
        line = lines[i]
        at = rng.randint(0, len(line))
        edit = rng.random()
        if edit < 0.6:
            lines[i] = line[:at] + rng.choice(_PIECES) + line[at:]
        elif edit < 0.85:
            lines[i] = line[:at] + line[at + 1 :]
        else:
            lines.insert(i, line)
    return "\n".join(lines) + "\n"


def draw() -> list[dict]:
    rng = random.Random(47)
    entries = []
    for name, parse in PARSERS.items():
        for signed in (False, True):
            for _ in range(400):
                alphabet = rng.choice(ALPHABETS)
                text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 16)))
                outcome = _outcome(parse, text, SIG if signed else None)
                if outcome is not None:
                    entries.append({"parse": name, "signed": signed, "text": text, **outcome})
    for _ in range(800):
        text = _system_text(rng)
        outcome = _outcome(parse_system, text, None)
        if outcome is not None:
            entries.append({"parse": "system", "signed": False, "text": text, **outcome})
    return entries


def test_every_error_keeps_its_message_line_and_column():
    pinned = json.loads(DATA.read_text(encoding="utf-8"))
    assert len(pinned) > 2000
    assert {e["parse"] for e in pinned} == {*PARSERS, "system"}
    assert any(e["parse"] == "system" and e["line"] > 5 for e in pinned)
    parsers = dict(PARSERS, system=parse_system)
    changed = [
        (e["parse"], e["text"], got)
        for e in pinned
        if (got := _outcome(parsers[e["parse"]], e["text"], SIG if e["signed"] else None))
        != {"error": e["error"], "line": e["line"], "col": e["col"]}
    ]
    assert not changed, f"{len(changed)} of {len(pinned)} errors changed, first: {changed[:3]}"


if __name__ == "__main__":
    lines = [json.dumps(entry, ensure_ascii=False) for entry in draw()]
    DATA.write_text("[\n" + ",\n".join(lines) + "\n]\n", encoding="utf-8")
