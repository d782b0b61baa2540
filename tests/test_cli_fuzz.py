"""The CLI's exit contract, fuzzed: every request to `run_command` ends in
exit code 0 (answered), 1 (usage or input error) or 2 (a bound was hit),
and no exception escapes it.

Requests cover all nine commands over the three bundled systems (or none),
with random terms, contexts and substitutions, some of them garbled, and
bounds small enough that exit 2 occurs.
"""

import collections
import contextlib
import io
import random

from hypothesis import given, settings, strategies as st

from nomc import format_context
from nomc.cli import load_system_file, run_command

from conftest import (
    equivalent_variant,
    random_context,
    random_ground_term,
    random_prenex_pattern,
    random_substitution,
    random_term,
)

COMMANDS = ("check", "unify", "match", "rewrite", "normalize", "coherence", "narrow", "lift-forward", "lift-backward")
SYSTEMS = (None, "prenex", "ex22", "lambda")


def _garbled(rng, text):
    """`text`, or now and then a copy cut short or with one character changed."""
    roll = rng.random()
    if roll < 0.08:
        return text[: rng.randrange(len(text) + 1)]
    if roll < 0.16 and text:
        i = rng.randrange(len(text))
        return text[:i] + rng.choice("()[],.#-> aX0") + text[i + 1 :]
    return text


def _request(command, system_name, seed):
    """A seeded argv for `command` over the named bundled system."""
    rng = random.Random(seed)
    # with no system, terms use lambda's symbols, which the empty signature lacks
    system = load_system_file(system_name or "lambda").system
    sig = system.signature

    def term():
        if system_name == "prenex" and rng.random() < 0.5:
            return random_prenex_pattern(rng, 3)
        return random_term(rng, sig, 3)

    def text(term):
        return _garbled(rng, str(term))

    def context():
        return _garbled(rng, format_context(random_context(rng)))

    def bound(name, high):
        return [name, str(rng.randint(0, high))] if rng.random() < 0.7 else []

    if command == "check":
        ground = random_ground_term(rng, sig, 2)
        positional = [_garbled(rng, f"{ground} =ac {term()}" if rng.random() < 0.5 else f"a # {term()}")]
    elif command == "coherence":
        # an =ac pair half the time, so the probe has reducts to compare
        left = term()
        right = equivalent_variant(rng, frozenset(), left, sig) if rng.random() < 0.5 else term()
        positional = [text(left), text(right)]
    elif command in ("unify", "match"):
        positional = [text(term()), text(term())]
    else:
        positional = [text(term())]
    argv = [command] + positional + (["--system", system_name] if system_name else [])
    argv += ["--context", context()] if rng.random() < 0.5 else []
    argv += ["--json"] if rng.random() < 0.5 else []
    # the solver's state cap, never left at its default, so no request runs long
    argv += ["--max-states", str(rng.choice((0, 1, 2, 5, 20, 200)))]
    if command in ("normalize", "coherence", "lift-backward"):
        argv += bound("--max-steps", 3)
    if command in ("narrow", "lift-forward"):
        argv += bound("--depth", 2) + bound("--fixpoint-depth", 2) + bound("--max-unifiers", 5)
    if command in ("lift-forward", "lift-backward"):
        rho = ", ".join(f"{v} -> {t}" for v, t in random_substitution(rng, sig, depth=1).items())
        argv += ["--rho", _garbled(rng, rho), "--target-context", context()]
    if command == "lift-forward" and rng.random() < 0.5:
        argv += ["--path", ",".join(str(rng.randint(0, 2)) for _ in range(rng.randint(0, 2)))]
    return argv


def _exit_code(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return run_command(argv)


def test_every_request_exits_0_1_or_2():
    seen = collections.Counter()

    @settings(max_examples=400, derandomize=True, deadline=None, database=None)
    @given(st.sampled_from(COMMANDS), st.sampled_from(SYSTEMS), st.integers(0, 2**32 - 1))
    def request_exits_by_contract(command, system_name, seed):
        argv = _request(command, system_name, seed)
        code = _exit_code(argv)
        assert code in (0, 1, 2), argv
        seen[command, code] += 1

    request_exits_by_contract()
    codes = {code for _, code in seen}
    assert codes == {0, 1, 2}, seen
    # every command answers some request
    assert {command for command, code in seen if code == 0} == set(COMMANDS), seen
