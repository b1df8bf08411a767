"""Fuzz the command line: random strings, nesting depths and input files.

Every call must return exit 0, 2, 3 or 4 without raising; its text starts
with ``error: `` exactly when the exit code is nonzero; and it finishes
within ``CALL_SECONDS`` of process time.

One known slow case is not covered: germ sums at the degree cap, such as
``eval "(w+1)^1000/(w+2)^1000 + (w+3)^1000/(w+5)^1000"`` (about 20 s, nearly
all of it multiplying and reducing polynomials of degree 2000).  The
strategies below are not narrowed to avoid it; no example they draw
spells such a sum.
"""

import os
import tempfile
import time

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hyperq.cli import run_command
from hyperq.exprlang import MAX_DEPTH
from hyperq.hull import MAX_CHECK_DEPTH

CALL_SECONDS = 10

FUZZ = settings(max_examples=150, derandomize=True, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])

TOKENS = ["0", "1", "2", "3", "10", "999", "1000", "0.5", "w", "k", "x", "shadow", "M0", "G0",
          "N", "limited", "inf", "std", "monad", "+", "-", "*", "/", "^", "(", ")", "[", "]",
          "{", "}", ",", "&", "|", "~", " ", "\n", "@"]

token_strings = st.lists(st.sampled_from(TOKENS), max_size=30).map("".join)

nested = st.builds(
    lambda n, wrap, inner: wrap[0] * n + inner + wrap[1] * n,
    st.integers(0, 3 * MAX_DEPTH),
    st.sampled_from([("(", ")"), ("-", ""), ("~", ""), ("shadow(", ")"), ("[", "]"),
                     ("{", "}"), ("monad(", ")"), ("N(", ")"), ("(", "")]),
    token_strings,
)


def _arith(inner):
    return st.one_of(
        st.tuples(inner, st.sampled_from(["+", "-", "*", "/", " + "]), inner).map("".join),
        inner.map("-{}".format),
        inner.map("({})".format),
        inner.map("shadow({})".format),
        st.tuples(inner, st.sampled_from(["^2", "^-3", "^0", "^10", "^1000", "^1001"])).map("".join),
    )


def _sets(inner):
    return st.one_of(
        st.tuples(inner, st.sampled_from(["&", "|", " | "]), inner).map("".join),
        inner.map("~{}".format),
        inner.map("({})".format),
    )


# mostly well formed: arithmetic on leaves, and connectives of set atoms
arith_texts = st.recursive(
    st.one_of(st.sampled_from(["0", "1", "2", "1/3", "0.5", "w"]),
              st.sampled_from(["k", "M0", "G0", "N(-1)", "x"])),
    _arith, max_leaves=8)
set_texts = st.recursive(
    st.one_of(
        st.sampled_from(["limited", "inf", "std", "x"]),
        arith_texts.map("monad({})".format),
        arith_texts.map("{{{}}}".format),
        st.tuples(st.sampled_from("[("), arith_texts, arith_texts, st.sampled_from("])")).map(
            lambda t: f"{t[0]}{t[1]},{t[2]}{t[3]}"),
    ),
    _sets, max_leaves=6)

noise = st.one_of(token_strings, st.text(max_size=20), nested)
expressions = st.one_of(noise, arith_texts)
set_expressions = st.one_of(noise, set_texts)

# integer-like values for flags and file keys, and anything else
values = st.one_of(st.integers(-3, MAX_CHECK_DEPTH + 3).map(str), st.text(max_size=4))


def check(argv):
    start = time.process_time()
    r = run_command(argv)
    elapsed = time.process_time() - start
    assert r.exit_code in (0, 2, 3, 4), argv
    assert r.text.startswith("error: ") == (r.exit_code != 0), (argv, r.text)
    assert elapsed < CALL_SECONDS, (argv, elapsed)


def check_with_file(argv, text):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        check([path if a is None else a for a in argv])


@given(st.one_of(st.tuples(st.sampled_from(["eval", "shadow", "classify", "ext"]), expressions),
                 st.tuples(st.just("measure"), set_expressions)), st.booleans())
@FUZZ
def test_expression_commands(argv, as_json):
    check(["--json"] * as_json + list(argv))


structures = st.one_of(st.sampled_from(["q", "n", "v:1", "v:2", "rationals", "naturals", "v:0"]),
                       st.text(max_size=5))
limit_flags = st.lists(
    st.tuples(st.sampled_from(["--slope", "--intercept", "--start", "--check-depth"]), values),
    max_size=3,
).map(lambda pairs: [word for pair in pairs for word in pair])

hull_argvs = st.one_of(
    st.tuples(st.sampled_from(["point", "approachable"]), structures, expressions).map(list),
    st.tuples(st.just("dist"), structures, expressions, expressions).map(list),
    st.builds(lambda text, flags: ["limit", text, *flags], expressions, limit_flags),
    st.lists(expressions, max_size=3),
)


@given(hull_argvs)
@FUZZ
def test_hull_subcommands(argv):
    check(["hull", *argv])


k_endpoints = st.one_of(
    st.sampled_from(["0", "1", "1/2", "1/k", "1/(k+1)", "1 - 1/k", "1/2 + 1/(k+2)", "1/k^2",
                     "k", "-1", "1/(k-3)", "w"]),
    token_strings,
)
pieces = st.builds(lambda o, lo, hi, c: f"piece: {o}{lo}, {hi}{c}",
                   st.sampled_from("[("), k_endpoints, k_endpoints, st.sampled_from("])"))
modes = st.sampled_from(["increasing", "decreasing", "disjoint", "sideways"]).map("mode: {}".format)
sigma_lines = st.one_of(modes, values.map("start: {}".format), values.map("depth: {}".format),
                        pieces, st.text(max_size=10))


@st.composite
def commented(draw, lines):
    """``lines`` with comment lines among them, inline ``#`` comments
    after some, and maybe one of them again: the reader must skip the
    comments, and a second once-only key is refused."""
    lines = list(draw(lines))
    if lines and draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(lines)))
    comments = st.sampled_from(["", " # note", "#", "  # a: b # c", "#piece: [0, 2]"])
    out = []
    for line in lines:
        out += [draw(st.sampled_from(["# a comment line", "#", "   # x: y"]))] * draw(st.booleans())
        out.append(line + draw(comments))
    return out


sigma_files = st.one_of(
    st.lists(sigma_lines, max_size=6),
    # a mode, then some keys, then pieces: the shape of a schema
    commented(st.builds(lambda mode, keys, ps: [mode, *keys, *ps], modes,
                        st.lists(sigma_lines, max_size=2),
                        st.lists(pieces, min_size=1, max_size=3))),
).map("\n".join)


@given(sigma_files, st.one_of(st.none(), values))
@FUZZ
def test_sigma_files(text, depth):
    flags = [] if depth is None else ["--depth", depth]
    check_with_file(["measure", "--sigma", None, *flags], text)


atoms = st.sampled_from(["a", "b", "c", "0", "1", "x"])
model_lines = st.one_of(
    st.lists(atoms, max_size=6).map(lambda a: "carrier: " + " ".join(a)),
    st.lists(atoms, min_size=1, max_size=3).map(lambda a: "member: " + " ".join(a)),
    st.lists(atoms, max_size=3).map(lambda a: "unary: P " + " ".join(a)),
    st.one_of(st.integers(-1, 14).map(str), st.text(max_size=3)).map("index: {}".format),
    atoms.map("w: {}".format),
    st.text(max_size=10),
)


@st.composite
def model_shapes(draw):
    """A carrier, relations on it, an index and w."""
    carrier = draw(st.lists(atoms, min_size=1, max_size=5, unique=True))
    on_carrier = st.sampled_from(carrier)
    index = draw(st.integers(1, 8))
    lines = ["carrier: " + " ".join(carrier), f"index: {index}",
             f"w: {draw(st.integers(0, index - 1))}"]
    lines += [f"member: {a} {b}" for a, b in draw(st.lists(st.tuples(on_carrier, on_carrier),
                                                            max_size=4))]
    lines += ["unary: P " + " ".join(draw(st.lists(on_carrier, max_size=3)))] * draw(st.booleans())
    return lines


model_files = st.one_of(st.lists(model_lines, max_size=8),
                        commented(model_shapes())).map("\n".join)


@given(model_files, st.one_of(st.none(), st.integers(-1, 4).map(str)))
@FUZZ
def test_model_files(text, depth):
    flags = [] if depth is None else ["--depth", depth]
    check_with_file(["oracle", "--model", None, *flags], text)
