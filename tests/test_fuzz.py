"""Fuzzed inputs end cleanly.

For arbitrary text and for valid inputs with random edits, the treebank
loader and the rule-file reader either succeed or raise the error that
names the file, and ``treecut run`` returns 0, 1 or 2, with an
``error:`` line on 1, and never lets an exception escape.
"""

import contextlib
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treecut.cli import main
from treecut.extraction import RuleFileError, parse_rule_file, validate_rules
from treecut.grammar import parse_rule_inventory
from treecut.pipeline import InputError, load_file, load_trees

from oracles import TOY, corpus_texts

GRAMMAR, TRAIN, TEST = corpus_texts("toy")
INVENTORY = parse_rule_inventory(GRAMMAR, "s")

# Fragments an edit inserts: delimiters, escapes, rule ids of the toy
# grammar and of none, and characters that are digits or space only to
# some readers.
PIECES = [
    "(", ")", " ", "\n", "\r", '"', "\\", "#", "lex", "(lex x)", "np_pron",
    "vp_v", "s_np_vp", "bogus", "np", "=>", ":", "support:", "support: 2",
    "²", "٣", " ", "\x85", "﻿", "\x00",
]


@st.composite
def edited(draw, text):
    """*text* after up to four edits: a span deleted or repeated, a piece
    inserted, or a whole line repeated elsewhere, which keeps a valid
    text valid more often."""
    for _ in range(draw(st.integers(0, 4))):
        i = draw(st.integers(0, len(text)))
        j = draw(st.integers(i, min(len(text), i + 40)))
        op = draw(st.sampled_from(["delete", "insert", "copy", "line"]))
        if op == "delete":
            text = text[:i] + text[j:]
        elif op == "insert":
            text = text[:i] + draw(st.sampled_from(PIECES)) + text[i:]
        elif op == "copy":
            text = text[:i] + text[i:j] + text[i:]
        else:
            lines = text.splitlines(keepends=True) or [""]
            line = draw(st.sampled_from(lines))
            lines.insert(draw(st.integers(0, len(lines))), line)
            text = "".join(lines)
    return text


def texts(valid):
    """Arbitrary text, built from characters and pieces, or, twice as
    often, *valid* edited."""
    pieces = st.lists(st.sampled_from(PIECES) | st.characters(), max_size=30)
    return st.one_of(pieces.map("".join), edited(valid), edited(valid))


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.fixture(scope="module")
def rule_text(work):
    out = work / "rules-out"
    argv = ["run", "--grammar", str(TOY / "grammar.txt"),
            "--train", str(TOY / "train.txt"), "--threshold", "1.0",
            "--out", str(out)]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0
    return (out / "rules.txt").read_text()


def write(path, text):
    path.write_bytes(text.encode("utf-8", "surrogatepass"))
    return str(path)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_treebank_loader_succeeds_or_names_the_file(work, data):
    path = write(work / "train.txt", data.draw(texts(TRAIN)))
    try:
        load_trees(path, INVENTORY)
    except InputError as exc:
        assert str(exc).startswith(f"{path}: ")


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_rule_file_reader_succeeds_or_names_the_fault(work, rule_text, data):
    path = write(work / "rules.txt", data.draw(texts(rule_text)))
    try:
        rules = load_file(path, parse_rule_file)
    except InputError as exc:
        assert str(exc).startswith(f"{path}: ")
        return
    try:
        validate_rules(rules, INVENTORY)
    except RuleFileError:
        pass


FLAG_SETS = [
    ["--threshold", "1.0"],
    ["--coverage", "0.9"],
    ["--coverage", "0.9", "--restrictions"],
    ["--scheme", "arc-frequency", "--restrictions", "--threshold", "0.2"],
    ["--threshold", "1.0", "--mode", "andor"],
]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_run_exits_cleanly(work, data):
    train = write(work / "train.txt", data.draw(texts(TRAIN)))
    test = write(work / "test.txt", data.draw(edited(TEST)))
    flags = data.draw(st.sampled_from(FLAG_SETS))
    argv = ["run", "--grammar", str(TOY / "grammar.txt"), "--train", train,
            "--test", test, *flags, "--out", str(work / "out")]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    if code == 1:
        assert err.getvalue().startswith("error: "), err.getvalue()
    else:
        assert "error:" not in err.getvalue()
