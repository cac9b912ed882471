"""Minimal S-expression reader used by the grammar and rule file formats.

Expressions are nested lists of symbols.  A symbol is any run of
characters other than whitespace, parentheses, double quotes and ``#``;
double-quoted symbols may contain those characters (with ``\\`` escapes
for ``"`` and ``\\``).  ``#`` outside quotes starts a comment running to
end of line.

A fold of ``read_all`` returns a ``Fault``, the one stand-in for a list
at fault, and only this module turns a fault's place into a line.
"""

import re
from dataclasses import dataclass
from itertools import islice

# One token per match, in text order: a parenthesis, a bare symbol, a
# quoted symbol or a comment.  A '"' that no closing quote ends takes the
# rest of the text as its token, so even malformed text is scanned once.
# Whitespace between tokens is skipped by the search.
_QUOTED = r'"(?:[^"\\]|\\.)*"'
_TOKEN = re.compile(rf'[()]|[^\s()"#]+|{_QUOTED}|".*|#[^\n]*', re.S)
_CLOSED = re.compile(_QUOTED, re.S)
_ESCAPE = re.compile(r"\\(.)", re.S)
_DANGLING = re.compile(r'(?:[^"\\]|\\.)*\\', re.S)


class LineNumberedError(Exception):
    """A fault in an input text: *message* at 1-based line *line_no*."""

    def __init__(self, message: str, line_no: int):
        super().__init__(f"line {line_no}: {message}")
        self.message = message
        self.line_no = line_no


class SexprError(LineNumberedError):
    """Raised on malformed S-expression text."""


def _line_at(text: str, offset: int) -> int:
    """1-based line of the character at *offset*."""
    return text.count("\n", 0, offset) + 1


def _unquote(token: str) -> str:
    """Body of a quoted token with escapes resolved."""
    body = token[1:-1]
    return _ESCAPE.sub(r"\1", body) if "\\" in body else body


def _unterminated(text: str, offset: int) -> SexprError:
    """The error for a '"' at *offset* that no closing quote ends.

    The text ends inside the quoted symbol, either on a dangling escape
    or before any closing quote.
    """
    if _DANGLING.fullmatch(text, offset + 1):
        return SexprError("dangling escape", _line_at(text, len(text) - 1))
    return SexprError("unterminated quoted symbol", _line_at(text, offset))


def _token_line(text: str, index: int) -> int:
    """Line of the *index*-th token of *text* (0-based, comments counted)."""
    return _line_at(text, next(islice(_TOKEN.finditer(text), index, None)).start())


def _item_line(text: str, at: int | None, k: int) -> int:
    """Line of the *k*-th item of the list whose '(' is token *at*.

    With *at* None the items are the top-level expressions.  Only error
    reporting needs this, so it rescans the text.
    """
    matches = islice(_TOKEN.finditer(text), 0 if at is None else at + 1, None)
    depth = 0
    count = 0
    for match in matches:
        token = match.group()
        if token[0] == "#":
            continue
        if depth == 0 and token != ")":
            if count == k:
                return _line_at(text, match.start())
            count += 1
        if token == "(":
            depth += 1
        elif token == ")":
            depth -= 1
    raise IndexError(k)


@dataclass(frozen=True, slots=True)
class Fault:
    """A list that failed its check, standing in for its value.

    A fold passes on the first fault among a list's items, so the fault
    that reaches the top is the first a walk from the root would meet.
    Its place is the list whose '(' is token *at* (see ``read_all``);
    with *k* set it is that list's *k*-th item instead, and *at* None
    then means the top level.
    """

    kind: type  # a LineNumberedError
    message: str
    at: int | None
    k: int | None = None

    def line(self, text: str) -> int:
        """The line of the fault's place in *text*."""
        if self.k is None:
            return _token_line(text, self.at)
        return _item_line(text, self.at, self.k)

    def error(self, text: str) -> LineNumberedError:
        return self.kind(self.message, self.line(text))


def read_all(text: str, close) -> list:
    """Parse every top-level expression in *text*.

    Atoms are plain strings.  Each list becomes ``close(items, at)`` as
    soon as its ')' is read, where *at* is the index of its '(' among the
    text's tokens (a ``Fault`` names a list by it).  Raises SexprError on
    unbalanced parentheses and unterminated quoted symbols.
    """
    stack: list[list] = []  # the item lists of the open lists
    opens: list[int] = []  # token index of each open list's '('
    items: list = []
    for index, token in enumerate(_TOKEN.findall(text)):
        head = token[0]
        if head == "(":
            stack.append(items)
            opens.append(index)
            items = []
        elif head == ")":
            if not stack:
                raise SexprError("unbalanced ')'", _token_line(text, index))
            done = close(items, opens.pop())
            items = stack.pop()
            items.append(done)
        elif head == '"':
            if not _CLOSED.fullmatch(token):
                raise _unterminated(text, len(text) - len(token))
            items.append(_unquote(token))
        elif head != "#":
            items.append(token)
    if stack:
        raise SexprError("unclosed '('", _token_line(text, opens[-1]))
    return items


def quote_if_needed(word: str) -> str:
    """Render *word* as a symbol, quoting when it contains delimiters."""
    if word and not any(c.isspace() or c in '()"#' for c in word):
        return word
    escaped = word.replace("\\", "\\\\").replace('"', '\\"')
    return f'"{escaped}"'
