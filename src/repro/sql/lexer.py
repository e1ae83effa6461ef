"""SQL tokenizer."""

from __future__ import annotations

import dataclasses

from repro.errors import SqlError

KEYWORDS = {
    "select", "from", "where", "and", "or", "not", "as", "group", "by",
    "between", "in", "like", "count", "sum", "min", "max", "avg",
    "having", "order", "limit", "asc", "desc",
}

_PUNCTUATION = {
    "(": "lparen",
    ")": "rparen",
    ",": "comma",
    "*": "star",
    ".": "dot",
}

_OPERATOR_CHARS = "<>=!"


@dataclasses.dataclass(frozen=True)
class Token:
    """One lexical token: kind, normalized text, source offset."""

    kind: str       # keyword | identifier | number | string | op | punctuation | parameter
    text: str
    position: int

    def is_keyword(self, word: str) -> bool:
        return self.kind == "keyword" and self.text == word


def tokenize(sql: str) -> list[Token]:
    """Tokenize SQL text; raises :class:`SqlError` on bad input."""
    tokens: list[Token] = []
    i = 0
    length = len(sql)
    while i < length:
        ch = sql[i]
        if ch.isspace():
            i += 1
            continue
        if ch == "-" and sql[i: i + 2] == "--":
            newline = sql.find("\n", i)
            i = length if newline < 0 else newline + 1
            continue
        if ch == "'":
            end = i + 1
            parts: list[str] = []
            while True:
                if end >= length:
                    raise SqlError("unterminated string literal", i)
                if sql[end] == "'":
                    if end + 1 < length and sql[end + 1] == "'":
                        parts.append("'")
                        end += 2
                        continue
                    break
                parts.append(sql[end])
                end += 1
            tokens.append(Token("string", "".join(parts), i))
            i = end + 1
            continue
        if ch.isdigit() or (
            ch == "-" and i + 1 < length and sql[i + 1].isdigit() and _prev_is_value_boundary(tokens)
        ):
            end = i + 1
            seen_dot = False
            while end < length and (sql[end].isdigit() or (sql[end] == "." and not seen_dot)):
                if sql[end] == ".":
                    # do not consume a trailing dot (qualified names)
                    if end + 1 >= length or not sql[end + 1].isdigit():
                        break
                    seen_dot = True
                end += 1
            tokens.append(Token("number", sql[i:end], i))
            i = end
            continue
        if ch.isalpha() or ch == "_":
            end = i + 1
            while end < length and (sql[end].isalnum() or sql[end] == "_"):
                end += 1
            word = sql[i:end]
            lowered = word.lower()
            if lowered in KEYWORDS:
                tokens.append(Token("keyword", lowered, i))
            else:
                tokens.append(Token("identifier", word, i))
            i = end
            continue
        if ch in _OPERATOR_CHARS:
            two = sql[i: i + 2]
            if two in ("<=", ">=", "<>", "!="):
                text = "<>" if two == "!=" else two
                tokens.append(Token("op", text, i))
                i += 2
            elif ch in "<>=":
                tokens.append(Token("op", ch, i))
                i += 1
            else:
                raise SqlError(f"unexpected character {ch!r}", i)
            continue
        if ch in _PUNCTUATION:
            tokens.append(Token(_PUNCTUATION[ch], ch, i))
            i += 1
            continue
        raise SqlError(f"unexpected character {ch!r}", i)
    return tokens


def _prev_is_value_boundary(tokens: list[Token]) -> bool:
    """Heuristic: a ``-`` starts a negative number literal only after an
    operator, comma, or opening parenthesis."""
    if not tokens:
        return True
    return tokens[-1].kind in ("op", "comma", "lparen", "keyword")
