"""Recursive-descent parser for the SQL subset (see package docstring)."""

from __future__ import annotations

from typing import List, Optional

from repro.errors import SQLError
from repro.relational.expressions import (
    And,
    Cmp,
    Col,
    IsNotNull,
    Lit,
    LLMExpr,
    Not,
    Or,
)
from repro.relational.sql.lexer import Token, tokenize
from repro.relational.sql.nodes import (
    AggCall,
    JoinClause,
    SelectItem,
    SelectStmt,
    Star,
    TableRef,
)

_AGG_NAMES = {"AVG", "SUM", "COUNT", "MIN", "MAX"}


class _Parser:
    def __init__(self, tokens: List[Token]):
        self.tokens = tokens
        self.i = 0

    # ------------------------------------------------------------- plumbing
    def peek(self) -> Token:
        return self.tokens[self.i]

    def next(self) -> Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def at_keyword(self, *words: str) -> bool:
        t = self.peek()
        return t.kind == "KEYWORD" and t.value in words

    def expect_keyword(self, word: str) -> None:
        t = self.next()
        if t.kind != "KEYWORD" or t.value != word:
            raise SQLError(f"expected {word} at position {t.pos}, got {t.value!r}")

    def at_symbol(self, sym: str) -> bool:
        t = self.peek()
        return t.kind == "SYMBOL" and t.value == sym

    def expect_symbol(self, sym: str) -> None:
        t = self.next()
        if t.kind != "SYMBOL" or t.value != sym:
            raise SQLError(f"expected {sym!r} at position {t.pos}, got {t.value!r}")

    def accept_symbol(self, sym: str) -> bool:
        if self.at_symbol(sym):
            self.next()
            return True
        return False

    # ------------------------------------------------------------ statement
    def parse_select(self) -> SelectStmt:
        self.expect_keyword("SELECT")
        items = [self.parse_select_item()]
        while self.accept_symbol(","):
            items.append(self.parse_select_item())
        self.expect_keyword("FROM")
        source = self.parse_table_ref()
        joins: List[JoinClause] = []
        while self.at_keyword("JOIN"):
            self.next()
            ref = self.parse_table_ref()
            self.expect_keyword("ON")
            left = self.parse_column_name()
            self.expect_symbol("=")
            right = self.parse_column_name()
            joins.append(JoinClause(ref=ref, left_col=left, right_col=right))
        where = None
        if self.at_keyword("WHERE"):
            self.next()
            where = self.parse_expr()
        group_by: List[str] = []
        if self.at_keyword("GROUP"):
            self.next()
            self.expect_keyword("BY")
            group_by.append(self.parse_column_name())
            while self.accept_symbol(","):
                group_by.append(self.parse_column_name())
        limit = None
        if self.at_keyword("LIMIT"):
            self.next()
            t = self.next()
            if t.kind != "NUMBER" or not (t.value.isascii() and t.value.isdigit()):
                raise SQLError(
                    f"LIMIT expects a non-negative integer at {t.pos}, "
                    f"got {t.value!r}"
                )
            limit = int(t.value)
        return SelectStmt(
            items=items, source=source, joins=joins,
            where=where, group_by=group_by, limit=limit,
        )

    def parse_select_item(self) -> SelectItem:
        expr = self.parse_expr()
        alias = None
        if self.at_keyword("AS"):
            self.next()
            t = self.next()
            if t.kind != "IDENT":
                raise SQLError(f"expected alias identifier at {t.pos}")
            alias = t.value
        return SelectItem(expr=expr, alias=alias)

    def parse_table_ref(self) -> TableRef:
        if self.accept_symbol("("):
            sub = self.parse_select()
            self.expect_symbol(")")
            alias = self.parse_optional_alias()
            return TableRef(subquery=sub, alias=alias)
        t = self.next()
        if t.kind != "IDENT":
            raise SQLError(f"expected table name at {t.pos}, got {t.value!r}")
        return TableRef(name=t.value, alias=self.parse_optional_alias())

    def parse_optional_alias(self) -> Optional[str]:
        if self.at_keyword("AS"):
            self.next()
            t = self.next()
            if t.kind != "IDENT":
                raise SQLError(f"expected alias at {t.pos}")
            return t.value
        if self.peek().kind == "IDENT":
            return self.next().value
        return None

    def parse_column_name(self) -> str:
        t = self.next()
        if t.kind != "IDENT":
            raise SQLError(f"expected column name at {t.pos}, got {t.value!r}")
        name = t.value
        while self.at_symbol("."):
            self.next()
            nxt = self.next()
            if nxt.kind != "IDENT":
                raise SQLError(f"expected identifier after '.' at {nxt.pos}")
            name += "." + nxt.value
        return name

    # ---------------------------------------------------------- expressions
    def parse_expr(self):
        return self.parse_or()

    def parse_or(self):
        left = self.parse_and()
        while self.at_keyword("OR"):
            self.next()
            left = Or(left, self.parse_and())
        return left

    def parse_and(self):
        left = self.parse_not()
        while self.at_keyword("AND"):
            self.next()
            left = And(left, self.parse_not())
        return left

    def parse_not(self):
        if self.at_keyword("NOT"):
            self.next()
            return Not(self.parse_not())
        return self.parse_comparison()

    def parse_comparison(self):
        left = self.parse_primary()
        t = self.peek()
        if t.kind == "SYMBOL" and t.value in ("=", "<>", "!=", "<", "<=", ">", ">="):
            op = self.next().value
            if self.at_keyword("NULL"):
                self.next()
                if op in ("<>", "!="):
                    return IsNotNull(left)
                if op == "=":
                    return Not(IsNotNull(left))
                raise SQLError(f"cannot compare to NULL with {op!r}")
            right = self.parse_primary()
            return Cmp(op, left, right)
        if self.at_keyword("IS"):
            self.next()
            negated = False
            if self.at_keyword("NOT"):
                self.next()
                negated = True
            self.expect_keyword("NULL")
            expr = IsNotNull(left)
            return expr if negated else Not(expr)
        return left

    def parse_primary(self):
        t = self.peek()
        if t.kind == "SYMBOL" and t.value == "(":
            self.next()
            inner = self.parse_expr()
            self.expect_symbol(")")
            return inner
        if t.kind == "STRING":
            self.next()
            return Lit(t.value)
        if t.kind == "NUMBER":
            self.next()
            num = float(t.value)
            return Lit(int(num) if num.is_integer() else num)
        if t.kind == "SYMBOL" and t.value == "*":
            self.next()
            return Star()
        if t.kind == "IDENT":
            return self.parse_ident_expr()
        raise SQLError(f"unexpected token {t.value!r} at position {t.pos}")

    def parse_ident_expr(self):
        name = self.next().value
        # Function call?
        if self.at_symbol("("):
            self.next()
            return self.parse_call(name)
        # Qualified column or table.* reference.
        full = name
        while self.at_symbol("."):
            self.next()
            if self.accept_symbol("*"):
                return Star()  # `t.*` — planner expands to all columns
            nxt = self.next()
            if nxt.kind != "IDENT":
                raise SQLError(f"expected identifier after '.' at {nxt.pos}")
            full += "." + nxt.value
        return Col(full)

    def parse_call(self, name: str):
        upper = name.upper()
        args = []
        if not self.at_symbol(")"):
            args.append(self.parse_expr())
            while self.accept_symbol(","):
                args.append(self.parse_expr())
        self.expect_symbol(")")

        if upper == "LLM":
            if not args or not isinstance(args[0], Lit) or not isinstance(args[0].value, str):
                raise SQLError("LLM() requires a string prompt as its first argument")
            fields = []
            for a in args[1:]:
                if isinstance(a, Star):
                    fields.append("*")
                elif isinstance(a, Col):
                    fields.append(a.name)
                else:
                    raise SQLError("LLM() field arguments must be column references or *")
            if not fields:
                fields = ["*"]
            return LLMExpr(query=args[0].value, fields=tuple(fields))
        if upper in _AGG_NAMES:
            if len(args) != 1:
                raise SQLError(f"{upper}() takes exactly one argument")
            return AggCall(fn=upper, arg=args[0])
        raise SQLError(f"unknown function {name!r}")


def parse_sql(sql: str) -> SelectStmt:
    """Parse one SELECT statement; raises :class:`SQLError` on bad input."""
    parser = _Parser(tokenize(sql))
    stmt = parser.parse_select()
    trailing = parser.peek()
    if trailing.kind != "EOF":
        raise SQLError(f"unexpected trailing input at position {trailing.pos}: {trailing.value!r}")
    return stmt
