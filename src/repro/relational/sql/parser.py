"""Recursive-descent parser for the SQL subset.

Produces an :class:`~repro.relational.algebra.SPJQuery` for plain
select-project-join queries, or an
:class:`~repro.relational.aggregates.AggregateQuery` when the select
list contains aggregate functions.
"""

from __future__ import annotations

import functools
from typing import List, Optional, Tuple, Union

from repro.errors import SQLSyntaxError, UnsupportedQueryError
from repro.relational.aggregates import AggregateQuery, AggregateSpec
from repro.relational.algebra import OutputColumn, RelationRef, SPJQuery
from repro.relational.expressions import (
    Abs,
    Arithmetic,
    ColumnRef,
    Expression,
    Literal,
    Negate,
)
from repro.relational.predicates import (
    And,
    Comparison,
    FalsePredicate,
    Not,
    Or,
    Predicate,
    TruePredicate,
    conjunction,
)
from repro.relational.sql.lexer import Token, TokenKind, tokenize

AGG_KEYWORDS = {"SUM", "COUNT", "AVG", "MIN", "MAX"}

ParsedQuery = Union[SPJQuery, AggregateQuery]


#: Distinct SQL texts :func:`parse_query` keeps parsed (least recently
#: used first out).
PARSE_MEMO_SIZE = 1024


@functools.lru_cache(maxsize=PARSE_MEMO_SIZE)
def parse_query(text: str) -> ParsedQuery:
    """Parse one SELECT statement into a query object.

    Memoised by text: a continual query is a standing template many
    subscribers register, and re-parsing it per registration was most
    of what registering cost. A parsed query is a value — no field of an
    ``SPJQuery``/``AggregateQuery`` is assigned after ``__init__`` — so
    every caller may share the one object. A syntax error raises on
    every call and caches nothing; ``parse_query.__wrapped__`` is the
    uncached parser.
    """
    parser = _Parser(tokenize(text))
    query = parser.parse_select()
    parser.expect_eof()
    return query


class _SelectItem:
    """One parsed select-list entry (column or aggregate)."""

    __slots__ = ("ref", "agg", "alias")

    def __init__(self, ref: Optional[ColumnRef], agg: Optional[Tuple[str, Optional[ColumnRef]]], alias: Optional[str]):
        self.ref = ref
        self.agg = agg
        self.alias = alias


class _Parser:
    def __init__(self, tokens: List[Token]):
        self.tokens = tokens
        self.pos = 0

    # -- token helpers -------------------------------------------------

    def peek(self, ahead: int = 0) -> Token:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def advance(self) -> Token:
        token = self.tokens[self.pos]
        if token.kind is not TokenKind.EOF:
            self.pos += 1
        return token

    def accept_keyword(self, word: str) -> bool:
        if self.peek().is_keyword(word):
            self.advance()
            return True
        return False

    def accept_symbol(self, symbol: str) -> bool:
        if self.peek().is_symbol(symbol):
            self.advance()
            return True
        return False

    def expect_keyword(self, word: str) -> Token:
        token = self.peek()
        if not token.is_keyword(word):
            raise SQLSyntaxError(
                f"expected {word}, got {token.text or 'end of input'!r}",
                position=token.position,
            )
        return self.advance()

    def expect_symbol(self, symbol: str) -> Token:
        token = self.peek()
        if not token.is_symbol(symbol):
            raise SQLSyntaxError(
                f"expected {symbol!r}, got {token.text or 'end of input'!r}",
                position=token.position,
            )
        return self.advance()

    def expect_ident(self) -> str:
        token = self.peek()
        if token.kind is not TokenKind.IDENT:
            raise SQLSyntaxError(
                f"expected identifier, got {token.text or 'end of input'!r}",
                position=token.position,
            )
        return self.advance().text

    def expect_eof(self) -> None:
        token = self.peek()
        if token.kind is not TokenKind.EOF:
            raise SQLSyntaxError(
                f"trailing input starting at {token.text!r}",
                position=token.position,
            )

    # -- grammar -------------------------------------------------------

    def parse_select(self) -> ParsedQuery:
        self.expect_keyword("SELECT")
        if self.accept_keyword("DISTINCT"):
            raise UnsupportedQueryError(
                "DISTINCT is implicit under tid-keyed set semantics; "
                "use Relation.distinct_values() for value semantics"
            )
        star, items = self.parse_select_list()
        self.expect_keyword("FROM")
        relations = self.parse_from_list()
        predicate: Predicate = TruePredicate()
        if self.accept_keyword("WHERE"):
            predicate = self.parse_or_expr()
        group_by: List[ColumnRef] = []
        if self.accept_keyword("GROUP"):
            self.expect_keyword("BY")
            group_by.append(self.parse_column_ref())
            while self.accept_symbol(","):
                group_by.append(self.parse_column_ref())
        having: Optional[Predicate] = None
        if self.accept_keyword("HAVING"):
            # HAVING references *output* columns: group keys or
            # aggregate aliases (e.g. HAVING total > 100).
            having = self.parse_or_expr()

        has_aggregates = any(item.agg is not None for item in items)
        if not has_aggregates:
            if group_by:
                raise UnsupportedQueryError(
                    "GROUP BY without aggregate functions is not supported"
                )
            if having is not None:
                raise UnsupportedQueryError(
                    "HAVING requires aggregate functions in the select list"
                )
            projection = (
                None
                if star
                else [OutputColumn(item.ref, item.alias) for item in items]
            )
            return SPJQuery(relations, predicate, projection)

        plain = [item for item in items if item.agg is None]
        group_names = {ref.to_sql() for ref in group_by}
        for item in plain:
            if item.ref.to_sql() not in group_names:
                raise UnsupportedQueryError(
                    f"non-aggregated column {item.ref.to_sql()!r} must appear "
                    "in GROUP BY"
                )
        specs = [
            AggregateSpec(item.agg[0], item.agg[1], item.alias)
            for item in items
            if item.agg is not None
        ]
        # The SPJ core exposes all columns (SELECT *) so group keys and
        # aggregate arguments resolve against its output.
        core = SPJQuery(relations, predicate, None)
        return AggregateQuery(core, specs, group_by, having=having)

    def parse_select_list(self) -> Tuple[bool, List[_SelectItem]]:
        if self.accept_symbol("*"):
            return True, []
        items = [self.parse_select_item()]
        while self.accept_symbol(","):
            items.append(self.parse_select_item())
        return False, items

    def parse_select_item(self) -> _SelectItem:
        token = self.peek()
        if token.kind is TokenKind.KEYWORD and token.text in AGG_KEYWORDS:
            func = self.advance().text
            self.expect_symbol("(")
            if self.accept_symbol("*"):
                if func != "COUNT":
                    raise SQLSyntaxError(
                        f"{func}(*) is not valid", position=token.position
                    )
                ref: Optional[ColumnRef] = None
            else:
                ref = self.parse_column_ref()
            self.expect_symbol(")")
            alias = self.parse_optional_alias()
            return _SelectItem(None, (func, ref), alias)
        ref = self.parse_column_ref()
        alias = self.parse_optional_alias()
        return _SelectItem(ref, None, alias)

    def parse_optional_alias(self) -> Optional[str]:
        if self.accept_keyword("AS"):
            return self.expect_ident()
        if self.peek().kind is TokenKind.IDENT:
            return self.advance().text
        return None

    def parse_from_list(self) -> List[RelationRef]:
        relations = [self.parse_relation_ref()]
        while self.accept_symbol(","):
            relations.append(self.parse_relation_ref())
        return relations

    def parse_relation_ref(self) -> RelationRef:
        table = self.expect_ident()
        alias = self.parse_optional_alias()
        return RelationRef(table, alias)

    def parse_column_ref(self) -> ColumnRef:
        first = self.expect_ident()
        if self.accept_symbol("."):
            second = self.expect_ident()
            return ColumnRef(second, first)
        return ColumnRef(first)

    # -- predicates ----------------------------------------------------

    def parse_or_expr(self) -> Predicate:
        children = [self.parse_and_expr()]
        while self.accept_keyword("OR"):
            children.append(self.parse_and_expr())
        if len(children) == 1:
            return children[0]
        return Or(*children)

    def parse_and_expr(self) -> Predicate:
        children = [self.parse_not_expr()]
        while self.accept_keyword("AND"):
            children.append(self.parse_not_expr())
        return conjunction(children)

    def parse_not_expr(self) -> Predicate:
        if self.accept_keyword("NOT"):
            return Not(self.parse_not_expr())
        return self.parse_primary_predicate()

    def parse_primary_predicate(self) -> Predicate:
        token = self.peek()
        if token.is_keyword("TRUE") and not self.peek(1).is_symbol("."):
            # Bare boolean keyword as predicate.
            marker = self.pos
            self.advance()
            if self._at_predicate_boundary():
                return TruePredicate()
            self.pos = marker
        if token.is_keyword("FALSE"):
            marker = self.pos
            self.advance()
            if self._at_predicate_boundary():
                return FalsePredicate()
            self.pos = marker
        if token.is_symbol("("):
            # Backtracking: "(p AND q)" is a predicate; "(a + b) > 3"
            # starts with a parenthesized arithmetic expression.
            marker = self.pos
            try:
                self.advance()
                inner = self.parse_or_expr()
                self.expect_symbol(")")
                if self._at_predicate_boundary():
                    return inner
            except SQLSyntaxError:
                pass
            self.pos = marker
        return self.parse_comparison()

    def _at_predicate_boundary(self) -> bool:
        """True if the next token cannot continue an expression."""
        token = self.peek()
        if token.kind is TokenKind.EOF:
            return True
        if token.kind is TokenKind.KEYWORD and token.text in (
            "AND",
            "OR",
            "GROUP",
        ):
            return True
        return token.is_symbol(")")

    def parse_comparison(self) -> Predicate:
        left = self.parse_arith()
        token = self.peek()
        if token.kind is TokenKind.KEYWORD and token.text == "BETWEEN":
            self.advance()
            low = self.parse_arith()
            self.expect_keyword("AND")
            high = self.parse_arith()
            return And(Comparison(">=", left, low), Comparison("<=", left, high))
        for op in ("<=", ">=", "<>", "!=", "=", "<", ">"):
            if token.is_symbol(op):
                self.advance()
                right = self.parse_arith()
                return Comparison(op, left, right)
        raise SQLSyntaxError(
            f"expected comparison operator, got {token.text or 'end of input'!r}",
            position=token.position,
        )

    # -- arithmetic ------------------------------------------------------

    def parse_arith(self) -> Expression:
        expr = self.parse_term()
        while True:
            if self.accept_symbol("+"):
                expr = Arithmetic("+", expr, self.parse_term())
            elif self.accept_symbol("-"):
                expr = Arithmetic("-", expr, self.parse_term())
            else:
                return expr

    def parse_term(self) -> Expression:
        expr = self.parse_factor()
        while True:
            if self.accept_symbol("*"):
                expr = Arithmetic("*", expr, self.parse_factor())
            elif self.accept_symbol("/"):
                expr = Arithmetic("/", expr, self.parse_factor())
            else:
                return expr

    def parse_factor(self) -> Expression:
        token = self.peek()
        if token.kind is TokenKind.NUMBER:
            self.advance()
            return Literal(token.value)
        if token.kind is TokenKind.STRING:
            self.advance()
            return Literal(token.value)
        if token.is_keyword("TRUE"):
            self.advance()
            return Literal(True)
        if token.is_keyword("FALSE"):
            self.advance()
            return Literal(False)
        if token.is_keyword("ABS"):
            self.advance()
            self.expect_symbol("(")
            inner = self.parse_arith()
            self.expect_symbol(")")
            return Abs(inner)
        if token.is_symbol("-"):
            self.advance()
            operand = self.parse_factor()
            # Fold negative numeric literals so `-1` round-trips as a
            # Literal rather than Negate(Literal).
            if isinstance(operand, Literal) and isinstance(
                operand.value, (int, float)
            ) and not isinstance(operand.value, bool):
                return Literal(-operand.value)
            return Negate(operand)
        if token.is_symbol("("):
            self.advance()
            inner = self.parse_arith()
            self.expect_symbol(")")
            return inner
        if token.kind is TokenKind.IDENT:
            return self.parse_column_ref()
        raise SQLSyntaxError(
            f"expected expression, got {token.text or 'end of input'!r}",
            position=token.position,
        )
