"""Unit tests for the SQL tokenizer."""

import pytest

from repro.common.errors import SQLSyntaxError
from repro.sqlparser.lexer import Token, TokenType, tokenize


def kinds(sql):
    return [(t.type, t.value) for t in tokenize(sql)[:-1]]


class TestBasicTokens:
    def test_keywords_are_uppercased(self):
        assert kinds("select") == [(TokenType.KEYWORD, "SELECT")]
        assert kinds("SeLeCt") == [(TokenType.KEYWORD, "SELECT")]

    def test_identifiers_keep_case(self):
        assert kinds("l_orderkey") == [(TokenType.IDENT, "l_orderkey")]
        assert kinds("S3Object") == [(TokenType.IDENT, "S3Object")]

    def test_eof_token_is_appended(self):
        tokens = tokenize("x")
        assert tokens[-1].type is TokenType.EOF

    def test_integer_and_float_literals(self):
        assert kinds("42") == [(TokenType.NUMBER, "42")]
        assert kinds("3.14") == [(TokenType.NUMBER, "3.14")]
        assert kinds(".5") == [(TokenType.NUMBER, ".5")]
        assert kinds("1e6") == [(TokenType.NUMBER, "1e6")]
        assert kinds("2.5E-3") == [(TokenType.NUMBER, "2.5E-3")]

    def test_number_followed_by_dot_access_not_confused(self):
        # "1e" alone is ident-ish garbage; make sure plain ints stop cleanly.
        assert kinds("1 e") == [(TokenType.NUMBER, "1"), (TokenType.IDENT, "e")]

    def test_string_literals(self):
        assert kinds("'hello'") == [(TokenType.STRING, "hello")]
        assert kinds("''") == [(TokenType.STRING, "")]

    def test_string_with_escaped_quote(self):
        assert kinds("'it''s'") == [(TokenType.STRING, "it's")]

    def test_unterminated_string_raises(self):
        with pytest.raises(SQLSyntaxError):
            tokenize("'oops")

    def test_multi_kb_literal_with_escapes(self):
        body = ("01" * 2000 + "''") * 3 + "1" * 500
        tokens = tokenize(f"x = '{body}' AND y = 'z'")
        assert tokens[2] == Token(TokenType.STRING, body.replace("''", "'"), 4)
        assert [t.value for t in tokens[3:-1]] == ["AND", "y", "=", "z"]

    def test_unterminated_string_reports_its_opening_quote(self):
        for sql, position in [
            ("a = 'oops", 4),
            ("'a' || 'it''s", 7),
            ("'" + "01" * 3000 + "''", 0),
        ]:
            with pytest.raises(SQLSyntaxError) as err:
                tokenize(sql)
            assert err.value.position == position

    def test_operators(self):
        ops = [v for _, v in kinds("a <= b <> c != d || e % f")]
        assert "<=" in ops and "<>" in ops and "!=" in ops
        assert "||" in ops and "%" in ops

    def test_longest_operator_wins(self):
        assert kinds("<=")[0] == (TokenType.OPERATOR, "<=")
        assert kinds("<")[0] == (TokenType.OPERATOR, "<")

    def test_punctuation(self):
        values = [v for _, v in kinds("f(a, b.c)")]
        assert values == ["f", "(", "a", ",", "b", ".", "c", ")"]

    def test_unknown_character_raises_with_position(self):
        with pytest.raises(SQLSyntaxError) as err:
            tokenize("a @ b")
        assert err.value.position == 2

    def test_line_comments_skipped(self):
        assert kinds("a -- comment\n b") == [
            (TokenType.IDENT, "a"),
            (TokenType.IDENT, "b"),
        ]

    def test_positions_recorded(self):
        tokens = tokenize("ab  cd")
        assert tokens[0].position == 0
        assert tokens[1].position == 4

    def test_is_keyword_helper(self):
        token = Token(TokenType.KEYWORD, "SELECT", 0)
        assert token.is_keyword("SELECT")
        assert not token.is_keyword("FROM")


class TestRealQueries:
    def test_bloom_query_tokenizes(self):
        sql = (
            "SELECT * FROM S3Object WHERE "
            "SUBSTRING('100011', ((69 * CAST(attr as INT) + 92) % 97) % 68 + 1, 1) = '1'"
        )
        tokens = tokenize(sql)
        assert tokens[-1].type is TokenType.EOF
        assert any(t.value == "SUBSTRING" for t in tokens)

    def test_case_expression_tokenizes(self):
        sql = "SELECT sum(CASE WHEN g = 0 THEN v ELSE 0 END) FROM S3Object"
        values = [t.value for t in tokenize(sql)]
        for keyword in ("CASE", "WHEN", "THEN", "ELSE", "END"):
            assert keyword in values
