"""Tests for the lightweight C parser."""

import pytest

from repro.lang import (
    BlockStmt,
    DoWhileStmt,
    ForStmt,
    GotoStmt,
    IfStmt,
    LabelStmt,
    ReturnStmt,
    SwitchStmt,
    WhileStmt,
    find_if_statements,
    parse_function_body,
    parse_translation_unit,
    walk,
)

SAMPLE = """#include <stdio.h>

static int helper(int x) {
    if (x > 0 && x < 100) {
        return x * 2;
    } else if (x == 0)
        return 0;
    return -1;
}

int main(int argc, char **argv)
{
    int total = 0;
    char *buf = malloc(64);
    if (!buf)
        return 1;
    for (int i = 0; i < argc; i++) {
        total += helper(i);
        while (total > 1000) {
            total /= 2;
        }
    }
    switch (total) {
    case 0:
        break;
    default:
        printf("%d", total);
    }
    do {
        total--;
    } while (total > 10);
out:
    free(buf);
    return total;
}
"""


@pytest.fixture(scope="module")
def unit():
    return parse_translation_unit(SAMPLE, "sample.c")


class TestFunctions:
    def test_two_functions_found(self, unit):
        assert [f.name for f in unit.functions] == ["helper", "main"]

    def test_spans(self, unit):
        helper = unit.functions[0]
        assert helper.start_line == 3
        assert helper.end_line == 9

    def test_params_text(self, unit):
        assert unit.functions[1].params_text == "(int argc, char **argv)"

    def test_return_type(self, unit):
        assert unit.functions[0].return_type_text == "static int"

    def test_function_at(self, unit):
        assert unit.function_at(5).name == "helper"
        assert unit.function_at(20).name == "main"
        assert unit.function_at(1) is None


class TestIfStatements:
    def test_all_ifs_found(self, unit):
        ifs = find_if_statements(unit)
        assert len(ifs) == 3

    def test_conditions_extracted(self, unit):
        conds = [i.cond.text for i in find_if_statements(unit)]
        assert "x > 0 && x < 100" in conds
        assert "x == 0" in conds
        assert "!buf" in conds

    def test_else_if_nested(self, unit):
        outer = find_if_statements(unit)[0]
        assert isinstance(outer.orelse, IfStmt)

    def test_braced_flag(self, unit):
        ifs = find_if_statements(unit)
        assert ifs[0].then_braced
        assert not ifs[2].then_braced

    def test_condition_coordinates_align(self, unit):
        lines = SAMPLE.splitlines()
        for stmt in find_if_statements(unit):
            assert lines[stmt.cond_open_line - 1][stmt.cond_open_col - 1] == "("
            assert lines[stmt.cond_close_line - 1][stmt.cond_close_col - 1] == ")"


class TestOtherStatements:
    def test_loops_found(self, unit):
        nodes = [n for f in unit.functions for n in walk(f)]
        assert sum(1 for n in nodes if isinstance(n, ForStmt)) == 1
        assert sum(1 for n in nodes if isinstance(n, WhileStmt)) == 1
        assert sum(1 for n in nodes if isinstance(n, DoWhileStmt)) == 1

    def test_switch_found(self, unit):
        nodes = [n for f in unit.functions for n in walk(f)]
        switches = [n for n in nodes if isinstance(n, SwitchStmt)]
        assert len(switches) == 1
        assert switches[0].cond.text == "total"

    def test_label_found(self, unit):
        nodes = [n for f in unit.functions for n in walk(f)]
        labels = [n for n in nodes if isinstance(n, LabelStmt)]
        assert any(l.name == "out" for l in labels)

    def test_returns_found(self, unit):
        nodes = [n for f in unit.functions for n in walk(f)]
        returns = [n for n in nodes if isinstance(n, ReturnStmt)]
        assert len(returns) >= 4


class TestGoto:
    def test_goto_parsed(self):
        unit = parse_translation_unit("void f(void) {\n    if (1)\n        goto out;\nout:\n    return;\n}\n")
        gotos = [n for n in walk(unit.functions[0]) if isinstance(n, GotoStmt)]
        assert len(gotos) == 1
        assert gotos[0].label == "out"


class TestParseFunctionBody:
    def test_block_parse(self):
        block = parse_function_body("{ int x = 1; if (x) x = 2; }")
        assert isinstance(block, BlockStmt)
        assert len(block.stmts) == 2

    def test_raises_without_brace(self):
        from repro.errors import ParseError

        with pytest.raises(ParseError):
            parse_function_body("int x = 1;")


class TestRobustness:
    def test_struct_definitions_skipped(self):
        src = "struct point { int x; int y; };\n\nint get_x(struct point *p) {\n    return p->x;\n}\n"
        unit = parse_translation_unit(src)
        assert [f.name for f in unit.functions] == ["get_x"]

    def test_prototypes_not_definitions(self):
        src = "int foo(int x);\nint foo(int x) {\n    return x;\n}\n"
        unit = parse_translation_unit(src)
        assert len(unit.functions) == 1

    def test_global_declarations_skipped(self):
        src = "static int counter = 0;\nchar *names[] = { \"a\", \"b\" };\nvoid f(void) {\n    counter++;\n}\n"
        unit = parse_translation_unit(src)
        assert [f.name for f in unit.functions] == ["f"]

    def test_empty_file(self):
        unit = parse_translation_unit("")
        assert unit.functions == []

    def test_preprocessor_heavy_file(self):
        src = "#ifdef A\nint f(void) {\n#else\nint f(int x) {\n#endif\n    return 0;\n}\n"
        # Must not raise; structure is best-effort.
        parse_translation_unit(src)

    def test_unbalanced_braces_no_crash(self):
        parse_translation_unit("int f(void) {\n    if (x) {\n    return 0;\n")

    def test_multiline_condition(self):
        src = "int f(int a, int b) {\n    if (a > 0 &&\n        b < 10) {\n        return 1;\n    }\n    return 0;\n}\n"
        unit = parse_translation_unit(src)
        stmt = find_if_statements(unit)[0]
        assert "a > 0" in stmt.cond.text
        assert "b < 10" in stmt.cond.text
        assert stmt.cond_open_line == 2
        assert stmt.cond_close_line == 3

    def test_span_contains(self):
        unit = parse_translation_unit(SAMPLE)
        fn = unit.functions[0]
        assert fn.span_contains(fn.start_line)
        assert fn.span_contains(fn.end_line)
        assert not fn.span_contains(fn.end_line + 1)

    def test_form_feed_line_keeps_statement_text(self):
        # Token lines count "\n" only; a form feed on its own line must not
        # shift the source line every later statement's text is read from.
        src = "int f(void)\n{\n\f\n    if (a > 1)\n        b = 2;\n    return c;\n}\n"
        unit = parse_translation_unit(src)
        assert find_if_statements(unit)[0].cond.text == "a > 1"
        returns = [n for n in walk(unit.functions[0]) if isinstance(n, ReturnStmt)]
        assert [r.value_text for r in returns] == ["c"]
        assert unit.end_line == 7

    def test_crlf_text_reads_as_lf(self):
        src = "int f(void)\n{\n    if (a > 1)\n        b = 2;\n    return c;\n}\n"
        lf = parse_translation_unit(src)
        crlf = parse_translation_unit(src.replace("\n", "\r\n"))
        assert crlf.functions == lf.functions
        assert crlf.end_line == lf.end_line == 6
