"""Tests for lowering (procedure inlining, labelling) and the Program container."""

import pytest

from repro.lang.ast import SeqStmt
from repro.lang.lowering import LoweringError, lower_program
from repro.lang.parser import parse_program
from repro.lang.program import Program, ProgramError


def _lower(source: str) -> SeqStmt:
    return lower_program(parse_program(source))


class TestLowering:
    def test_entry_must_exist(self):
        with pytest.raises(LoweringError):
            _lower("proc helper() { skip; }")

    def test_entry_must_take_no_parameters(self):
        with pytest.raises(LoweringError):
            _lower("proc main(a) { skip; }")

    def test_simple_call_is_inlined(self):
        body = _lower(
            """
            proc double(v) { return v * 2; }
            proc main() { x = double(21); }
            """
        )
        # No CallExpr/CallStmt survive; an assignment computes the result.
        program = Program("p", body)
        assert program.statement_count() > 3

    def test_inlined_call_produces_correct_value(self):
        from repro.exec.concrete import ConcreteInterpreter

        program = Program.from_source(
            """
            proc double(v) { return v * 2; }
            proc main() { x = double(21); }
            """
        )
        report = ConcreteInterpreter(program).run(b"")
        assert report.final_environment["x"][0] == 42

    def test_nested_calls_inline(self):
        from repro.exec.concrete import ConcreteInterpreter

        program = Program.from_source(
            """
            proc inc(v) { return v + 1; }
            proc double_inc(v) { return inc(v) * 2; }
            proc main() { x = double_inc(4); }
            """
        )
        report = ConcreteInterpreter(program).run(b"")
        assert report.final_environment["x"][0] == 10

    def test_two_calls_get_independent_locals(self):
        from repro.exec.concrete import ConcreteInterpreter

        program = Program.from_source(
            """
            proc pick(v) { local = v + 1; return local; }
            proc main() { a = pick(1); b = pick(10); }
            """
        )
        env = ConcreteInterpreter(program).run(b"").final_environment
        assert env["a"][0] == 2 and env["b"][0] == 11

    def test_recursion_rejected(self):
        with pytest.raises(LoweringError):
            _lower(
                """
                proc loop(v) { return loop(v); }
                proc main() { x = loop(1); }
                """
            )

    def test_call_to_undefined_procedure_rejected(self):
        with pytest.raises(LoweringError):
            _lower("proc main() { x = nothing(); }")

    def test_wrong_arity_rejected(self):
        with pytest.raises(LoweringError):
            _lower("proc f(a, b) { return a; } proc main() { x = f(1); }")

    def test_call_in_while_condition_rejected(self):
        with pytest.raises(LoweringError):
            _lower(
                """
                proc f() { return 1; }
                proc main() { while (f() > 0) { skip; } }
                """
            )

    def test_early_return_rejected(self):
        with pytest.raises(LoweringError):
            _lower(
                """
                proc f(v) { return v; x = 1; }
                proc main() { y = f(2); }
                """
            )

    def test_return_value_at_top_level_rejected(self):
        with pytest.raises(LoweringError):
            _lower("proc main() { return 3; }")

    def test_labels_are_unique_and_total(self):
        program = Program.from_source(
            """
            proc main() {
              x = 1;
              if (x > 0) { y = 2; } else { y = 3; }
              while (y > 0) { y = y - 1; }
            }
            """
        )
        labels = [s.label for s in program.statements()]
        assert len(labels) == len(set(labels))
        assert all(label is not None for label in labels)


class TestProgram:
    SOURCE = """
    proc main() {
      size = input(0) * 4;
      buf = alloc(size) @ "site.a";
      other = alloc(64) @ "site.b";
      if (size > 8) { buf[0] = 1; }
    }
    """

    def test_from_source_builds(self):
        program = Program.from_source(self.SOURCE)
        assert program.statement_count() >= 5

    def test_allocation_sites_found(self):
        program = Program.from_source(self.SOURCE)
        assert len(program.allocation_sites()) == 2

    def test_tag_lookup(self):
        program = Program.from_source(self.SOURCE)
        label = program.label_of_tag("site.a")
        (site,) = [s for s in program.allocation_sites() if s.tag == "site.a"]
        assert site.label == label

    def test_unknown_tag_raises(self):
        program = Program.from_source(self.SOURCE)
        with pytest.raises(ProgramError):
            program.label_of_tag("missing")

    def test_duplicate_tags_rejected(self):
        source = """
        proc main() {
          a = alloc(4) @ "dup";
          b = alloc(4) @ "dup";
        }
        """
        with pytest.raises(ProgramError):
            Program.from_source(source)

    def test_repr_mentions_counts(self):
        program = Program.from_source(self.SOURCE)
        assert "allocation_sites=2" in repr(program)
