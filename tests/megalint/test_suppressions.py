"""Inline suppression comments: the escape hatch must work and be
accounted for (suppressed findings are counted, not lost).
"""


FILES_ONE_VIOLATION = {
    "repro/pipeline/dbg.py": '''\
        """Docstring is fine."""
        def run(stats):
            print("hits:", stats.hits)
    ''',
}


class TestInlineSuppression:
    def test_disable_single_rule_on_line(self, lint):
        result = lint({
            "repro/pipeline/dbg.py": '''\
                """Docstring is fine."""
                def run(stats):
                    print("x", stats)  # megalint: disable=MEGA009
            ''',
        }, select={"MEGA009"})
        assert result.ok
        assert result.suppressed == 1

    def test_disable_all_on_line(self, lint):
        result = lint({
            "repro/pipeline/dbg.py": '''\
                """Docstring is fine."""
                def run(stats):
                    print("x", stats)  # megalint: disable=all
            ''',
        }, select={"MEGA009"})
        assert result.ok and result.suppressed == 1

    def test_comma_separated_ids(self, lint):
        result = lint({
            "repro/graph/g2.py": '''\
                """Docstring is fine."""
                def f(pairs):
                    return list(set(pairs)), print(pairs)  # megalint: disable=MEGA002,MEGA009
            ''',
        }, select={"MEGA002", "MEGA009"})
        assert result.ok and result.suppressed == 2

    def test_wrong_id_does_not_suppress(self, lint):
        result = lint({
            "repro/pipeline/dbg.py": '''\
                """Docstring is fine."""
                def run(stats):
                    print("x", stats)  # megalint: disable=MEGA002
            ''',
        }, select={"MEGA009"})
        assert len(result.violations) == 1
        assert result.suppressed == 0

    def test_suppression_is_line_scoped(self, lint):
        # Only the marked line is exempt; the same violation two lines
        # later still fires.
        result = lint({
            "repro/pipeline/dbg.py": '''\
                """Docstring is fine."""
                def run(stats):
                    print("a")  # megalint: disable=MEGA009
                    print("b")
            ''',
        }, select={"MEGA009"})
        assert len(result.violations) == 1
        assert result.violations[0].line == 4
        assert result.suppressed == 1

    def test_real_repo_suppression_round_trips(self, lint):
        # The env var that picks the cache directory (never part of a
        # key), silenced the old way: an inline disable of the alias.
        result = lint({
            "repro/pipeline/cache.py": '''\
                """Docstring is fine."""
                import os
                def default_dir():
                    return os.environ.get("X")  # megalint: disable=MEGA004
            ''',
        }, select={"MEGA004"})
        assert result.ok and result.suppressed == 1
