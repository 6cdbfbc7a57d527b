"""The entries of the opt-in mutation suite, tests/mutations.py, name text
of the tree, and the suite refuses an entry that does not."""
import mutations


def test_every_mutation_names_text_of_the_tree():
    assert mutations.stale(mutations.MUTATIONS) == []


def test_a_stale_mutation_is_refused_before_any_run(capsys):
    gone = mutations.Mutation("src/sigbound/engine.py", "no such text", "",
                              ("tests/test_engine.py",))
    assert mutations.run((*mutations.MUTATIONS, gone)) == 2
    assert "occurs 0 times" in capsys.readouterr().out
