import shlex

import pytest

import corpus


def test_manifest_lists_the_command_list():
    """The committed manifest holds one result per corpus command, in
    run order, and nothing else."""
    assert list(corpus.load(corpus.MANIFEST)) == [shlex.join(a) for a in corpus.commands()]


def test_corpus_matches_manifest(request):
    """Every corpus command exits and prints as pinned; opt-in, since
    the corpus takes tens of seconds."""
    if not request.config.getoption("--corpus", False):
        pytest.skip("the full corpus runs with --corpus")
    assert corpus.compare(corpus.load(corpus.MANIFEST), corpus.run_corpus()) == []


def test_compare_reports_changed_missing_and_added_commands():
    old = {"a": [0, "x"], "b": [0, "y"], "c": [1, "z"]}
    new = {"a": [0, "x"], "b": [0, "w"], "d": [0, "v"]}
    assert corpus.compare(old, new) == ["b", "c", "d"]
    assert corpus.compare(old, dict(old)) == []
