"""Code-version attribution stamped into trace-dir meta.

Attribution is best-effort and passive: inside a git checkout it names the
commit (tag first, ``-dirty`` when the tree has edits); anywhere else, and
whenever git is missing or stuck, a field degrades to ``None`` and no
exception escapes.
"""

from __future__ import annotations

import subprocess
import sys

import repro
from repro.obs import attribution as attr


def _git(cwd, *args):
    return subprocess.run(
        ["git", "-c", "user.name=t", "-c", "user.email=t@example.com", *args],
        cwd=cwd, capture_output=True, text=True, check=True, timeout=30,
    ).stdout.strip()


def _checkout(tmp_path):
    """A one-commit git repository under ``tmp_path``."""
    repo = tmp_path / "checkout"
    repo.mkdir()
    _git(repo, "init", "-q")
    (repo / "a.txt").write_text("one\n")
    _git(repo, "add", "a.txt")
    _git(repo, "commit", "-q", "-m", "first")
    return repo


class TestReproVersion:
    def test_is_the_package_version(self):
        assert attr.repro_version() == repro.__version__

    def test_is_none_when_the_package_cannot_be_imported(self, monkeypatch):
        monkeypatch.setitem(sys.modules, "repro", None)
        assert attr.repro_version() is None


class TestGitDescribe:
    def test_names_the_head_commit_in_a_checkout(self, tmp_path):
        repo = _checkout(tmp_path)
        head = _git(repo, "rev-parse", "HEAD")
        described = attr.git_describe(str(repo))
        assert described and head.startswith(described)

    def test_prefers_a_tag(self, tmp_path):
        repo = _checkout(tmp_path)
        _git(repo, "tag", "v9.9")
        assert attr.git_describe(str(repo)) == "v9.9"

    def test_marks_a_dirty_tree(self, tmp_path):
        repo = _checkout(tmp_path)
        (repo / "a.txt").write_text("two\n")
        assert attr.git_describe(str(repo)).endswith("-dirty")

    def test_is_none_outside_a_checkout(self, tmp_path, monkeypatch):
        monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path))
        plain = tmp_path / "plain"
        plain.mkdir()
        assert attr.git_describe(str(plain)) is None

    def test_is_none_without_a_git_binary(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PATH", str(tmp_path))
        assert attr.git_describe(str(tmp_path)) is None

    def test_is_none_when_git_times_out(self, tmp_path, monkeypatch):
        def stuck(*args, **kwargs):
            raise subprocess.TimeoutExpired(args[0], kwargs.get("timeout"))

        monkeypatch.setattr(attr.subprocess, "run", stuck)
        assert attr.git_describe(str(tmp_path)) is None


class TestAttribution:
    def test_carries_exactly_the_two_fields(self, monkeypatch):
        monkeypatch.setattr(attr, "git_describe", lambda cwd=None: "abc1234")
        assert attr.attribution() == {
            "repro_version": repro.__version__,
            "git": "abc1234",
        }
