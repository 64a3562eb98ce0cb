"""The intra-repository link checker over README.md and docs/*.md."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def check_links():
    spec = importlib.util.spec_from_file_location(
        "check_links", ROOT / "tools" / "check_links.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def docs_root(tmp_path):
    # The checker compares resolved paths against the root.
    return tmp_path.resolve()


def _doc(root, name, text):
    path = root / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")
    return path


class TestRepositoryDocs:
    def test_readme_and_docs_have_no_broken_links(self, check_links, capsys):
        assert check_links.main() == 0
        assert "all intra-repo links OK" in capsys.readouterr().out


class TestCheckFile:
    def test_slug_follows_the_github_convention(self, check_links):
        assert check_links._slug("The shared solver cache") == "the-shared-solver-cache"
        assert check_links._slug("Tier-1: what runs?") == "tier-1-what-runs"
        assert check_links._slug("`repro trace` output") == "repro-trace-output"

    def test_valid_file_and_anchor_links_pass(self, check_links, docs_root):
        _doc(docs_root, "docs/solver.md", "# Solver\n\n## The shared cache\n")
        readme = _doc(
            docs_root, "README.md",
            "[s](docs/solver.md) [c](docs/solver.md#the-shared-cache) "
            "[top](#intro)\n\n# Intro\n",
        )
        assert check_links.check_file(readme, docs_root) == []

    def test_missing_file_is_reported(self, check_links, docs_root):
        readme = _doc(docs_root, "README.md", "[gone](docs/gone.md)\n")
        assert check_links.check_file(readme, docs_root) == [
            ("docs/gone.md", "file does not exist")
        ]

    def test_missing_anchor_is_reported(self, check_links, docs_root):
        _doc(docs_root, "docs/solver.md", "# Solver\n")
        readme = _doc(docs_root, "README.md", "[x](docs/solver.md#no-such)\n")
        assert check_links.check_file(readme, docs_root) == [
            ("docs/solver.md#no-such", "no heading matches #no-such")
        ]

    def test_link_escaping_the_repository_is_reported(self, check_links, docs_root):
        root = docs_root / "repo"
        _doc(docs_root, "outside.md", "# Outside\n")
        readme = _doc(root, "README.md", "[o](../outside.md)\n")
        assert check_links.check_file(readme, root) == [
            ("../outside.md", "escapes the repository")
        ]

    def test_external_urls_are_not_checked(self, check_links, docs_root):
        readme = _doc(
            docs_root, "README.md",
            "[a](https://example.com/x.md#nowhere) [m](mailto:a@example.com)\n",
        )
        assert check_links.check_file(readme, docs_root) == []
