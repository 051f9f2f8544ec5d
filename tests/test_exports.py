"""`procmine` exports exactly the names that README's Python API lists, so
that the package and its documentation cannot drift apart."""

import re
import types

import procmine

from conftest import REPO_ROOT


def documented_exports() -> set[str]:
    """The names of README's sentence "`procmine` exports these names and
    no others: ..."."""
    text = (REPO_ROOT / "README.md").read_text("utf-8")
    sentence = re.search(r"`procmine` exports these names and no others:(.*?)\.\s",
                         text, re.S)
    assert sentence, "README lists no exports"
    return set(re.findall(r"`(\w+)`", sentence.group(1)))


def test_public_names_equal_the_readme_list():
    public = {name for name, value in vars(procmine).items()
              if not name.startswith("_")
              and not isinstance(value, types.ModuleType)}
    assert public == documented_exports()
