"""The README's links and the library names it tells readers to import."""

import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()


def _section(title):
    """Text of one ``## title`` section, up to the next level-2 heading."""
    match = re.search(rf"^## {re.escape(title)}\n(.*?)(?=^## |\Z)", README,
                      flags=re.MULTILINE | re.DOTALL)
    assert match, f"README has no '## {title}' section"
    return match.group(1)


def test_relative_links_resolve():
    targets = re.findall(r"\]\(([^)\s]+)\)", README)
    relative = [t.split("#")[0] for t in targets
                if not re.match(r"[a-z][a-z0-9+.-]*:", t) and
                not t.startswith("#")]
    assert relative, "README links no repository file"
    missing = [t for t in relative if not (ROOT / t).is_file()]
    assert not missing, f"README links missing files: {missing}"


def test_library_use_names_importable():
    text = _section("Library use")
    names = re.findall(r"from globalsfm\.(\w+) import (\w+)", text)
    names += re.findall(r"`(\w+)\.(\w+)`", text)
    assert len(names) >= 5, f"too few names found in Library use: {names}"
    missing = []
    for module, attr in names:
        if not hasattr(importlib.import_module(f"globalsfm.{module}"), attr):
            missing.append(f"{module}.{attr}")
    assert not missing, f"README names that do not exist: {missing}"
