"""README's Quick start block runs as documented, and the package exports its names."""
import re
from pathlib import Path

import tsadkit
import tsadkit.models

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def quick_start_block() -> str:
    text = README.read_text(encoding="utf-8")
    quick_start = text[text.index("## Quick start"):]
    return re.search(r"```python\n(.*?)```", quick_start, re.S).group(1)


def test_quick_start_ranks_the_spiked_channel_first(capsys):
    block = quick_start_block()
    namespace: dict = {}
    exec(compile(block, "README.md (Quick start)", "exec"), namespace)
    # the spike is injected on channel 1 only
    assert namespace["ranking"][0] == 1
    assert namespace["train_errors"].shape == (2000 - 30 + 1, 3)
    out = capsys.readouterr().out
    assert out.startswith("fc1 ") and "most anomalous channels: (1," in out


def imported_names(text: str, module: str) -> set[str]:
    """The names of every ``from <module> import ...`` statement in text."""
    found = re.findall(rf"^from {re.escape(module)} import (\(.*?\)|[^\n]*)", text, re.M | re.S)
    return {name.strip() for group in found for name in group.strip("()").split(",")} - {""}


def test_public_surface_holds_the_quick_start_names():
    # a stale __all__ entry, naming a deleted function, makes import * raise
    exec("from tsadkit import *\nfrom tsadkit.models import *", {})
    names = imported_names(quick_start_block(), "tsadkit")
    # every other name comes from the stage module that defines it, so the
    # flat surface cannot grow past what the Quick start walks through
    assert names and set(tsadkit.__all__) == names


def test_models_package_exports_what_the_package_imports_from_it():
    src = ROOT / "src" / "tsadkit"
    names = set()
    for path in src.glob("*.py"):
        if path.name != "__init__.py":
            names |= imported_names(path.read_text(encoding="utf-8"), ".models")
    assert names and set(tsadkit.models.__all__) == names
