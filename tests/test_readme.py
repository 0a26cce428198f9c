"""README's Quick start block runs as documented, and the package exports its names."""
import re
from pathlib import Path

import tsadkit

README = Path(__file__).resolve().parents[1] / "README.md"


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
    assert namespace["model"].train_residuals.shape == (2000 - 30 + 1, 3)
    out = capsys.readouterr().out
    assert out.startswith("fc1 ") and "most anomalous channels: (1," in out


def test_public_surface_holds_the_quick_start_names():
    # a stale __all__ entry, naming a deleted function, makes import * raise
    exec("from tsadkit import *\nfrom tsadkit.models import *", {})
    imported = re.search(r"from tsadkit import \((.*?)\)", quick_start_block(), re.S).group(1)
    names = {name.strip() for name in imported.split(",")} - {""}
    assert names and names <= set(tsadkit.__all__)
