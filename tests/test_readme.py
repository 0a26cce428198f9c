"""README's Quick start block runs as documented."""
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_start_ranks_the_spiked_channel_first(capsys):
    text = README.read_text(encoding="utf-8")
    quick_start = text[text.index("## Quick start"):]
    block = re.search(r"```python\n(.*?)```", quick_start, re.S).group(1)
    namespace: dict = {}
    exec(compile(block, "README.md (Quick start)", "exec"), namespace)
    # the spike is injected on channel 1 only
    assert namespace["ranking"][0] == 1
    assert namespace["model"].train_residuals.shape == (2000 - 30 + 1, 3)
    out = capsys.readouterr().out
    assert out.startswith("fc1 ") and "most anomalous channels: (1," in out
