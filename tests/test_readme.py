"""README.md stays true to the code: every backticked ``module.name`` it cites
is a real attribute of that ``dualdec`` module (or a config key), and its
library-use example runs."""
import importlib
import pkgutil
import re
from pathlib import Path

import dualdec
from dualdec import cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
MODULES = sorted(m.name for m in pkgutil.iter_modules(dualdec.__path__))


def cited(text: str) -> list[tuple[str, str]]:
    """(module, name) of each backticked span that starts with a dualdec
    module and a name: `frames.frame_to_iob`, `decode.beam_search(...)`."""
    return re.findall(r"`(%s)\.(\w+)" % "|".join(MODULES), text)


def is_config_key(module: str, name: str) -> bool:
    section = cli.DEFAULTS.get(module)
    return isinstance(section, dict) and name in section


def stale(text: str) -> list[str]:
    return [f"{module}.{name}" for module, name in cited(text)
            if not is_config_key(module, name)
            and not hasattr(importlib.import_module(f"dualdec.{module}"), name)]


def test_readme_cites_only_real_attributes():
    assert any(is_config_key(*ref) for ref in cited(README))
    assert any(not is_config_key(*ref) for ref in cited(README))
    assert stale(README) == []
    # the check is not vacuous: a removed name is reported, a config key is not
    assert stale("`frames.repair_iob` and `decode.beam`") == ["frames.repair_iob"]


def test_readme_library_example_runs():
    section = README.split("## Library use", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README.md", "exec"), {})
