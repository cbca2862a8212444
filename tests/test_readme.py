import importlib
import pkgutil
import re
from pathlib import Path

import wienerlift

README = Path(__file__).resolve().parent.parent / "README.md"
MODULES = sorted(m.name for m in pkgutil.iter_modules(wienerlift.__path__))
# `module.name` or `wienerlift.module.name` in backticks, for every module of the package
REFERENCE = re.compile(rf"`(?:wienerlift\.)?({'|'.join(MODULES)})\.(\w+)`")


def test_readme_references_resolve():
    refs = sorted(set(REFERENCE.findall(README.read_text())))
    assert refs, "README names no module attribute"
    missing = [f"{module}.{name}" for module, name in refs
               if not hasattr(importlib.import_module(f"wienerlift.{module}"), name)]
    assert not missing, f"README names attributes its modules lack: {missing}"
