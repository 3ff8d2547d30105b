"""The package exports exactly the names README's API list documents."""

import re
import types
from pathlib import Path

import oscistep


def test_exports_match_readme_api_list():
    # every backticked bare identifier in README's API section is one
    # exported name, listed once; __init__'s imports are the other side
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    assert "\n### API\n" in readme
    section = readme.split("\n### API\n", 1)[1].split("\n#", 1)[0]
    documented = re.findall(r"`([A-Za-z_]\w*)`", section)
    exported = [name for name, value in vars(oscistep).items()
                if not name.startswith("_") and not isinstance(value, types.ModuleType)]
    assert sorted(documented) == sorted(exported)
