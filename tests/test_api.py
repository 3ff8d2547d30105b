"""The package exports exactly the names README's API list documents, and
a field's functions are reached through the field alone."""

import re
import types
from pathlib import Path

import oscistep
from oscistep import CoefficientField


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


def test_coefficient_field_has_no_public_methods():
    # a field's a and b are evaluated through its private routes alone
    public = [name for name in dir(CoefficientField)
              if not name.startswith("_") and callable(getattr(CoefficientField, name))]
    assert public == []


def test_only_the_field_calls_its_functions():
    # `a` and `b` are called in one place, CoefficientField._pair, where an
    # absorbed mean is added; no other module may reach them around it
    src = Path(oscistep.__file__).parent
    naming = sorted(path.name for path in src.glob("*.py")
                    if re.search(r"\._[ab]\b", path.read_text()))
    assert naming == ["jets.py"]


def test_generated_code_has_one_compiler_and_one_split_rule():
    # every generated function is compiled in jets._compiled, and every
    # long generated sum is split by jets._summed at the one _SUM_TERMS
    src = Path(oscistep.__file__).parent
    texts = {path.name: path.read_text() for path in sorted(src.glob("*.py"))}
    assert [name for name, text in texts.items() for _ in re.findall(r"\bexec\(", text)] \
        == ["jets.py"]
    assert [name for name, text in texts.items()
            for _ in re.findall(r"\b_SUM_TERMS\s*=(?!=)", text)] == ["jets.py"]
