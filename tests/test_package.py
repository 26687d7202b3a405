"""The package's public names, what importing a module loads, and what each module imports."""

import ast
import subprocess
import sys
from pathlib import Path

import resvd


def test_every_exported_name_resolves_once():
    assert len(resvd.__all__) == len(set(resvd.__all__))
    missing = [name for name in resvd.__all__ if not hasattr(resvd, name)]
    assert missing == []


def test_compensation_does_not_load_the_calibration_pass():
    # compensation is linear algebra on one weight and its whitening matrix,
    # an array; the calibration pass and its file handling stay unloaded.
    probe = "import sys, resvd.compensation; print('resvd.calibration' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True)
    assert out.stdout == "False\n"


def test_no_module_imports_a_name_it_never_uses():
    # __init__.py's exports resolve lazily, and a line marked "noqa: F401"
    # imports a name for others to look up there. A name used only in a
    # string annotation counts as used.
    unused = []
    for path in sorted(Path(resvd.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        source = path.read_text(encoding="utf-8")
        tree = ast.parse(source)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            hints = [getattr(node, "annotation", None), getattr(node, "returns", None)]
            for hint in filter(None, hints):
                for text in ast.walk(hint):
                    if isinstance(text, ast.Constant) and isinstance(text.value, str):
                        used |= {n.id for n in ast.walk(ast.parse(text.value, mode="eval"))
                                 if isinstance(n, ast.Name)}
        lines = source.splitlines()
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) \
                    and getattr(node, "module", None) != "__future__" \
                    and "# noqa: F401" not in lines[node.lineno - 1]:
                unused += [f"{path.name}:{node.lineno}: {name}" for alias in node.names
                           if (name := (alias.asname or alias.name).split(".")[0]) not in used]
    assert unused == []


def test_the_dense_reference_imports_no_resvd_module():
    # The reference checks the pipeline against the paper's equations; code it
    # shared with resvd would let a fault sit on both sides of that check.
    tree = ast.parse((Path(__file__).parent / "dense_reference.py").read_text(encoding="utf-8"))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported.append("." * node.level + (node.module or ""))
    assert "numpy" in imported
    assert [name for name in imported
            if name.split(".")[0] == "resvd" or name.startswith(".")] == []
