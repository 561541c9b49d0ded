"""The package namespace: every exported name resolves, and the imports run one way."""

import ast
import pathlib

import triplesieve


def test_every_exported_name_resolves():
    assert len(set(triplesieve.__all__)) == len(triplesieve.__all__)
    missing = [name for name in triplesieve.__all__ if not hasattr(triplesieve, name)]
    assert missing == []
    namespace = {}
    exec("from triplesieve import *", namespace)
    assert set(triplesieve.__all__) <= set(namespace)


def test_imports_run_one_way():
    """modular imports nothing from groups, and no function body in the
    package holds an import: every module reads its kernels at the top."""
    src = pathlib.Path(triplesieve.__file__).parent
    modular_tree = ast.parse((src / "modular.py").read_text())
    imported = [node.module for node in ast.walk(modular_tree) if isinstance(node, ast.ImportFrom)]
    imported += [alias.name for node in ast.walk(modular_tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                 for alias in node.names]
    assert not [name for name in imported if name and name.split(".")[-1] == "groups"]
    nested = []
    for path in sorted(src.glob("*.py")):
        for func in ast.walk(ast.parse(path.read_text())):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                nested += [(path.name, node.lineno) for node in ast.walk(func)
                           if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert nested == []
    assert triplesieve.GeneratorSet.__module__ == "triplesieve.gl2"
    assert triplesieve.GeneratorSet is triplesieve.groups.GeneratorSet
