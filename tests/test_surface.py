"""Guards against dead config keys, dangling public names and demos that
no longer run."""

import ast
import glob
import importlib
import inspect
import os
import re
import shutil
import subprocess
import sys

import pytest

import hskdv
from hskdv import cli

HERE = os.path.dirname(os.path.abspath(__file__))
DEMOS = sorted(glob.glob(os.path.join(HERE, os.pardir, "demos", "*.py")))
SRC = os.path.abspath(os.path.join(HERE, os.pardir, "src"))
SOURCES = sorted(glob.glob(os.path.join(SRC, "hskdv", "*.py")))


def _cli_functions():
    """name -> (keys read through cfg.get/require, helpers called on cfg)."""
    with open(cli.__file__) as fh:
        src = fh.read()
    out = {}
    for block in re.split(r"^def ", src, flags=re.M)[1:]:
        name = block.split("(", 1)[0]
        keys = set(re.findall(r"""cfg\.(?:get|require)\(["'](\w+)["']""",
                              block))
        calls = set(re.findall(r"\b(_\w+)\(cfg\b", block))
        out[name] = (keys, calls)
    return out


@pytest.mark.parametrize("command", cli.COMMANDS)
def test_every_accepted_key_is_read(command):
    funcs = _cli_functions()
    seen, todo, read = set(), [cli._RUNNERS[command].__name__], set()
    while todo:
        name = todo.pop()
        if name in seen or name not in funcs:
            continue
        seen.add(name)
        keys, calls = funcs[name]
        read |= keys
        todo.extend(calls)
    accepted = {key for key, (_, cmds) in cli.KEY_TYPES.items()
                if command in cmds} - {"command", "output_dir"}
    assert accepted - read == set()


def test_all_names_resolve():
    for name in hskdv.__all__:
        assert hasattr(hskdv, name), name


def _demo_imports(path):
    """One demo's syntax tree and {local name: (module, name)} of its
    imports from hskdv."""
    with open(path) as fh:
        tree = ast.parse(fh.read(), path)
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module and (
                node.module.split(".")[0] == "hskdv"):
            for al in node.names:
                aliases[al.asname or al.name] = (node.module, al.name)
    return tree, aliases


def _demo_references(path):
    """(module, name, attribute) triples of hskdv that one demo uses.

    attribute is None for the imported name itself.
    """
    tree, aliases = _demo_imports(path)
    refs = [imp + (None,) for imp in aliases.values()]
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in aliases):
            refs.append(aliases[node.value.id] + (node.attr,))
    return refs


def _imported(module, name):
    """What `from module import name` binds, submodules included."""
    mod = importlib.import_module(module)
    if not hasattr(mod, name):
        importlib.import_module(module + "." + name)
    return getattr(mod, name)


@pytest.mark.parametrize("path", DEMOS, ids=os.path.basename)
def test_demo_names_exist(path):
    refs = _demo_references(path)
    assert refs
    for module, name, attr in refs:
        obj = _imported(module, name)
        assert attr is None or hasattr(obj, attr), (module, name, attr)


def _demo_calls(path):
    """(line, callee, positional count, keyword names, unpacked) of every
    call in one demo to an hskdv name or an attribute of one; unpacked
    is True if the call has a *args or **kwargs argument."""
    tree, imports = _demo_imports(path)
    aliases = {k: _imported(*imp) for k, imp in imports.items()}
    calls = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id in aliases:
            callee = aliases[func.id]
        elif (isinstance(func, ast.Attribute)
              and isinstance(func.value, ast.Name)
              and func.value.id in aliases):
            callee = getattr(aliases[func.value.id], func.attr)
        else:
            continue
        unpacked = (any(isinstance(a, ast.Starred) for a in node.args)
                    or any(k.arg is None for k in node.keywords))
        calls.append((node.lineno, callee, len(node.args),
                      [k.arg for k in node.keywords if k.arg], unpacked))
    return calls


@pytest.mark.parametrize("path", DEMOS, ids=os.path.basename)
def test_demo_calls_bind(path):
    # a call the signature cannot bind fails only when the demo runs;
    # with *args or **kwargs the unpacked part may supply the rest
    calls = _demo_calls(path)
    assert calls
    for line, callee, npos, names, unpacked in calls:
        sig = inspect.signature(callee)
        bind = sig.bind_partial if unpacked else sig.bind
        try:
            bind(*[None] * npos, **dict.fromkeys(names))
        except TypeError as err:
            pytest.fail("%s line %d: %s" % (os.path.basename(path), line,
                                             err))


@pytest.mark.parametrize("path", DEMOS, ids=os.path.basename)
def test_demo_runs(path, tmp_path):
    # a copy run from tmp_path writes its files (demo 01's SVGs) there;
    # -W error makes any warning a failure
    script = shutil.copy(path, tmp_path)
    proc = subprocess.run([sys.executable, "-W", "error", script],
                          cwd=tmp_path, env=dict(os.environ, PYTHONPATH=SRC),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_package_imports_only_numpy_and_the_standard_library():
    # pyproject.toml declares numpy alone; scipy and pytest serve the tests
    found = set()
    for path in SOURCES:
        with open(path) as fh:
            tree = ast.parse(fh.read(), path)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                found |= {al.name.split(".")[0] for al in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                found.add(node.module.split(".")[0])
    assert len(SOURCES) == 10 and "numpy" in found
    assert found - {"numpy"} - set(sys.stdlib_module_names) == set()
