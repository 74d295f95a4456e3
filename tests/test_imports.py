"""Source hygiene: every module uses each name it imports, and the
package reads or exports every name a module defines.

A stdlib-only stand-in for a linter's unused-import and dead-code
rules. For imports, ``__init__.py`` is exempt (its imports are the
package's re-exports), and so are ``from __future__`` imports. For
definitions, a module-level constant, function or class counts as used
when any module of the package reads it or ``__all__`` exports it;
dunder names such as ``__version__`` are exempt.
"""

import ast
from pathlib import Path

import pytest

import localfocus

PACKAGE = sorted(Path(localfocus.__file__).parent.glob("*.py"))
SOURCES = [p for p in PACKAGE if p.name != "__init__.py"]


def unused_imports(source: str) -> list[str]:
    """Names bound by an import in ``source`` that no expression reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in used]


def unread_definitions(sources: dict[str, str], exported: set[str]) -> list[str]:
    """Module-level names defined in ``sources`` (module name -> text)
    that no module reads and ``exported`` does not hold."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    read = {node.id for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
    unread = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names = [node.target.id]
            else:
                names = []
            unread += [f"{module}:{node.lineno}: {name}" for name in names
                       if not (name.startswith("__") and name.endswith("__"))
                       and name not in read and name not in exported]
    return unread


def test_checker_flags_an_unused_name():
    src = "from __future__ import annotations\nimport os\nfrom a.b import c, d as e\nprint(e)\n"
    assert unused_imports(src) == ["line 2: os", "line 3: c"]


def test_checker_flags_an_unread_definition():
    sources = {"a": "LIMIT = 3\nUSED = 1\ndef f():\n    return USED\nclass C:\n    pass\n",
               "b": "__version__ = '1'\nfrom .a import f\nf()\nclass D:\n    pass\n"}
    assert unread_definitions(sources, exported={"C"}) == ["a:1: LIMIT", "b:4: D"]


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_every_definition_is_read_or_exported():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in PACKAGE}
    assert unread_definitions(sources, set(localfocus.__all__)) == []


def accumulate_references(source: str) -> list[int]:
    """Lines of ``source`` that read or call an attribute named ``_accumulate``."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Attribute) and node.attr == "_accumulate")


def test_only_tensor_wires_gradients_into_the_graph():
    # An op returns its input gradients from the vjp it hands to
    # Tensor._wrap; only tensor.py accumulates them into parents.
    assert accumulate_references("def f(t):\n    t._accumulate(1)\n") == [2]
    offenders = {p.name: accumulate_references(p.read_text(encoding="utf-8"))
                 for p in SOURCES if p.name != "tensor.py"}
    assert {name: lines for name, lines in offenders.items() if lines} == {}


def owners(source: str, matches) -> list[str]:
    """For each node of ``source`` that ``matches``, the qualified name of
    the innermost function or class around it (``<module>`` at module level)."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, child.name if owner == "<module>" else f"{owner}.{child.name}")
                continue
            if matches(child):
                found.append(owner)
            visit(child, owner)

    visit(ast.parse(source), "<module>")
    return found


def reuse_buffers_readers(source: str) -> list[str]:
    """Owners (see ``owners``) of each read of a name or attribute ``reuse_buffers``."""
    return owners(source, lambda n: (isinstance(n, ast.Name) and n.id == "reuse_buffers")
                  or (isinstance(n, ast.Attribute) and n.attr == "reuse_buffers"))


def test_only_the_model_forward_reuses_buffers():
    # Buffers drawn inside reuse_buffers are handed out again by the thread's
    # next block, so whoever enters it must be done with them by then. Only
    # LfmModel._forward enters it, for score and forward_train alike: a
    # training step walks its graph before it returns. Kept between steps, a
    # batch-32 64 px step's 20 arrays (84.1 MiB) took its median minor page
    # faults from about 10.5k to 1 and its in-process peak RSS from 205 to 197 MiB.
    src = ("import t\nwith t.reuse_buffers():\n    pass\nclass M:\n    def f(self):\n"
           "        def g():\n            with reuse_buffers():\n                pass\n")
    assert reuse_buffers_readers(src) == ["<module>", "M.f.g"]
    readers = {p.name: reuse_buffers_readers(p.read_text(encoding="utf-8")) for p in SOURCES}
    assert {name: funcs for name, funcs in readers.items() if funcs} == {"model.py": ["LfmModel._forward"]}


def block_splitters(source: str) -> list[str]:
    """Owners (see ``owners``) in ``source`` that split an array into 2x2
    blocks: a ``reshape`` call whose argument list or tuples hold
    ``// 2, 2``, or a slice with a constant step of 2."""

    def _is_two(node) -> bool:
        return isinstance(node, ast.Constant) and node.value == 2

    def halves(elts) -> bool:
        return any(isinstance(a, ast.BinOp) and isinstance(a.op, ast.FloorDiv) and _is_two(a.right)
                   and _is_two(b) for a, b in zip(elts, elts[1:]))

    def splits(node) -> bool:
        if isinstance(node, ast.Slice):
            return _is_two(node.step)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "reshape":
            return halves(node.args) or any(halves(t.elts) for arg in node.args
                                            for t in ast.walk(arg) if isinstance(t, ast.Tuple))
        return False

    return sorted(set(owners(source, splits)))


def test_only_npr_blocks_splits_the_2x2_grid():
    # The residual, its adjoint and the generator's block-mean removal all
    # read the one grid npr._blocks defines.
    src = ("def f(x, h, w):\n    return x.reshape(3, h // 2, 2, w // 2, 2)\n"
           "def g(x, h):\n    return x.reshape(x.shape[:1] + (h // 2, 2)), x[..., ::2]\n"
           "def h(x):\n    return x[::3], x.reshape(4, 2), x[1:2]\n")
    assert block_splitters(src) == ["f", "g"]
    splitters = {p.name: block_splitters(p.read_text(encoding="utf-8")) for p in SOURCES}
    assert {name: funcs for name, funcs in splitters.items() if funcs} == {"npr.py": ["_blocks"]}


def hand_written_range_messages(source: str) -> list[int]:
    """Lines of ``source`` that build a ``ConfigError`` whose message text
    holds " >= " or "must be finite": a floor or range check that
    ``require_int`` or ``require_real`` should make."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "ConfigError"):
            text = "".join(part.value for arg in node.args for part in ast.walk(arg)
                           if isinstance(part, ast.Constant) and isinstance(part.value, str))
            if " >= " in text or "must be finite" in text:
                lines.append(node.lineno)
    return sorted(lines)


def test_only_errors_states_integer_floors_and_finite_ranges():
    # Each kind of setting has one rule, in errors.py; constructors call it.
    src = ('def f(k):\n    raise ConfigError(f"k must be >= 1, got {k}")\nConfigError("x must be finite")\n'
           'ConfigError(f"n must be an even count >= 2, got {n}")\nConfigError("k must be even")\n')
    assert hand_written_range_messages(src) == [2, 3, 4]
    offenders = {p.name: hand_written_range_messages(p.read_text(encoding="utf-8"))
                 for p in SOURCES if p.name != "errors.py"}
    assert {name: lines for name, lines in offenders.items() if lines} == {}


def clamp_literals(source: str) -> list[int]:
    """Lines of ``source`` holding the float constant 1e-12."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Constant) and type(node.value) is float and node.value == 1e-12)


def test_only_tensor_states_the_probability_clamp():
    # Sigmoid's output and the log loss's input share tensor._CLAMP.
    assert clamp_literals('X = 1e-12\ny = f(1e-12, "1e-12", 1e-6)\nz = 1.0 - 1e-12\n') == [1, 2, 3]
    found = {p.name: clamp_literals(p.read_text(encoding="utf-8")) for p in PACKAGE}
    assert {name: len(lines) for name, lines in found.items() if lines} == {"tensor.py": 1}


def float32_pickers(source: str) -> list[str]:
    """Owners (see ``owners``) of each call in ``source`` that passes float32
    as an argument, positional or keyword: ``np.float32``, a bare
    ``float32``, or the string "float32" or "f4" (any byte order)."""

    def is_float32(node) -> bool:
        return ((isinstance(node, ast.Attribute) and node.attr == "float32")
                or (isinstance(node, ast.Name) and node.id == "float32")
                or (isinstance(node, ast.Constant) and isinstance(node.value, str)
                    and node.value.lstrip("<>=|") in ("float32", "f4")))

    return owners(source, lambda n: isinstance(n, ast.Call)
                  and any(is_float32(a) for a in [*n.args, *(k.value for k in n.keywords)]))


def test_only_score_and_the_checkpoint_pick_float32():
    # LfmModel.score alone picks the scoring dtype, and checkpoint.py stores
    # parameters as float32. The ops follow the dtype of what they are given,
    # and Tensor.__init__ only compares a dtype with float32 to keep it.
    src = ('import numpy as np\ndef f(x):\n    return x.astype(np.float32) if x.dtype == np.float32 else x\n'
           'class M:\n    def g(self, b):\n        return np.frombuffer(b, dtype="<f4"), h(float32), h("float32 x")\n')
    assert float32_pickers(src) == ["f", "M.g", "M.g"]
    pickers = {p.name: sorted(set(float32_pickers(p.read_text(encoding="utf-8"))))
               for p in SOURCES if p.name != "checkpoint.py"}
    assert {name: funcs for name, funcs in pickers.items() if funcs} == {"model.py": ["LfmModel.score"]}


def dtypeless_shape_draws(source: str) -> list[str]:
    """Owners (see ``owners``) of each ``buffer`` call in ``source`` whose
    first argument is a shape (a tuple display, a sum holding one, or a
    ``.shape`` attribute) and that passes no dtype, positional or keyword."""

    def is_shape(node) -> bool:
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
            return is_shape(node.left) or is_shape(node.right)
        return isinstance(node, ast.Tuple) or (isinstance(node, ast.Attribute) and node.attr == "shape")

    def is_buffer(func) -> bool:
        return (isinstance(func, ast.Name) and func.id == "buffer") or (
            isinstance(func, ast.Attribute) and func.attr == "buffer")

    return owners(source, lambda n: isinstance(n, ast.Call) and is_buffer(n.func)
                  and len(n.args) == 1 and is_shape(n.args[0])
                  and not any(k.arg == "dtype" for k in n.keywords))


def test_every_shape_draw_names_its_dtype():
    # An op draws in its input's dtype: a shape draw with no dtype is float64
    # whatever it was given, so a float32 input would come back float64.
    src = ("def f(x, n):\n    return buffer((n, 3)), buffer(x.shape), t.buffer((n,) + x.shape[1:])\n"
           "def g(x, n):\n    return buffer((n, 3), x.dtype), buffer(x.shape, dtype=x.dtype), buffer(x), buffer(x.data)\n")
    assert dtypeless_shape_draws(src) == ["f", "f", "f"]
    offenders = {p.name: dtypeless_shape_draws(p.read_text(encoding="utf-8")) for p in SOURCES}
    assert {name: funcs for name, funcs in offenders.items() if funcs} == {}
