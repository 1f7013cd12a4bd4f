"""Source rules that keep one way to do each thing in the package and keep
every scalar exact."""

import ast
import os
import pathlib
import subprocess
import sys

import sbar2lab

SRC = pathlib.Path(sbar2lab.__file__).parent
MODULES = {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}


def _is_zero(node) -> bool:
    if isinstance(node, ast.Constant):
        return node.value == 0
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "Fraction"
        and len(node.args) == 1
        and _is_zero(node.args[0])
    )


def _is_get_plus(node) -> bool:
    """``d.get(key, 0) + c`` or ``- c``, also with Fraction(0) as the default."""
    if not (isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub))):
        return False
    call = node.left
    return (
        isinstance(call, ast.Call)
        and isinstance(call.func, ast.Attribute)
        and call.func.attr == "get"
        and len(call.args) == 2
        and _is_zero(call.args[1])
    )


def _function(module: str, name: str):
    (node,) = [n for n in MODULES[module].body if isinstance(n, ast.FunctionDef) and n.name == name]
    return node


def test_no_module_reads_the_environment():
    # no module needs os, so forbidding its import closes every route to
    # os.environ / getenv, including ``from os import environ``
    sites = [
        (name, node.lineno)
        for name, tree in MODULES.items()
        for node in ast.walk(tree)
        if (isinstance(node, ast.Import) and any(a.name.split(".")[0] == "os" for a in node.names))
        or (isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "os")
        or (isinstance(node, ast.Name) and node.id in {"environ", "getenv"})
    ]
    assert sites == []


def test_ad_cap_is_assigned_once():
    sites = [
        (name, node.lineno)
        for name, tree in MODULES.items()
        for node in ast.walk(tree)
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        if isinstance(target, ast.Name) and target.id == "_AD_CAP"
    ]
    assert len(sites) == 1, sites


def test_accumulate_pattern_lives_only_in_base_accumulate():
    accumulate = _function("base.py", "accumulate")
    inside = {id(node) for node in ast.walk(accumulate)}
    sites = [
        (name, node.lineno)
        for name, tree in MODULES.items()
        for node in ast.walk(tree)
        if _is_get_plus(node) and id(node) not in inside
    ]
    assert sites == []
    assert any(_is_get_plus(node) for node in ast.walk(accumulate))


def _operator(node):
    """``(op, right operand)`` of a binary or augmented operation, else ``(None, None)``."""
    if isinstance(node, ast.BinOp):
        return node.op, node.right
    if isinstance(node, ast.AugAssign):
        return node.op, node.value
    return None, None


def test_only_qdiv_divides():
    # between two ints ``/`` gives a float, so every quotient goes through qdiv
    inside = {id(node) for node in ast.walk(_function("base.py", "qdiv"))}
    sites = [
        (name, node.lineno)
        for name, tree in MODULES.items()
        for node in ast.walk(tree)
        if isinstance(_operator(node)[0], ast.Div) and id(node) not in inside
    ]
    assert sites == []


def test_no_power_with_a_negated_exponent():
    # ``int ** -n`` is a float; a reciprocal power is spelled with qdiv
    sites = [
        (name, node.lineno)
        for name, tree in MODULES.items()
        for node in ast.walk(tree)
        for op, exponent in [_operator(node)]
        if isinstance(op, ast.Pow) and isinstance(exponent, ast.UnaryOp) and isinstance(exponent.op, ast.USub)
    ]
    assert sites == []


def _is_int_literal(node) -> bool:
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        node = node.operand
    return isinstance(node, ast.Constant) and type(node.value) is int


def test_integral_constants_are_plain_ints():
    # an integral scalar is stored as an int, so Fraction(3) has one spelling: 3
    sites = [
        (name, node.lineno)
        for name, tree in MODULES.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "Fraction"
        and len(node.args) == 1
        and _is_int_literal(node.args[0])
    ]
    assert sites == []


def _method(module: str, cls: str, name: str):
    (klass,) = [n for n in MODULES[module].body if isinstance(n, ast.ClassDef) and n.name == cls]
    (node,) = [n for n in klass.body if isinstance(n, ast.FunctionDef) and n.name == name]
    return node


def _calls(tree, name: str) -> list:
    return [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and (
            (isinstance(node.func, ast.Name) and node.func.id == name)
            or (isinstance(node.func, ast.Attribute) and node.func.attr == name)
        )
    ]


def _is_row_update(node) -> bool:
    """``accumulate(...)``, or a sum or difference with a product operand."""
    if isinstance(node, ast.Call):
        return isinstance(node.func, ast.Name) and node.func.id == "accumulate"
    return (
        isinstance(node, ast.BinOp)
        and isinstance(node.op, (ast.Add, ast.Sub))
        and any(isinstance(side, ast.BinOp) and isinstance(side.op, ast.Mult) for side in (node.left, node.right))
    )


def test_linalg_has_one_elimination_routine():
    # elimination runs on int rows: a row is scaled to 1 at its pivot only
    # when it is read out, and reduce rescales its residual once at the end
    linalg = MODULES["linalg.py"]
    readout = [_method("linalg.py", "EchelonSpan", name) for name in ("reduced_row", "reduce")]
    sites = sorted(node.lineno for node in _calls(linalg, "qdiv"))
    assert sites == sorted(node.lineno for tree in readout for node in _calls(tree, "qdiv")), sites
    names = {getattr(node, field, None) for node in ast.walk(linalg) for field in ("id", "attr", "name")}
    assert "Fraction" not in names
    # _eliminate makes the only row update, so a second elimination loop,
    # normalizing or fraction-free, fails here
    inside = {id(node) for node in ast.walk(_function("linalg.py", "_eliminate"))}
    updates = [node for node in ast.walk(linalg) if _is_row_update(node)]
    assert updates and [node.lineno for node in updates if id(node) not in inside] == []


RANK_PROBES = ("closure_probe", "joint_kernel", "uh_freeness_check")


def test_module_action_is_written_out_once():
    # the kernel builder is the only place a gl_2 matrix column enters the
    # action on a tensor vector, and _act_terms is the only loop applying a
    # compiled kernel: act_letter, act_sbar, BasisImages and the rank probes
    # all go through it. The sigma suite takes its letters and coefficients
    # from sigma_terms instead of doing the index arithmetic itself
    sites = [(name, node.lineno) for name, tree in MODULES.items() for node in _calls(tree, "column")]
    inside = [("tmodule.py", node.lineno) for node in _calls(_function("tmodule.py", "_letter_kernel"), "column")]
    assert sites and sites == inside, sites
    kernels = sorted((name, node.lineno) for name, tree in MODULES.items() for node in _calls(tree, "_letter_kernel"))
    appliers = [_function("tmodule.py", name) for name in ("act_letter", "act_sbar", *RANK_PROBES)]
    appliers.append(_method("tmodule.py", "BasisImages", "image"))
    assert kernels == sorted(("tmodule.py", node.lineno) for tree in appliers for node in _calls(tree, "_letter_kernel"))
    assert all(_calls(tree, "_act_terms") for tree in appliers)
    sigma = _function("suites.py", "_suite_sigma")
    assert [node.lineno for name in ("L_letter", "comb0") for node in _calls(sigma, name)] == []


def test_rank_probes_act_on_term_dicts():
    # the closure, Whittaker and freeness probes apply compiled kernels to
    # plain term dicts, so no TVector is built per letter they apply
    probes = [_function("tmodule.py", name) for name in RANK_PROBES]
    sites = [node.lineno for tree in probes for name in ("act_letter", "act_sbar", "act_partial") for node in _calls(tree, name)]
    assert sites == []


CONSTANT_FIELD_LETTERS = ("P1_LETTER", "P2_LETTER")


def _literal_index_calls(tree) -> list:
    """Lines of calls to ``L_letter`` or to a method ``L`` with a literal index pair."""
    return sorted(
        node.lineno
        for name in ("L_letter", "L")
        for node in _calls(tree, name)
        if node.args
        and isinstance(node.args[0], ast.Tuple)
        and len(node.args[0].elts) == 2
        and all(_is_int_literal(e) for e in node.args[0].elts)
    )


def test_constant_fields_are_spelled_once():
    # the letters and signs of d/dt_1, d/dt_2 (lie.PARTIALS) and of d1
    # (Sbar.d1) are written out in lie only; split_tail_partials names the two
    # letters because a word's sign (-1)^m2 is part of the Loc encoding
    tail = _function("enveloping.py", "split_tail_partials")
    inside = {id(node) for node in ast.walk(tail)}
    named = [
        (name, node.lineno)
        for name, tree in MODULES.items()
        if name != "lie.py"
        for node in _names(tree, CONSTANT_FIELD_LETTERS)
        if id(node) not in inside
    ]
    imported = [
        (name, node.lineno)
        for name, tree in MODULES.items()
        if name not in ("lie.py", "enveloping.py")
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and {a.name for a in node.names} & set(CONSTANT_FIELD_LETTERS)
    ]
    literal = [(name, line) for name, tree in MODULES.items() if name != "lie.py" for line in _literal_index_calls(tree)]
    assert named == [] and imported == [] and literal == [], (named, imported, literal)
    assert _names(tail, CONSTANT_FIELD_LETTERS)
    planted = "x = Sbar.L((0, -1))\ny = UEnv.L((-1, 0)) + L_letter((0, 0))\nz = UEnv.L(alpha)\n"
    assert _literal_index_calls(ast.parse(planted)) == [1, 2, 2]


def test_suites_evaluate_letter_products_through_basis_images():
    # action-axioms and the sigma search read letter images of basis keys
    # from one BasisImages per case or search instead of acting again, and
    # sum every product, the bracket's singles included, in one pairs_on call
    suites = [_function("suites.py", name) for name in ("_suite_action_axioms", "_suite_sigma")]
    sites = [node.lineno for tree in suites for name in ("act_letter", "act_sbar", "image") for node in _calls(tree, name)]
    assert sites == []
    assert all(_calls(tree, "BasisImages") and _calls(tree, "pairs_on") for tree in suites)


def _is_bracket_call(node) -> bool:
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    return "bracket" in (func.id if isinstance(func, ast.Name) else getattr(func, "attr", ""))


def _bracket_sums(tree) -> list:
    """Lines of sums or differences, plain or augmented, with an operand
    that is a call to a bracket."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.BinOp):
            sides = (node.left, node.right)
        elif isinstance(node, ast.AugAssign):
            sides = (node.value,)
        else:
            continue
        if isinstance(node.op, (ast.Add, ast.Sub)) and any(_is_bracket_call(side) for side in sides):
            lines.add(node.lineno)
    return sorted(lines)


def test_suites_sum_brackets_through_the_pair_list_entries():
    # bracket(x, [y,z]) + bracket(y, [z,x]) + ... builds one element per
    # term and copies the running sum; a cyclic sum is one pair list handed
    # to sbar_bracket_sum or vf_bracket_sum, which sum in one accumulator,
    # and bilinear is bilinear_sum's one-pair call, so there is one loop
    assert _bracket_sums(MODULES["suites.py"]) == []
    assert _names(_function("suites.py", "_suite_jacobi"), ("sbar_bracket_sum", "vf_bracket_sum"))
    assert _calls(_function("base.py", "bilinear"), "bilinear_sum")
    planted = (
        "def f(x, y, z, w):\n    t = sbar_bracket(x, y) + sbar_bracket(y, z)\n    t -= lie.vf_bracket(x, y)\n"
        "    u = w + bracket(z, x)\n    return t + u + vf_bracket_sum([(x, y)])\n"
    )
    assert _bracket_sums(ast.parse(planted)) == [2, 3, 4, 5]


def _names(tree, names) -> list:
    """Nodes naming one of ``names``, as a variable or as an attribute."""
    return [
        node
        for node in ast.walk(tree)
        if (isinstance(node, ast.Name) and node.id in names) or (isinstance(node, ast.Attribute) and node.attr in names)
    ]


def test_key_ids_stay_inside_basis_images():
    # the int key ids are BasisImages' own: its tables hold them and
    # pairs_on translates its sum back to keys, so no caller sees one
    (klass,) = [n for n in MODULES["tmodule.py"].body if isinstance(n, ast.ClassDef) and n.name == "BasisImages"]
    inside = {id(node) for node in ast.walk(klass)}
    ids = ("_ids", "_keys")
    sites = [(name, node.lineno) for name, tree in MODULES.items() for node in _names(tree, ids) if id(node) not in inside]
    assert sites == [] and _names(klass, ids)
    planted = "def f(images):\n    return images._keys[0]\n"
    assert [node.lineno for node in _names(ast.parse(planted), ids)] == [2]


def _is_self_sum(node) -> bool:
    """``n = n + ...``."""
    return (
        isinstance(node, ast.Assign)
        and len(node.targets) == 1
        and isinstance(node.targets[0], ast.Name)
        and isinstance(node.value, ast.BinOp)
        and isinstance(node.value.op, ast.Add)
        and isinstance(node.value.left, ast.Name)
        and node.value.left.id == node.targets[0].id
    )


def _self_sums_over_items(tree) -> list:
    return [
        node.lineno
        for loop in ast.walk(tree)
        if isinstance(loop, ast.For)
        and isinstance(loop.iter, ast.Call)
        and isinstance(loop.iter.func, ast.Attribute)
        and loop.iter.func.attr == "items"
        for node in ast.walk(loop)
        if _is_self_sum(node)
    ]


def test_sums_over_terms_go_through_linear():
    # ``out = out + image * c`` over the terms of an element builds a fresh
    # combination and copies the whole sum once per term; base.linear
    # accumulates every term in one dict and builds the result once
    sites = [(name, line) for name, tree in MODULES.items() for line in _self_sums_over_items(tree)]
    assert sites == []
    planted = "def f(x):\n    out = 0\n    for k, c in x.items():\n        out = out + c\n    return out\n"
    assert _self_sums_over_items(ast.parse(planted)) == [4]


def test_weyl_reordering_sum_is_written_out_once():
    # the k! of d^m t^n = sum_k C(m,k) C(n,k) k! t^(n-k) d^(m-k) appears only
    # in _weyl_key_mul; the TensorAlg commutator takes its terms past the
    # first instead of summing again
    inside = _calls(_function("weyl.py", "_weyl_key_mul"), "factorial")
    sites = [node.lineno for node in _calls(MODULES["weyl.py"], "factorial")]
    assert inside and sites == [node.lineno for node in inside]


def test_ad_partial_is_called_only_by_the_one_word_entries():
    # every ad chain reads the cached entries for p_i * word, so the
    # enveloping-algebra commutator is formed once per (i, word) and process
    inside = _calls(_function("enveloping.py", "_partials_past_word"), "_ad_partial")
    sites = [(name, node.lineno) for name, tree in MODULES.items() for node in _calls(tree, "_ad_partial")]
    assert inside and sites == [("enveloping.py", node.lineno) for node in inside]


MEMO_DECORATORS = {"cache", "lru_cache"}


def _memo_references(tree) -> list:
    """Line numbers of every use of functools.cache or lru_cache, bare or
    as an attribute, outside import statements."""
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if (isinstance(node, ast.Name) and node.id in MEMO_DECORATORS)
        or (isinstance(node, ast.Attribute) and node.attr in MEMO_DECORATORS)
    )


def _memoized_functions(tree) -> list:
    """(function name, decorator line) for each function decorated by a memo."""
    return [
        (node.name, deco.lineno)
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef)
        for deco in node.decorator_list
        if _memo_references(deco)
    ]


def test_only_the_normal_form_engines_are_memoized_for_the_process():
    # everything else that is reused is memoized for one run only
    # (base.run_memo); a process-wide cache grows without bound
    found = {(name, fn) for name, tree in MODULES.items() for fn, _ in _memoized_functions(tree)}
    assert found == {("enveloping.py", "nf"), ("enveloping.py", "_partials_past_word")}
    for name, tree in MODULES.items():
        decorators = sorted(line for _, line in _memoized_functions(tree))
        assert _memo_references(tree) == decorators, name
        aliased = [
            alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            for alias in node.names
            if alias.name in MEMO_DECORATORS and alias.asname
        ]
        assert aliased == [], name
    planted = "import functools\n\n@functools.lru_cache(None)\ndef f(x):\n    return x\n\ng = functools.cache(f)\n"
    tree = ast.parse(planted)
    assert _memoized_functions(tree) == [("f", 3)] and _memo_references(tree) == [3, 7]


def _module_level_stores(tree) -> list:
    """Lines of module-level assignments of a dict, list or set, as a literal,
    a comprehension or a constructor call."""
    containers = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)
    constructors = {"dict", "list", "set", "defaultdict", "OrderedDict"}
    return [
        node.lineno
        for node in tree.body
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        and node.value is not None
        and (
            isinstance(node.value, containers)
            or (isinstance(node.value, ast.Call) and getattr(node.value.func, "id", None) in constructors)
        )
    ]


def test_tmodule_keeps_no_module_level_memo():
    # the compiled letter actions live in the run scope (base.run_memo) and
    # BasisImages' tables in their check; a module-level dict, list or @cache
    # in tmodule would outlive the run and grow with every letter ever used
    tree = MODULES["tmodule.py"]
    assert _module_level_stores(tree) == [] and _memo_references(tree) == []
    planted = "_RECIPES: dict = {}\nSEEN = []\nT = defaultdict(dict)\nK = tuple[int, int]\n"
    assert _module_level_stores(ast.parse(planted)) == [1, 2, 3]


def test_import_leaves_dataclasses_out():
    # dataclasses imports inspect, which costs more start-up time than the
    # rest of the package's standard-library imports
    probe = "import sys, sbar2lab; print('dataclasses' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run([sys.executable, "-S", "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


GL_PAIRS = {(1, 1), (1, 2), (2, 1), (2, 2)}


def _gl_pair_literals(tree) -> list:
    """Lines of tuple literals (i, j) with i, j in {1, 2}, except the iterable
    of a loop and the right side of an ``in`` test, where such a tuple lists
    the two directions."""
    skip = {id(node.iter) for node in ast.walk(tree) if isinstance(node, (ast.For, ast.comprehension))}
    skip |= {
        id(node.comparators[0])
        for node in ast.walk(tree)
        if isinstance(node, ast.Compare) and isinstance(node.ops[0], (ast.In, ast.NotIn))
    }
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Tuple)
        and id(node) not in skip
        and all(isinstance(e, ast.Constant) for e in node.elts)
        and tuple(e.value for e in node.elts) in GL_PAIRS
    ]


def test_phi_is_written_out_once():
    # the tensor-module action is read off phi and the pi table: tmodule
    # names no E_ij of its own, the recipe has no d2 branch and no binomial
    # of phi, and the identification's degree rules live in pi_letter only
    assert _gl_pair_literals(MODULES["tmodule.py"]) == []
    recipe = _function("tmodule.py", "_letter_recipe")
    names = {node.id for node in ast.walk(recipe) if isinstance(node, ast.Name)}
    assert names & {"D2", "binom2", "comb0"} == set()
    assert _calls(_function("gl2.py", "pi_env"), "letter_degree") == []
    planted = "def f(alpha, j):\n    for i in (2, 1):\n        if j not in (1, 2):\n            g = [(alpha, (2, 1), 1)]\n"
    assert _gl_pair_literals(ast.parse(planted)) == [4]


def _is_range(node) -> bool:
    return isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "range"


def _nested_range_bounds(tree) -> list:
    """Lines of ``range(...)`` calls whose arguments read the variable of an
    enclosing loop over a range, statement or comprehension: a hand-written
    triangle such as ``for b1 in range(d + 1): for b2 in range(d + 1 - b1)``."""
    loops = []  # (loop variables, nodes in the loop's scope)
    for node in ast.walk(tree):
        if isinstance(node, ast.For) and _is_range(node.iter):
            loops.append((node.target, node.body))
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
            elts = [node.key, node.value] if isinstance(node, ast.DictComp) else [node.elt]
            for i, gen in enumerate(node.generators):
                if _is_range(gen.iter):
                    loops.append((gen.target, node.generators[i + 1:] + elts))
    lines = set()
    for target, scope in loops:
        variables = {n.id for n in ast.walk(target) if isinstance(n, ast.Name)}
        for part in scope:
            for node in ast.walk(part):
                if _is_range(node) and any(
                    isinstance(n, ast.Name) and n.id in variables for arg in node.args for n in ast.walk(arg)
                ):
                    lines.add(node.lineno)
    return sorted(lines)


def _ranges_from_minus_one(tree) -> list:
    """Lines of ``range(-1, ...)`` calls: an index running from -1 is an
    L-index coordinate."""
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if _is_range(node)
        and len(node.args) > 1
        and _is_int_literal(node.args[0])
        and ast.literal_eval(node.args[0]) == -1
    )


def test_exponent_windows_are_spelled_once():
    # the exponent window b in Z_+^2, |b| <= d is base.exponents and the
    # L-index window is lie.l_indices; uh_freeness_check keeps its own
    # triangle because it reuses each d2 power across the m1 loop
    allowed = {("base.py", "exponents"), ("lie.py", "l_indices"), ("tmodule.py", "uh_freeness_check")}
    sites = []
    for name, tree in MODULES.items():
        spans = [_function(name, fn) for module, fn in allowed if module == name]
        exempt = {line for node in spans for line in range(node.lineno, node.end_lineno + 1)}
        sites += [(name, line) for line in _nested_range_bounds(tree) if line not in exempt]
    assert sites == []
    for module, fn in allowed:
        assert _nested_range_bounds(_function(module, fn))
    planted = (
        "def f(d):\n    for b1 in range(d + 1):\n        for b2 in range(d + 1 - b1):\n            pass\n"
        "    return [(i, j) for i in range(3) for j in range(3 - i)] + [k for k in range(d)]\n"
    )
    assert _nested_range_bounds(ast.parse(planted)) == [3, 5]
    # an L-index window written out by hand, such as the sigma search's
    # a1, a2 in range(-1, cap + 2), is l_indices (plus the corner) instead
    l_indices = _function("lie.py", "l_indices")
    inside = set(range(l_indices.lineno, l_indices.end_lineno + 1))
    minus_one = [(name, line) for name, tree in MODULES.items() for line in _ranges_from_minus_one(tree)]
    assert minus_one and [site for site in minus_one if site[0] != "lie.py" or site[1] not in inside] == []
    planted = "idx = [(a1, a2) for a1 in range(-1, 4) for a2 in range(-1, 4)]\nks = range(-1)\nms = range(1, 4)\n"
    assert _ranges_from_minus_one(ast.parse(planted)) == [1, 1]


def test_tail_split_is_read_only_through_loc_from_uenv():
    # the localized element, the one-word entries and the residue all take
    # a word's (head, p-exponent, sign) split from Loc.from_uenv
    sites = [(name, node.lineno) for name, tree in MODULES.items() for node in _calls(tree, "split_tail_partials")]
    inside = _calls(_method("enveloping.py", "Loc", "from_uenv"), "split_tail_partials")
    assert inside and sites == [("enveloping.py", node.lineno) for node in inside]


def _appends_outside(tree, fn: str) -> list:
    """Lines of ``.append(...)`` calls outside the functions named ``fn``."""
    spans = [f for f in ast.walk(tree) if isinstance(f, ast.FunctionDef) and f.name == fn]
    inside = {id(node) for f in spans for node in ast.walk(f)}
    appends = [node for node in _calls(tree, "append") if isinstance(node.func, ast.Attribute)]
    return sorted(node.lineno for node in appends if id(node) not in inside)


def _nested_functions_with_defaults(tree) -> list:
    """Lines of functions and lambdas inside a function that take default
    arguments, the loop-variable capture of ``def thunk(alpha=alpha)``."""
    scopes = (ast.FunctionDef, ast.Lambda)
    return sorted(
        {
            inner.lineno
            for outer in ast.walk(tree)
            if isinstance(outer, scopes)
            for inner in ast.walk(outer)
            if inner is not outer
            and isinstance(inner, scopes)
            and (inner.args.defaults or any(d is not None for d in inner.args.kw_defaults))
        }
    )


def test_suites_build_cases_through_one_constructor():
    # every case is a literal tuple or comes from _cases, whose thunk is a
    # partial of one check over its entry; _bucketed appends to its buckets,
    # not to a case list. A case list grown by append, or a thunk capturing
    # its loop variables through defaults, is a second way to build a case
    tree = MODULES["suites.py"]
    assert _appends_outside(tree, "_bucketed") == [] and _nested_functions_with_defaults(tree) == []
    assert _calls(_function("suites.py", "_bucketed"), "append") and _calls(_function("suites.py", "_cases"), "partial")
    planted = (
        "def f(xs, cases):\n    for alpha in xs:\n        def thunk(alpha=alpha):\n            return alpha\n"
        "        cases.append(thunk)\n    return [lambda x=1: x, lambda x: x]\n\ndef g(y=0):\n    return y\n"
    )
    assert _appends_outside(ast.parse(planted), "_bucketed") == [5]
    assert _nested_functions_with_defaults(ast.parse(planted)) == [3, 6]
