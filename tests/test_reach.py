"""Every function in src/ is reached by a run, unless an allowlist entry
says why not."""

import inspect
import json
import os
import subprocess
import sys

import repmoduli

ROOT = os.path.dirname(repmoduli.__file__)

# the three benchmark workload batches, and one report in text format
BATCHES = [
    ["--family", "sz", "--q", "8,32,128"],
    ["--family", "psl2", "--q", "4,8,11,19", "--k", "0"],
    ["--family", "dihedral", "--q", ",".join(map(str, range(3, 100, 2))),
     "--checks", "tables,centralizers"],
    ["--family", "psl2", "--q", "8", "--format", "text"],
]

_BENCH = "bench/spans.py wraps it by name (ROADMAP item 6)"
_REPR = "debugging output"
ALLOWED = {
    "chars:inner_product": _BENCH,
    "numerics:word_differential_check": _BENCH,
    "numerics:random_moduli_point": _BENCH,
    "numerics:random_h_point": _BENCH,
    "chars:CharacterTable.to_json": "the table export the README documents",
    "chars:CharacterTable.to_text": "the table export the README documents",
    "chars:value_text": "the table export and two error texts",
    "cli:_error": "the text of a record that raised",
    "chars:Character.__repr__": _REPR,
    "chars:CharacterTable.__repr__": _REPR,
    "gf:FieldSpec.__repr__": _REPR,
}

# runs the batches in a fresh process, so that no cached table or model
# of an earlier test hides a builder, and prints every code object called
_CHILD = """
import json, os, sys
import repmoduli.cli as cli
seen = set()

def note(frame, event, arg):
    if event == "call":
        seen.add(frame.f_code)

sys.setprofile(note)
for argv in json.loads(sys.argv[1]):
    cli.main(argv + ["--seed", "0", "--out", os.devnull])
sys.setprofile(None)
print(json.dumps([[c.co_filename, c.co_firstlineno, c.co_name]
                  for c in seen]))
"""


def _functions(code, path, prefix):
    """(path, first line, name) -> qualified name of every function
    defined in `code`, nested ones included."""
    out = {}
    for c in code.co_consts:
        if not inspect.iscode(c) or c.co_name.startswith("<"):
            continue
        name = prefix + c.co_name
        function = c.co_flags & inspect.CO_OPTIMIZED
        if function:
            out[(path, c.co_firstlineno, c.co_name)] = name
        out.update(_functions(c, path,
                              name + (".<locals>." if function else ".")))
    return out


def test_src_holds_only_reached_functions():
    defined = {}
    for file in sorted(os.listdir(ROOT)):
        if file.endswith(".py"):
            path = os.path.join(ROOT, file)
            with open(path) as fh:
                code = compile(fh.read(), path, "exec")
            defined.update(_functions(code, path, file[:-3] + ":"))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.dirname(ROOT), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", _CHILD, json.dumps(BATCHES)],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    called = {tuple(c) for c in json.loads(proc.stdout)}
    unreached = {defined[k] for k in defined.keys() - called}
    # an entry whose function is gone fails too, so the list stays current
    assert set(ALLOWED) <= set(defined.values())
    assert sorted(unreached - set(ALLOWED)) == []
