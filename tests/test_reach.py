"""A reach guard: every function and class that ``uda`` exports is entered
by some command, apart from a short list, each entry with what keeps it.

``uda.cli.main`` runs in-process under ``sys.setprofile`` over a fixed list
of calls: every subcommand in each of its modes (text and JSON, in and out
of the quotient, each dual, the windows of ``genfun``, a refused input, a
call that argparse parses, a document written to a file) and
``verify --r 3 --n 5``.  An exported function is entered when its code runs
(a ``memo`` table's function when the table computes, so every table starts
empty); a class is entered when one of its own methods runs.  A class with
no method of its own, an error or an enum, has no code to enter and is not
counted.
"""

import inspect
import sys

import uda
import uda.cli

# exported, and entered by no command
UNREACHED = {
    # pinned by name in perfbench/tracer.py (SPAN_FUNCTIONS), which the
    # traced benchmark wraps; they move to the tests once unpinned
    "wedge", "reduce_mod_n", "rep_matrix",
    "RepMatrix",   # rep_matrix's record
    # the residue calculus, the route outside the quotient that only the
    # acceptance criterion 5 walks
    "residue", "residue_tuple", "expand_over_factor",
    # the constructor of the e-variables, one of the ring's three families
    "e_",
    # a library caller's reset of every memo table: a command runs once in
    # a process of its own, so none needs it
    "clear_caches",
}


def _argvs(out_path):
    q24 = ("--r", "2", "--n", "4")
    return [
        ["giambelli", *q24, "--lambda", "2,1"],
        ["giambelli", *q24, "--lambda", "2,1", "--output", "json"],
        ["giambelli", "--r", "2", "--lambda", "3,1", "--out", str(out_path)],
        ["act", *q24, "--lambda", "2,1", "--i", "3", "--j", "2"],
        ["act", *q24, "--lambda", "2,1", "--i", "3", "--j", "2", "--output", "json"],
        ["act", *q24, "--lambda", "1", "--i", "2", "--j", "0", "--no-project"],
        ["act", "--r", "2", "--lambda", "2,1", "--i", "3", "--j", "1",
         "--dual", "s", "--output", "json"],
        ["act", *q24, "--lambda", "2,1", "--i", "3", "--j", "1", "--dual", "s"],
        ["genfun", *q24, "--lambda", "1"],
        ["genfun", *q24, "--lambda", "2,1", "--output", "json"],
        ["genfun", *q24, "--lambda", "2,1", "--no-project", "--zmax", "3",
         "--wmax", "1"],
        ["genfun", *q24, "--lambda", "2,1", "--no-project", "--zmax", "3",
         "--wmin", "-2", "--wmax", "1", "--output", "json"],
        ["genfun", *q24, "--lambda", "2,1", "--no-project", "--zmax", "2",
         "--wmin", "1", "--wmax", "2", "--output", "json"],
        ["genfun", "--r", "2", "--lambda", "2,1", "--dual", "none",
         "--no-project", "--zmax", "3"],
        ["genfun", *q24, "--lambda", "1", "--dual", "none", "--no-project",
         "--zmax", "2", "--wmin", "-1", "--output", "json"],
        ["matrix", *q24, "--i", "2", "--j", "0"],
        ["matrix", *q24, "--i", "1", "--j", "3", "--output", "json"],
        ["factorize", *q24],
        ["factorize", *q24, "--output", "json"],
        ["verify", "--r", "2"],
        ["verify", "--r", "3", "--n", "5"],
        ["verify", "--r", "2", "--n", "5", "--suite", "bracket"],
        # refused: the projected genfun needs --n
        ["genfun", "--r", "2", "--lambda", "1"],
        # parsed by argparse, not by the declaration scan
        ["giambelli", "--r=2", "--lambda", "1,1"],
    ]


def _codes(obj):
    """The code objects of an exported function (its ``memo`` table's
    function, unwrapped) or of a class's own methods and properties."""
    if inspect.isclass(obj):
        found = []
        for member in vars(obj).values():
            if isinstance(member, (staticmethod, classmethod)):
                member = member.__func__
            if isinstance(member, property):
                found += [member.fget, member.fset]
            else:
                found.append(member)
        # an enum's class dict also holds functions of Enum itself
        return [f.__code__ for f in found if inspect.isfunction(f)
                and f.__qualname__.startswith(obj.__qualname__ + ".")]
    return [inspect.unwrap(obj).__code__]


def test_every_export_but_the_listed_ones_is_reached(tmp_path, capsys):
    exported = {name: _codes(obj) for name, obj in vars(uda).items()
                if (inspect.isfunction(obj) or inspect.isclass(obj)
                    or callable(getattr(obj, "cache_info", None)))
                and obj.__module__.startswith("uda.")}
    entered = set()

    def watch(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    uda.clear_caches()
    codes = []
    sys.setprofile(watch)
    try:
        for argv in _argvs(tmp_path / "doc.txt"):
            codes.append(uda.cli.main(argv))
    finally:
        sys.setprofile(None)
    capsys.readouterr()
    assert codes == [0] * 22 + [1, 0]
    assert (tmp_path / "doc.txt").read_text().startswith("Delta_(3,1)")
    unreached = {name for name, found in exported.items()
                 if found and not entered.intersection(found)}
    assert unreached == UNREACHED
