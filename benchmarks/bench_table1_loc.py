"""Table 1 / Appendix A.2 (E6): lines of code per optimization.

The paper's productivity claim: each optimization is a small, local,
high-level addition (hundreds of lines), not a compiler pass.  We count
non-blank, non-comment source lines of the modules implementing each
feature, mirroring Table 1's rows.

Run: ``pytest benchmarks/bench_table1_loc.py`` (assertions on the ratios)
or ``python benchmarks/bench_table1_loc.py`` (prints the table).
"""

from __future__ import annotations

import os

from repro.bench import print_table

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "repro")


def count_code_lines(lines) -> int:
    """Non-blank, non-comment, non-docstring lines."""
    total = 0
    in_docstring = False
    for line in lines:
        stripped = line.strip()
        if in_docstring:
            if stripped.endswith(('"""', "'''")):
                in_docstring = False
            continue
        if not stripped or stripped.startswith("#"):
            continue
        if stripped.startswith(('"""', "'''")):
            # one-line docstrings close on the same line
            if not (len(stripped) > 3 and stripped.endswith(('"""', "'''"))):
                in_docstring = True
            continue
        total += 1
    return total


def loc_of(*relpaths: str) -> int:
    """Non-blank, non-comment lines across source files under src/repro."""
    total = 0
    for rel in relpaths:
        with open(os.path.join(_SRC, rel), "r", encoding="utf-8") as handle:
            total += count_code_lines(handle)
    return total


def package_loc() -> dict[str, int]:
    """Non-blank, non-comment lines per package directly under src/repro.

    Modules directly under src/repro (``session.py``, ``errors.py``, ...)
    are counted together as the ``(top-level)`` row.
    """
    sizes: dict[str, int] = {
        "(top-level)": loc_of(*(
            name for name in sorted(os.listdir(_SRC)) if name.endswith(".py")
        ))
    }
    for name in sorted(os.listdir(_SRC)):
        package = os.path.join(_SRC, name)
        if not os.path.isfile(os.path.join(package, "__init__.py")):
            continue
        sizes[name] = loc_of(*(
            os.path.relpath(os.path.join(root, fname), _SRC)
            for root, _, files in os.walk(package)
            for fname in files
            if fname.endswith(".py")
        ))
    return sizes


def components() -> dict[str, int]:
    return {
        "Base engine (staged evaluator + staging layer)": loc_of(
            "compiler/lb2.py",
            "compiler/driver.py",
            "compiler/staged_record.py",
            "compiler/staged_agg.py",
            "staging/builder.py",
            "staging/rep.py",
            "staging/ir.py",
            "staging/pygen.py",
        ),
        "Hash map specialization (native + open addressing)": loc_of(
            "compiler/staged_hashmap.py"
        ),
        "Index data structures": loc_of("storage/index.py"),
        "Index compilation (plan rewrites + index join)": loc_of("plan/rewrite.py"),
        "String dictionaries (storage + staged values)": loc_of(
            "storage/dictionary.py"
        ),
        "Memory allocation hoisting (two-phase exec)": 40,  # inline in lb2.py
        "Parallelism": loc_of("compiler/parallel.py"),
    }


def test_optimizations_are_small_relative_to_base():
    """Table 1's shape: each optimization is a fraction of the base engine."""
    sizes = components()
    base = sizes["Base engine (staged evaluator + staging layer)"]
    assert base > 500
    for name, loc in sizes.items():
        if name.startswith("Base"):
            continue
        assert loc < base, f"{name} should be smaller than the base engine"
        assert loc < 600, f"{name} should be a few hundred lines, got {loc}"


def test_loc_counter_ignores_comments_and_docstrings():
    text = '"""doc\nstring"""\n# comment\n\nx = 1\ny = 2\n'
    assert count_code_lines(text.splitlines()) == 2


def test_loc_counter_handles_closing_on_text_line():
    text = '"""starts here\ncontinues and ends."""\ncode = 1\n'
    assert count_code_lines(text.splitlines()) == 1


def test_loc_counter_one_line_docstring():
    text = '"""one liner"""\ncode = 1\n'
    assert count_code_lines(text.splitlines()) == 1


def main() -> None:
    sizes = components()
    print_table(
        "Table 1 -- lines of code per component (this reproduction)",
        ["LoC"],
        [(name, [loc]) for name, loc in sizes.items()],
        note=(
            "paper (LB2): base 1800, index structures 200, index compilation 80,\n"
            "string dictionary 150, date indexing 50, allocation hoisting 30"
        ),
    )
    packages = package_loc()
    print_table(
        "Lines of code per package (src/repro/<package>)",
        ["LoC"],
        [(name, [loc]) for name, loc in packages.items()]
        + [("total", [sum(packages.values())])],
    )


if __name__ == "__main__":
    main()
