"""Table I reproduction bench: the error taxonomy.

Paper reference: each error source is suppressible by the techniques the
table marks with a check, and immune to the ones marked with a cross.
"""

from repro.experiments import run_table1


def test_error_taxonomy(benchmark, once):
    result = once(benchmark, run_table1, depth=8, shots=48)
    print()
    for line in result.rows():
        print(line)
    rows = {r.error: r for r in result.entries}

    idle = rows["Z+ZZ (idle)"]
    assert idle.residual_ec < 0.2 * idle.residual_none
    assert idle.residual_dd < 0.2 * idle.residual_none

    active = rows["ZZ (active)"]
    assert active.residual_ec < active.residual_none

    stark = rows["Stark Z"]
    assert stark.residual_ec < 0.2 * stark.residual_none
    assert stark.residual_dd < 0.2 * stark.residual_none

    slow = rows["Slow Z"]
    assert slow.residual_dd < slow.residual_ec  # EC cannot fix slow Z

    nnn = rows["NNN ZZ"]
    nnn2 = rows["NNN ZZ(2col)"]
    assert nnn.residual_dd < nnn.residual_none  # Walsh suppresses it
    assert nnn.residual_dd < nnn2.residual_dd + 0.05  # 2 colors are not enough
