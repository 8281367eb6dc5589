"""Fig. 10 reproduction bench: combined CA-EC + CA-DD strategy.

Paper reference: on a Floquet circuit containing both an idle pair and
adjacent ECR controls, the combined strategy outperforms its constituents.
"""


from repro.experiments import run_fig10


def test_combined_beats_constituents(benchmark, once):
    result = once(benchmark, run_fig10)
    print()
    for line in result.rows():
        print(line)
    means = {name: result.mean_fidelity(name) for name in result.curves}
    # Shape: both constituents beat the baseline; the combination is at
    # least as good as the better constituent (within sampling noise).
    assert means["ca_dd"] > means["none"]
    assert means["ca_ec"] > means["none"]
    best_single = max(means["ca_dd"], means["ca_ec"])
    assert means["ca_ec+dd"] > best_single - 0.02
