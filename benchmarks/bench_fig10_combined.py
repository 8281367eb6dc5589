"""Fig. 10 reproduction bench: combined CA-EC + CA-DD strategy.

Paper reference: on a Floquet circuit containing both an idle pair and
adjacent ECR controls, the combined strategy outperforms its constituents.

The nightly run asserts the claims on the driver's default seed. Over driver
seeds 7001-7005, the default and the next four, every assert passes, but
the combined strategy's slack over ``best_single - 0.02`` is only
0.013-0.041. At seeds 7001 and 7005 it reads below the better constituent
(CA-EC), by 0.002 and 0.007, inside the assert's 0.02 allowance; the
standard error of that difference is about 0.01, so the assert checks "no
worse than CA-EC by about 2 sigma", not "better". Both constituents beat
none by at least 0.20.
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
