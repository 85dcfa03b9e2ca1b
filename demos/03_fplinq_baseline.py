"""The fractional-programming baseline: monotone ascent from full power.

Each iteration is a closed-form O(K^2) update and the weighted sum-rate
never goes down. The fixed point is near-binary on strong-interference
topologies, which is why it doubles as a link scheduler.

Run: python3 demos/03_fplinq_baseline.py
"""

import numpy as np

from d2dpower import netgen
from d2dpower.fplinq import fp_iterate, fplinq
from d2dpower.rates import offdiag, weighted_sum_rate

params = netgen.SystemParams()
net = netgen.sample_layout(params, k=8, seed=11)
w = np.ones(8)


def step(x, net):
    """One closed-form update from x (fp_iterate works on plain arrays)."""
    return fp_iterate(x, w, net.gain, offdiag(net.gain), net.noise_power, 1)


# --- watch the ascent, one update at a time
x = np.ones(8)
print("iter   wsr [nats]   active links (x > 0.5)")
for k in range(101):
    if k in (0, 1, 2, 5, 10, 25, 50, 100):
        r = weighted_sum_rate(x, w, net)
        print(f"{k:4d}   {r:9.4f}    {int(np.sum(x > 0.5))}")
    x = step(x, net)

x100 = fplinq(net, w, iters=100)
print("\nfinal powers:", np.round(x100, 4))

# --- monotonicity holds on every draw, not just this one
worst = 0.0
for s in range(30):
    net_s = netgen.sample_layout(params, k=8, seed=200 + s)
    x = np.ones(8)
    prev = weighted_sum_rate(x, w, net_s)
    for _ in range(60):
        x = step(x, net_s)
        cur = weighted_sum_rate(x, w, net_s)
        worst = max(worst, prev - cur)
        prev = cur
print(f"\nlargest single-iteration wsr decrease over 30 nets: {worst:.2e}")

# --- weights steer the allocation
net2 = netgen.sample_layout(params, k=4, seed=5)
for wv in (np.ones(4), np.array([10.0, 1.0, 1.0, 1.0])):
    xw = fplinq(net2, wv, iters=100)
    print(f"w = {wv} -> x = {np.round(xw, 3)}")
