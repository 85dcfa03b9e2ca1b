"""The untrained primal-dual solver, and why normalization matters.

The solver walks (t, x, lam) with constant step sizes. In normalized mode
the power step is divided by the gradient norm and the multiplier is
projected to lam >= 0; plain mode drops both, so its step lengths track
the raw gradient scale and the tail of the run oscillates more.

Run: python3 demos/02_untrained_solver.py
"""

import numpy as np

from d2dpower import netgen
from d2dpower.rates import utopian_point, weighted_sum_rate
from d2dpower.solver import run, viva_defaults

params = netgen.SystemParams()
net = netgen.sample_layout(params, k=5, seed=7)
w = np.ones(5)

# --- the scalarization frame anchors the solve at the utopian point:
# a = -u and the unit direction r = u/|u|
u = utopian_point(net)
print("utopian rates u [nats]:", np.round(u, 2))
print("direction r = u/|u|  :", np.round(u / np.linalg.norm(u), 3))

# --- 60 layers of the constant default schedule
sched = viva_defaults(60, constant=0.003)
x, trace = run(net, w, sched, mode="normalized", x0=0.01)
print("\nnormalized mode, every 10th layer:")
print("layer   wsr      lam      |x|")
for k in range(0, 61, 10):
    print(f"{k:5d}  {trace.wsr[k]:7.3f}  {trace.lam[k]:7.3f}  "
          f"{np.linalg.norm(trace.x[k]):6.3f}")
print("final powers:", np.round(x, 3))

# --- plain vs normalized over 20 layouts
# In normalized mode the x displacement has length alpha2 * lam before the
# box clip, whatever the gradient scale. Plain mode inherits the raw
# gradient magnitude, so its steps swing with the channel draw.
spread = {"normalized": [], "plain": []}
steps = {"normalized": [], "plain": []}
tail = slice(40, 61)
for s in range(20):
    net_s = netgen.sample_layout(params, k=5, seed=100 + s)
    for mode in ("normalized", "plain"):
        _, tr = run(net_s, w, sched, mode=mode, x0=0.01)
        spread[mode].append(tr.wsr[tail].max() - tr.wsr[tail].min())
        steps[mode].append(np.median(np.linalg.norm(np.diff(tr.x, axis=0),
                                                    axis=1)))
print("\n20-layout medians, layers 40..60:")
for mode in ("normalized", "plain"):
    print(f"  {mode:10s}  wsr spread {np.median(spread[mode]):.3f}  "
          f"step length {np.median(steps[mode]):.5f}")

# --- the number of layers is the compute budget
for n in (5, 10, 20, 60):
    xn, _ = run(net, w, viva_defaults(n), x0=0.01, keep_trace=False)
    print(f"N = {n:3d} layers -> wsr {weighted_sum_rate(xn, w, net):7.3f} nats")
