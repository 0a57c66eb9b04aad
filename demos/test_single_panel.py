"""Run the five alpha tests on one synthetic panel.

Simulates a 200-security, 100-period panel with three nonzero intercepts
and prints each test's statistic, p-value and decision.
"""

import numpy as np

from alphatest import run_all_detailed
from alphatest.dgp import (
    assemble_panel,
    build_cov,
    cov_sqrt,
    gen_alpha,
    gen_betas,
    gen_errors,
    gen_factors,
)

rng = np.random.default_rng(42)
n, t, m = 200, 100, 3

sigma = build_cov("M1", n, rng)
factors = gen_factors(t, rng=rng)
errors = gen_errors(cov_sqrt(sigma), "normal", t, rng)
betas = gen_betas(n, rng)
alpha = gen_alpha(n, m, t, rng=rng)

panel = assemble_panel(alpha, betas, factors, errors)
results, diag = run_all_detailed(panel)

print(f"panel: N={diag['N']} T={diag['T']} p={diag['p']} v={diag['v']}")
support = np.flatnonzero(alpha)
print(f"true alpha support: {support.tolist()}, magnitude {alpha[support[0]]:.4f}")
print(f"dependence: threshold {diag['threshold_used']:.4f}, "
      f"{diag['coupled']} coupled securities in {diag['components']} components "
      f"(largest {diag['largest_component']}), "
      f"PSD repair {'fired' if diag['repaired'] else 'idle'}, "
      f"{diag['mt_survivors']} MT pairs, rho_bar_sq {diag['rho_bar_sq']:.6f}")
print()
print(f"{'test':<6}{'statistic':>12}{'p-value':>12}{'critical':>12}  decision")
for r in results:
    verdict = "reject" if r.reject else "keep"
    print(f"{r.name:<6}{r.statistic:>12.4f}{r.p_value:>12.6f}"
          f"{r.critical_value:>12.4f}  {verdict}")
