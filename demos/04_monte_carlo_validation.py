"""Validate the expected-profit formula with repeated simulated markets.

Every trial samples fresh customer valuations, sells at the optimal posted
price, and records realized profit; the mean should land within a few standard errors
of the analytic expectation, and tighten as the market grows.
"""

from dataclasses import replace

from datamarket import simulate, taxi_scenario

config = taxi_scenario()
print(f"benchmark scenario: M = {config.M}, q = {config.q}, "
      f"k = {config.k}, gamma = {config.gamma}, trials = {config.trials}")

report = simulate(config)
print(f"\nanalytic expected profit : {report.analytic_profit:10.2f}")
print(f"empirical mean profit    : {report.empirical_mean:10.2f}")
print(f"empirical std deviation  : {report.empirical_std:10.2f}")
print(f"standard error           : {report.std_error:10.2f}")
gap = abs(report.empirical_mean - report.analytic_profit)
print(f"gap = {gap:.2f} ({gap / report.std_error:.2f} standard errors, "
      f"agree = {report.within_three_se})")

print("\nper-customer precision improves as the market grows:")
for m in (100, 1000, 10000):
    r = simulate(replace(config, M=m, trials=50))
    print(f"  M = {m:6d}: mean = {r.empirical_mean:9.2f}   "
          f"se = {r.std_error:6.3f}   se/M = {r.std_error / m:.2e}")
