"""The two-clock layer ledger: the repository's benchmark.

Four closed-loop Retwis workloads, measured on both clocks (host wall
clock of the simulator, simulated clock of the modelled system) and
attributed to this repo's packages.  See ``README.md`` beside this file
for the workloads, the metric glossary and how a later change names a
claim.  Nothing under ``src/`` knows about this package.
"""
