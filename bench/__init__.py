"""The repository's one benchmark: five closed-loop workloads, floor-timed.

``python3 bench/run.py`` (or ``python -m bench``) is the single entry
point; ``bench/README.md`` has the metric glossary and the reasoning.
The parent process (:mod:`bench.cli`) never imports the program under
test: every workload runs in its own child (:mod:`bench.worker`).
"""
