"""The repository's benchmark (see bench/README.md and BENCHMARK.json).

Everything here drives the program through its public API only and owns
its own inputs, so a change to the program cannot move the workloads.
"""
