"""Shared pytest hooks and test helpers.

The acceptance tests register one summary line per criterion; echoing
them here keeps the lines visible in a normal run, where stdout of
passing tests is captured.
"""

import numpy as np

CRITERION_LINES = []


def indexed_links(links):
    """A document's links ((sent, pos), (sent, pos)) in the form the NER
    teacher reads them: the linked sites in increasing order, as an (S, 2)
    array, and each link as a pair of indices into them."""
    sites = sorted({s for pair in links for s in pair})
    index = {s: i for i, s in enumerate(sites)}
    return (np.array(sites, dtype=int).reshape(-1, 2),
            [(index[a], index[b]) for a, b in links])


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if CRITERION_LINES:
        terminalreporter.section("acceptance criteria")
        for line in CRITERION_LINES:
            terminalreporter.write_line(line)
