"""Sublinear testers for the gap edit distance problem.

Given query access to two strings and a threshold t, the testers decide
between distance at most t (close, never misreported) and distance beyond
13 t^2 (far, caught with probability at least 2/3), reading far fewer
characters than the strings hold.  The package also ships the exact
diagonal-transition oracle used to certify test corpora, a selective
diagonal scan that prices only undominated cells, instance generators,
and a CLI.  Each name is imported from its module, as gaped.tester.run.
"""

__version__ = "0.1.0"
