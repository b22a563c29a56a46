"""Macro-set expansion simulations and dependency-graph compression analytics.

Each name lives in its module (`macrolab.monoid`, `macrolab.families`,
`macrolab.expansion`, ...) and is imported from there, so importing the
package imports none of them.
"""

__version__ = "0.1.0"
