"""The name of the placement code's implementation.

The placement hot loops live in the modules that own their state
(``topology/ledger.py``, ``temporal/admission.py``,
``placement/state.py``, ``placement/secondnet.py``); there is one
implementation, in Python.  The benchmark harness records this value
and refuses a run whose value is not the backend it asked for.
"""

backend = "py"
