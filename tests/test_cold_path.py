"""The cold query path of both exact routes runs only gwp1 and Fraction code.

Each query runs in a fresh process, so a stdlib helper whose first call walks an
ABC, reflects on a class's fields or takes a lock costs page faults on every query.
The guard records the file of every Python frame that a query enters.
"""

import fractions
import gc
import os
import sys

import pytest

import gwp1
from gwp1.invariants import n_point_invariant
from gwp1.zmodel import stabilization_check, zmodel_expansion

PACKAGE = os.path.dirname(gwp1.__file__) + os.sep
# Fraction arithmetic, and the __new__ of each named-tuple record, whose code is compiled
# from "<string>"
ALLOWED = {fractions.__file__, "<string>"}


@pytest.mark.parametrize("query, args, attribute", [
    (n_point_invariant, ((4,),), None),
    (n_point_invariant, ((0, 2),), None),
    (n_point_invariant, ((1, 1),), None),
    (n_point_invariant, ((1, 2),), None),
    (n_point_invariant, ((1, 3),), None),
    (zmodel_expansion, (4, 1), "quotient"),
    (zmodel_expansion, (5, 3), "log_in_times"),
    (stabilization_check, (2, 4, 5), None),
    (stabilization_check, (4, 5, 6), None),
], ids=["tau4", "tau0-tau2", "tau1-tau1", "tau1-tau2", "tau1-tau3", "zmodel-4-1-quotient",
        "zmodel-5-3-log", "stab-2-4-5", "stab-4-5-6"])
def test_cold_query_enters_only_gwp1_and_fraction_frames(fresh_rows, query, args, attribute):
    files = set()

    def record(frame, event, arg):
        if event == "call":
            files.add(frame.f_code.co_filename)

    gc.collect()
    gc.disable()  # no finalizer of an unrelated object runs inside the window
    sys.setprofile(record)
    try:
        result = query(*args)
        if attribute:
            getattr(result, attribute)
    finally:
        sys.setprofile(None)
        gc.enable()
    assert sorted(f for f in files if not f.startswith(PACKAGE) and f not in ALLOWED) == []
    if query is n_point_invariant and sum(args[0]) % 2:
        assert len(fresh_rows.dens) == 0  # odd sum(k): 0 by the selection rule, no row grown
    else:
        assert len(fresh_rows.dens) > 0
