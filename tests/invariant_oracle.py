"""The three-point invariant assembled from the whole quantum product, kept as
a test oracle for ``qcblowup.quantum.gw_invariant``, which computes only the
requested piece on the integer ring model and pairs it with gamma through
the classical ring's model instead.

The product routine splits alpha * beta by curve class (``_contributions``
by default; the tests also pass the Groebner assembly of
``product_oracle``), the piece at the query's class is multiplied by gamma
as polynomials, and the product is integrated through a Groebner normal
form.  Blow-up classes are translated to bundle coordinates first.
"""

from qcblowup import Polynomial, change_vars, classical_presentation, integrate, quantum_presentation
from qcblowup.quantum import _contributions


def assembled_invariant(query, qp, contributions=_contributions):
    """The invariant of an admissible query whose classes lie within the top
    degree; 0 for an inadmissible one."""
    if not query.admissible:
        return 0
    classes = (query.alpha, query.beta, query.gamma)
    if qp.coords == "blowup":
        qp = quantum_presentation(qp.params, "bundle")
        classes = tuple(change_vars(c, "blowup_to_bundle") for c in classes)
    alpha, beta, gamma = classes
    key = (query.curve.a, query.curve.b)
    piece = contributions(alpha, beta, qp).get(key, Polynomial.zero(qp.variables))
    return integrate(piece * gamma, classical_presentation(qp.params, "bundle"))
