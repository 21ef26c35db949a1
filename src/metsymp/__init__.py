"""Contact metric structures, their metric symplectizations, and verifiers.

The package is organized in layers:

``expressions`` / ``jets``
    Closed-form component functions and exact first- and second-order jet
    arithmetic.
``charts`` / ``fields``
    Coordinate boxes, tensor fields (a scalar field is one of rank 0), and
    the exterior and Lie calculus.
``curvature``
    Levi-Civita connection, curvature and Ricci on sample batches, and
    orthonormal frames.
``contact``
    Contact metric structures, the Reeb field and the h tensor,
    nullity-constant fitting, rescalings, the classification index,
    eigenspace curvature identities.
``symplectization``
    The product structure with form d(exp(2t) eta), the unique compatible
    metric, slices, integrability, translations between symplectizations.
``submersion``
    The projection onto the line factor, its fundamental tensors, and the
    curvature and Ricci relations they imply.
``catalog`` / ``structfile`` / ``suite`` / ``cli``
    Built-in examples, a declarative input format, the check runner, and
    the command line front end.
"""

__version__ = "0.1.0"

from .charts import Chart, product_with_line
from .contact import (
    ContactMetricStructure,
    KmuReport,
    boeckx_index,
    d_homothety,
    fit_kappa_mu,
    h_eigendecomposition,
    h_eigendecomposition_batch,
    is_K_contact,
    kappa_mu_after_rescale,
    reeb_field,
    structure_values,
    verify_compatibility,
    verify_kmu_curvature,
    verify_structure_isomorphism,
)
from .catalog import CatalogEntry, catalog_load, catalog_names
from .curvature import ChristoffelData
from .fields import (
    SmoothMap,
    TensorField,
    exterior_derivative,
    interior_product,
    lie_derivative,
    pullback,
    raise_index,
    wedge,
)
from .jets import Jet2
from .structfile import load_structure_file, parse_structure_text
from .submersion import (
    fit_symplectization_kmu,
    oneill_A,
    oneill_T,
    verify_currel,
    verify_fundamental_tensors,
)
from .suite import SuiteConfig, SuiteReport, report_emit, run_suite
from .symplectization import (
    SymplecticMetricStructure,
    build_metric_symplectization,
    nijenhuis,
    nijenhuis_values,
    slice_structure,
    translation_isomorphism_check,
    verify_liouville,
    verify_symplectic,
)
