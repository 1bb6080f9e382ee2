"""Per-object eigenspace learning and nearest-neighbor appearance recognition."""

from .eigenspace import (
    Eigenspace,
    EigenspaceConfig,
    ManifoldPoint,
    build_eigenspace,
    load_model,
    save_model,
    save_sidecar,
)
from .imgio import (
    AppearanceVector,
    OcclusionSpec,
    RasterImage,
    ViewLabel,
    apply_occlusion,
    parse_pgm,
    synth_view,
    vectorize,
    write_pgm,
)
from .linalg import choose_k, gram_pca, sym_eigen
from .recog import EvaluationReport, RecognitionResult, dump_coordinates, evaluate, recognize
from .registry import EnrollmentPolicy, ObjectRegistry

__version__ = "0.1.0"

__all__ = [
    "AppearanceVector",
    "Eigenspace",
    "EigenspaceConfig",
    "EnrollmentPolicy",
    "EvaluationReport",
    "ManifoldPoint",
    "ObjectRegistry",
    "OcclusionSpec",
    "RasterImage",
    "RecognitionResult",
    "ViewLabel",
    "apply_occlusion",
    "build_eigenspace",
    "choose_k",
    "dump_coordinates",
    "evaluate",
    "gram_pca",
    "load_model",
    "parse_pgm",
    "recognize",
    "save_model",
    "save_sidecar",
    "sym_eigen",
    "synth_view",
    "vectorize",
    "write_pgm",
]
