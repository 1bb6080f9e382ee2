"""Per-object eigenspace learning and nearest-neighbor appearance recognition."""

from .eigenspace import (
    Eigenspace,
    EigenspaceConfig,
    build_eigenspace,
    load_model,
    save_model,
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
from .recog import EvaluationReport, RecognitionResult, evaluate, recognize
from .registry import EnrollmentPolicy, ObjectRegistry

__version__ = "0.1.0"

__all__ = [
    "AppearanceVector",
    "Eigenspace",
    "EigenspaceConfig",
    "EnrollmentPolicy",
    "EvaluationReport",
    "ObjectRegistry",
    "OcclusionSpec",
    "RasterImage",
    "RecognitionResult",
    "ViewLabel",
    "apply_occlusion",
    "build_eigenspace",
    "choose_k",
    "evaluate",
    "gram_pca",
    "load_model",
    "parse_pgm",
    "recognize",
    "save_model",
    "sym_eigen",
    "synth_view",
    "vectorize",
    "write_pgm",
]
