"""Coastal water-quality monitoring pipeline.

Turns multispectral reflectance scenes into dense turbidity / pH maps with a
regression network whose weights are transplanted into a fully-convolutional
form, then thresholds the maps into compact anomaly alerts. Includes a
desk-scale simulator for the satellite product chain and FP16 deployment
checks.
"""

from .alerting import AlertMap, AlertMessage, ThresholdPolicy, run_scene, threshold
from .convnet import (
    ContaminantMap,
    ConvNet,
    fc_to_cnn,
    infer_patch,
    load_cnn1,
    save_cnn1,
    verify_equivalence,
)
from .dataset import (
    InSituRecord,
    Sample,
    SampleTable,
    SplitSpec,
    ingest_records,
    match,
    normalize,
    select_surface,
    split,
)
from .mlp import (
    EvalReport,
    MLPParams,
    TrainConfig,
    evaluate,
    forward,
    gradient_check,
    init_mlp,
    load_mdl1,
    loss_rmse,
    save_mdl1,
    train,
)
from .quantbench import BenchReport, QuantReport, bench, compare_quantized, quantize_fp16
from .raster import (
    BandStack,
    GeoRef,
    Patch,
    TileIndex,
    mosaic,
    read_pat1,
    tile_scene,
    window_average,
    write_pat1,
)
from .sensor import (
    DegradeConfig,
    MaskSet,
    SceneSpec,
    SolarContext,
    generate_synthetic_scene,
    reflectance_to_radiance,
    resample,
    simulate_l1c,
)

__version__ = "0.1.0"
