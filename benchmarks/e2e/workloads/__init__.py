"""The four rungs of the end-to-end ladder, by name."""

from workloads.pipeline_small import PipelineSmall
from workloads.serve_ticks import ServeTicks
from workloads.sim_churn import SimChurn
from workloads.store_train import StoreTrain

WORKLOADS = {w.name: w for w in (PipelineSmall, SimChurn, StoreTrain, ServeTicks)}
