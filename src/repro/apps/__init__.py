"""Application layer: traffic models, proxy adaptation, load partitioning.

- :mod:`repro.apps.traffic` — the workloads of the paper's evaluation
  (high-quality MP3 streaming) plus Poisson, on/off web browsing and a
  GOP-structured video model;
- :mod:`repro.apps.proxy` — proxy-based control: *"dropping video content
  and delivering only audio in adverse conditions"*;
- :mod:`repro.apps.partitioning` — load partitioning: *"executes portions
  of mobile's software on more than one device depending on energy and
  performance needs"*.
"""

from repro._namespace import lazy_namespace

__getattr__, __dir__, __all__ = lazy_namespace(
    __name__,
    {
        "traffic": (
            "Mp3Stream",
            "OnOffTraffic",
            "PoissonTraffic",
            "TraceTraffic",
            "VideoStream",
        ),
        "proxy": ("MediaProxy",),
        "partitioning": ("PipelinePartitioner", "Stage"),
    },
)
