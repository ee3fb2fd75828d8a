"""Social-event data for cellular network management: ingest event feeds,
associate events with sites and cells by distance and bearing, correlate
Gaussian impact indicators against KPI windows, and rank the venues most
likely behind a performance degradation.
"""

__version__ = "0.1.0"
