"""From-scratch CNN: numpy ops (``ops``), maxout layers (``layers``), the
network and its checkpoints (``network``), Adam training (``train``)."""
