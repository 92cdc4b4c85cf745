"""Host-time benchmark of the repro compiler, simulator, explore and serve paths (see README.md)."""
