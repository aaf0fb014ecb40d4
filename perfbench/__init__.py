"""End-to-end and per-layer benchmark for the rumorsim CLI; see README.md."""
