"""End-to-end wall-clock benchmark of the simulator with an outside-in
per-layer trace (warm, cold and 2x-overload serving); see README.md."""
