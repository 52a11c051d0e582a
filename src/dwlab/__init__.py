"""Numerical laboratory for the 1D semilinear damped wave equation u_tt + u_t - u_xx = |u|^p."""
