"""Continual test-time learning on a toy dual-encoder classifier.

Supervised sessions train a sparse, gradient-scored subset of parameters
while a teacher copy trails by a per-coordinate dual-momentum blend; between
sessions the student adapts on unlabeled streams with max-logit pseudo-label
routing between teacher and student.
"""

__version__ = "0.1.0"
