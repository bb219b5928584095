"""From-scratch numpy DNN stack (the PyTorch substitute).

Linear/GeLU layers with backprop and Adam training, Z-score/Box-Cox
scaling, FP16 mixed-precision emulation, the 2nd-order GeLU tabulation
of Sec. 3.3.2, the ODENet chemistry surrogate, the PRNet real-fluid
property surrogate and the optimized batched inference engine.
"""

__all__ = []
