"""The paper's primary contribution: the DeepFlame solver coupling
implicit FV transport with ODENet chemistry and PRNet real-fluid
properties, plus the TGV / rocket case builders."""

__all__ = []
