"""torusconj: conjugacy of free-group automorphisms via mapping tori.

Subpackages and modules follow the pipeline's stages: free-group algebra,
Whitehead orbit decisions, monodromy parsing, graphs of groups, the integer
linear endgame, congruence certificates, and the orchestrating pipeline.
"""

__version__ = "0.1.0"
