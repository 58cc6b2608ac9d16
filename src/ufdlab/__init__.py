"""ufdlab: exact commutative-algebra computations at desk scale.

Modules:
  coeff           exact integer / rational / prime-field arithmetic
  poly            sparse polynomials, ring maps
  groebner        Buchberger engine, ideal quotients, saturation, oracles
  constructions   presentations (ring, relations, weight dict), builders, checks
  omega           the graded rewriting system on x, z0, z1, ...
  counterexample  the filtered-union ring over k[x,y] and its order certificates
  claims / cli    machine-readable claim runner
"""

__version__ = "0.1.0"
