"""Finite, checkable shadows of string topology for links.

Submodules:

* ``exactlin``  -- exact sparse linear algebra over Q
* ``lengths``   -- exact lengths p + q*sqrt(n) and their parsing
* ``jsonio``    -- strict JSON loading shared by the DGA, complex and presentation readers
* ``free_dga``  -- length-filtered free noncommutative DGAs and homology
* ``specseq``   -- spectral sequences of bounded filtered complexes
* ``chords``    -- binormal chord spectra by Gauss-Newton from a fixed seed grid
* ``cord``      -- skein-presented cord algebras and the degree-0 cross-check
* ``cli``       -- command-line front end
"""

__version__ = "0.1.0"
