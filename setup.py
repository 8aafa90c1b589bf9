"""Legacy setuptools entry point.

The offline environments this repository targets may lack the ``wheel``
package that PEP 517 editable installs require; keeping a ``setup.py`` lets
``pip install -e . --no-use-pep517`` (or ``python setup.py develop``) work
there.  All metadata, the dependencies included, lives in
``pyproject.toml``, which setuptools 61 and later reads from here too.
"""

from setuptools import setup

setup()
