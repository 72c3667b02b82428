"""Legacy setup shim (and the one place packaging metadata lives).

The offline evaluation environment ships setuptools without the ``wheel``
package, so PEP 517/660 editable installs cannot build an editable wheel.
This shim lets ``pip install -e . --no-build-isolation --no-use-pep517`` fall
back to the classic ``setup.py develop`` path.

Optional extras:

* ``compiled`` — pulls in numba for the ``"compiled"`` JIT kernel backend
  (``pip install -e ".[compiled]"``).  Without it the backend degrades to a
  :class:`repro.errors.ConfigurationError` naming this extra, and
  ``kernel="auto"`` falls back to the ``"fused"`` NumPy kernel.
"""

from setuptools import find_packages, setup

setup(
    name="ipcomp-repro",
    version="3.0.0",
    description="IPComp progressive lossy compressor (paper reproduction)",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=["numpy"],
    extras_require={"compiled": ["numba>=0.59"]},
)
