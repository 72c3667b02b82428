"""Legacy setup shim (and the one place packaging metadata lives).

The offline evaluation environment ships setuptools without the ``wheel``
package, so PEP 517/660 editable installs cannot build an editable wheel.
This shim lets ``pip install -e . --no-build-isolation --no-use-pep517`` fall
back to the classic ``setup.py develop`` path.
"""

from setuptools import find_packages, setup

setup(
    name="ipcomp-repro",
    version="26.2.0",
    description="IPComp progressive lossy compressor (paper reproduction)",
    package_dir={"": "src"},
    packages=find_packages("src"),
    # The interpolation sweep is compiled from this source at first import.
    package_data={"repro.core": ["*.c"]},
    python_requires=">=3.10",
    install_requires=["numpy"],
)
