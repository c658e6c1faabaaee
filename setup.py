"""Packaging for the ``repro`` package and its ``repro-count`` command.

``pip install -e .`` builds through PEP 660, which needs the ``wheel``
package; without it (for example offline), ``python setup.py develop``
installs the same package and entry point.
"""
from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    package_dir={"": "src"},
    packages=find_packages("src"),
    install_requires=["numpy"],
    entry_points={"console_scripts": ["repro-count = repro.cli:main"]},
)
