"""Legacy shim so `pip install -e .` works without the `wheel` package."""
from setuptools import setup

setup(python_requires=">=3.11")
