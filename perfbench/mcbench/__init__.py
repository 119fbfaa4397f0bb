"""End-to-end benchmark of McCatch fit and serve (driven by ``perfbench/run.py``).

The package never imports ``repro`` at module load: ``run.py`` first
checks that the checkout holds the program's sources and points
``sys.path`` at them, then imports the workload modules.
"""
