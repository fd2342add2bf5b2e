"""`python -m opturan`: the same command line as the `opturan` script."""

from opturan.cli import main

if __name__ == "__main__":
    main()
