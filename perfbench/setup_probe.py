"""Do the work every hk-lab run pays before its first check, then exit.

Usage: python3 perfbench/setup_probe.py CLI_ARG...

Runs the CLI entry point with the workload's own arguments, so the set-up is
the program's own code, and stops it as soon as the first ``form.assemble``
returns.  Both ``run`` and ``counterexample report`` import hklab, build the
space, the order field and the kernel, and then assemble the form, before
they write any output or run any check.  The benchmark times this process
from spawn to exit.  Prints the number of atoms of the assembled form.

If the CLI ever stops calling ``form.assemble``, the probe runs to the end
and prints no atom count, and the benchmark reports the set-up as failed.
"""

import sys


class SetupDone(BaseException):
    """Raised past the CLI's own exception handlers once set-up is over."""

    def __init__(self, form):
        super().__init__()
        self.form = form


def main() -> int:
    from hklab import cli, form

    assemble = form.assemble

    def assemble_then_stop(*args, **kwargs):
        raise SetupDone(assemble(*args, **kwargs))

    form.assemble = assemble_then_stop  # the CLI looks it up as form_mod.assemble
    try:
        code = cli.main(sys.argv[1:])
    except SetupDone as done:
        print(done.form.domain.size)
        return 0
    print(f"setup probe: the CLI exited with {code} without assembling a form",
          file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
