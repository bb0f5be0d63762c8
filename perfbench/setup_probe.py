"""Time one set-up in a fresh interpreter and print the seconds it took.

usage: setup_probe.py SRC_DIR COMMAND=CONFIG_PATH ...

Set-up is the import of cryf, the parsing of every config of the workload,
and the build of each geometry and initial state an operation starts from
(every grid of a convergence study).  Interpreter start-up is not included.
"""

import time

T0 = time.perf_counter()

import sys  # noqa: E402


def main(argv: list[str]) -> None:
    sys.path.insert(0, argv[0])
    import cryf

    for item in argv[1:]:
        command, path = item.split("=", 1)
        cfg = cryf.load_config(path)
        ini = cfg.initial
        if command == "convergence-study":
            specs = [cryf.GridSpec(n, n, n) for n in cfg.analysis.grids]
        else:
            specs = [cfg.geometry]
        for spec in specs:
            cryf.make_initial_state(
                cryf.build_nilmanifold(spec), ini.preset, c=ini.c, epsilon=ini.epsilon,
                seed=ini.seed, amplitude=ini.amplitude, smoothing_passes=ini.smoothing_passes)
    print(repr(time.perf_counter() - T0))


if __name__ == "__main__":
    main(sys.argv[1:])
