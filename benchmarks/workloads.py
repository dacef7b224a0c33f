"""The benchmark's workloads: fixed sequences of `cltlab` CLI invocations.

Each workload stresses a different layer and runs closed loop, one
invocation at a time.  Every workload also carries at least one draw and one
bound evaluation, so that each end-to-end metric (replicates/s, bound
evaluations/s) is nonzero everywhere; those extra invocations are small next
to the workload's main cost.  Why each workload exists is in README.md.
"""

from __future__ import annotations

from dataclasses import dataclass

# The seed whose artifact digests and exit codes are stored in reference.json.
DEFAULT_SEED = 0

# Subcommands whose replicates come from Model.statistic_values.
_DRAWING = ("simulate", "distance", "ratefit", "verify-ce")


@dataclass(frozen=True)
class Invocation:
    """One `cltlab` call; `exit_codes` are the codes any seed may give."""

    command: str
    model: str | None
    grid: tuple[int, ...]
    reps: int | None = None
    extra: tuple[str, ...] = ()
    exit_codes: tuple[int, ...] = (0,)

    def argv(self, seed: int, out: str) -> list[str]:
        args = [self.command]
        if self.model is not None:
            args += ["--model", self.model]
        args += ["--n-grid", ",".join(str(n) for n in self.grid)]
        if self.reps is not None:
            args += ["--reps", str(self.reps)]
        return args + ["--seed", str(seed), "--out", out, *self.extra]

    @property
    def replicates(self) -> int:
        """Replicates drawn through statistic_values, summed over the grid."""
        if self.command not in _DRAWING:
            return 0
        return self.reps * len(self.grid)

    @property
    def increments(self) -> int:
        """Replicates times path length, summed over the grid."""
        if self.command not in _DRAWING:
            return 0
        return self.reps * sum(self.grid)


WORKLOADS: dict[str, tuple[Invocation, ...]] = {
    # small n, many replicates: per-replicate stream setup is most of a draw
    "short-paths": (
        Invocation("distance", "rademacher_iid", (64, 256), 22_000),
        Invocation("distance", "gaussian_iid", (64, 256), 22_000),
        Invocation("distance", "ce_lowerbound", (64, 256), 22_000),
        Invocation("distance", "sequential_maps", (64, 256), 22_000),
        Invocation("bounds", "rademacher_iid", (64, 256)),
    ),
    # long paths: the AR(1) matrix-vector kernel and the per-step chain loop
    "long-paths": (
        Invocation(
            "ratefit", "linear_ar1", (2048, 4096, 8192, 16384), 5_000, exit_codes=(0, 1)
        ),
        Invocation("distance", "rho_mixing_chain", (2048, 8192), 3_000),
        Invocation("bounds", "linear_ar1", (2048, 16384)),
    ),
    # the chain's bound set under --a auto: the psi profile; few draws
    "chain-bounds": (
        Invocation("bounds", "rho_mixing_chain", (64, 128, 192), extra=("--a", "auto")),
        Invocation("distance", "rho_mixing_chain", (128, 192), 2_000),
    ),
    # one path at a time, full increment rows, binary artifacts written and hashed
    "simulate-io": (
        Invocation("simulate", "ce_lowerbound", (256, 1024), 8_000),
        Invocation("simulate", "rademacher_iid", (256, 1024), 8_000),
        Invocation("verify-ce", None, (64, 256, 1024), 10_000, extra=("--p", "3")),
        Invocation("bounds", "ce_lowerbound", (256, 1024)),
    ),
}
