"""Optimization-driven sharpness and counterexample search over the catalog.

Hill climbing over random moves: eigenvalue parts are jittered inside their
declared bands (endpoints re-pinned), and bases and unitaries drift along
random unitary steps. A step moves a unitary's own eigenvalues, so a move can
break a hypothesis: it is kept only when its hypotheses hold and it improves
the objective, and every kept instance satisfies the entry's hypotheses. The
objective is computed first, and the hypotheses are checked only on the moves
that improve it. Restarts draw fresh instances; the best restart is chosen
deterministically and evaluated once, at the end.
"""

from __future__ import annotations

from dataclasses import dataclass

from commlab.core import InputError, overflow_is_hypothesis_error
from commlab.catalog import (
    DEFAULT_TOL,
    CatalogEntry,
    InequalityReport,
    evaluate,
    get_entry,
    validate_hypotheses,
)
from commlab.instances import (
    BlockRow,
    Instance,
    derive_seed,
    draw_moves,
    instance_to_json,
    make_instance,
    perturb,
)

__all__ = ["perturb", "SearchState", "maximize_ratio", "search_state_to_json"]

_STAGNATION_LIMIT = 50
_STEP_FLOOR = 1e-6
_RATIO_DENOM_FLOOR = 1e-9
_MIN_GAIN = 1e-12
# the most bytes all stacked arrays of one block of moves may take at once
_BLOCK_BYTES = 1 << 22
# the most n x n complex arrays one move of any recipe stacks at once: its
# noise, moved factors and fields, and their temporaries (17.4 for cartesian-psd with X and Y)
_MOVE_ARRAYS = 18


def _block_cap(dim: int) -> int:
    """The most moves one block draws at ``dim``: at least one, and no more
    than keep all of a block's stacked arrays within ``_BLOCK_BYTES``."""
    return max(1, _BLOCK_BYTES // (_MOVE_ARRAYS * 16 * dim * dim))


def _objective(entry: CatalogEntry, lhs: float, rhs: float) -> tuple[str, float]:
    """Scalar to maximize: closeness to (or excess over) the bound.

    Ratio of the bounded side to the bounding side when the denominator is
    healthy; the raw signed violation otherwise (and for equality claims).
    """
    if entry.direction == "ge" and lhs >= _RATIO_DENOM_FLOOR:
        return "ratio", rhs / lhs
    if entry.direction == "le" and rhs >= _RATIO_DENOM_FLOOR:
        return "ratio", lhs / rhs
    return "margin", 0.0 - entry.margin(lhs, rhs)  # 0.0 - m, not -m, keeps a zero unsigned


def _cannot_gain(entry: CatalogEntry, cand: BlockRow, kind: str, floor: float) -> bool:
    """Whether the entry's bracket shows the candidate's objective to be of
    ``kind`` and at most ``floor``, so that the keep rule rejects it: for a
    fixed rhs the objective is monotone ("le"; "ge", whose kind changes at one
    lhs) or convex ("eq") in lhs, so its values at the bracket's ends bound it."""
    if entry.bracket is None:
        return False
    lo, hi, rhs = entry.bracket(cand)
    ends = (_objective(entry, lo, rhs), _objective(entry, hi, rhs))
    return all(k == kind for k, _ in ends) and max(v for _, v in ends) <= floor


@dataclass(frozen=True)
class SearchState:
    """Best instance found for one entry, with enough context to replay."""

    entry: str
    dim: int
    iterations: int
    restarts: int
    master_seed: int
    objective_kind: str
    best_objective: float
    best_instance: Instance
    best_report: InequalityReport
    trace: tuple[tuple[int, float], ...]
    # work done over all restarts; not part of the artifact
    candidates: int  # perturbed proposals
    screened: int  # proposals the entry's bracket rejected without the formula
    accepted: int  # proposals kept
    validated: int  # proposals whose hypotheses were checked: those that improve


def maximize_ratio(
    entry: CatalogEntry | str,
    dim: int,
    iterations: int,
    restarts: int,
    master_seed: int = 0,
    recipe: str | None = None,
    tol: float = DEFAULT_TOL,
) -> SearchState:
    """Hill-climb the entry's tightness objective over hypothesis-satisfying
    instances.

    Each restart evaluates a fresh instance, then proposes ``iterations``
    perturbed candidates, halving the step after 50 non-improving proposals
    (floor 1e-6). A candidate is kept when its objective beats the current
    one by more than rounding noise, ``1e-12 * max(1, |objective|)``, and its
    hypotheses hold; they are checked only on such candidates. An entry with
    a ``bracket`` skips the formula on a candidate whose bracket shows it
    cannot gain.
    Moves are drawn a block at a time, which ends where the stagnation count
    could reach 50 and halve the step, and applied as stacked arrays: each
    candidate is scored from its row of them, and only one that improves
    becomes an ``Instance``, whose hypotheses are then checked. A move's noise
    does not depend on the instance, so after a keep the rest of the block is
    applied to the kept instance.
    The best restart is an applicable one, whose start satisfies the
    hypotheses or which kept a move, ahead of any other, then the one with
    the highest objective; ties break by fingerprint order. Its instance is
    evaluated once more for ``best_report``. Deterministic in all arguments.
    """
    if isinstance(entry, str):
        entry = get_entry(entry)
    if iterations < 1:
        raise InputError("iterations must be >= 1")
    if restarts < 1:
        raise InputError("restarts must be >= 1")

    best_global: tuple[tuple, float, Instance, str] | None = None
    best_trace: tuple[tuple[int, float], ...] = ()
    screened = accepted = validated = 0
    with overflow_is_hypothesis_error():
        for restart in range(restarts):
            inst = make_instance(entry.recipe_for(recipe, dim), derive_seed(master_seed, restart))
            report = evaluate(entry, inst, tol=tol)
            kind, obj = _objective(entry, report.lhs, report.rhs)
            applicable = not report.hypothesis_violations  # and true once a move is kept
            step = 0.2
            stagnation = 0
            trace = [(0, obj)]
            it = 1  # the next move's iteration
            while it <= iterations:
                count = min(iterations + 1 - it, _STAGNATION_LIMIT - stagnation, _block_cap(dim))
                seeds = [derive_seed(master_seed, restart, i) for i in range(it, it + count)]
                moves = draw_moves(inst, step, seeds)
                block = moves.apply(inst, 0)
                for k in range(count):
                    row = block.row(k)
                    floor = obj + _MIN_GAIN * max(1.0, abs(obj))
                    if _cannot_gain(entry, row, kind, floor):
                        screened += 1
                        accept = False
                    else:
                        lhs, rhs, _ = entry.formula(row)
                        cand_kind, cand_obj = _objective(entry, lhs, rhs)
                        accept = cand_kind == kind and cand_obj > floor
                    if accept:
                        validated += 1
                        cand = block.instance(k)
                        # a unitary step can break a hypothesis; stay put if it does
                        accept = not validate_hypotheses(entry, cand)
                    if accept:
                        inst, obj, applicable = cand, cand_obj, True
                        block = moves.apply(inst, k + 1)  # the rest of the block moves the kept instance
                        accepted += 1
                        stagnation = 0
                    else:
                        stagnation += 1
                    if it % 50 == 0:
                        trace.append((it, obj))
                    it += 1
                if stagnation >= _STAGNATION_LIMIT:
                    step = max(step / 2.0, _STEP_FLOOR)
                    stagnation = 0
            order = (not applicable, -obj, inst.fingerprint().sort_key())  # the least is the best
            if best_global is None or order < best_global[0]:
                best_global = (order, obj, inst, kind)
                best_trace = tuple(trace)

    assert best_global is not None
    _, obj, inst, kind = best_global
    return SearchState(
        entry=entry.id,
        dim=dim,
        iterations=iterations,
        restarts=restarts,
        master_seed=master_seed,
        objective_kind=kind,
        best_objective=obj,
        best_instance=inst,
        best_report=evaluate(entry, inst, tol=tol),
        trace=best_trace,
        candidates=restarts * iterations,
        screened=screened,
        accepted=accepted,
        validated=validated,
    )


def search_state_to_json(state: SearchState) -> dict:
    return {
        "entry": state.entry,
        "dim": state.dim,
        "iterations": state.iterations,
        "restarts": state.restarts,
        "master_seed": state.master_seed,
        "objective_kind": state.objective_kind,
        "best_objective": state.best_objective,
        "best_fingerprint": state.best_instance.fingerprint().to_json(),
        "best_report": state.best_report.to_json(),
        "best_instance": instance_to_json(state.best_instance),
        "trace": [list(p) for p in state.trace],
    }
