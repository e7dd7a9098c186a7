"""Iterated universal-extension deformations of a simple collection.

A state carries one deformation component per collection member: the
component F^(i) deforms L_i, and one step replaces each F^(i) by its
universal extension

    0 -> (+)_j L_j ^ dim Ext^1(F^(i), L_j)  ->  new F^(i)  ->  F^(i)  -> 0

along a basis of extension classes: homs.yoneda_extension, the one
extension builder, along the stacked classes.  The new F^(i) is then
FPModule.minimal_presentation of that extension, which keeps F^(i)'s
generators and drops each added one that a constant relation entry makes
redundant: along the node tower the n-th component is the cyclic
B/(x^(n+1), y^(n+1)), not a module on 2n+1 generators, while the cone
pair's components keep their presentations.  The parameter algebra is
R = End((+) F^(i)), built from the pairwise Hom blocks by
homs.structure_constants, the one table builder, which Hom algebras share;
its idempotents are the block identities.  Graded collections use
degree-zero Hom/Ext parts (the sheaf-level data on the projective models);
finite-length collections use full Hom/Ext spaces.  Termination means
every Ext^1(F^(i), L_j) used by the iteration vanishes.
"""

from __future__ import annotations

from collections import Counter
from functools import reduce

from .errors import InvariantError
from .findim import FiniteDimAlgebra
from .homs import (MorphismSpace, ext_space, hom_space, structure_constants,
                   yoneda_extension)
from .modules import FPModule


class DeformationError(ValueError):
    pass


def simple_check(modules):
    """Hom dimension matrix of the collection; True iff it is the identity."""
    ok, matrix, _homs = _simple_homs(modules)
    return ok, matrix


def _simple_homs(modules):
    """simple_check plus the spaces it reads: homs[(i, j)] = Hom(L_i, L_j)
    in mode 'auto'."""
    r = len(modules)
    homs = {(i, j): hom_space(Li, Lj) for i, Li in enumerate(modules)
            for j, Lj in enumerate(modules)}
    matrix = [[homs[(i, j)].dim for j in range(r)] for i in range(r)]
    ok = all(matrix[i][j] == (1 if i == j else 0) for i in range(r) for j in range(r))
    return ok, matrix, homs


class SimpleCollection:
    """Modules with Hom dims delta_{ij}, plus the (sticky) computation mode,
    read from the Hom and Ext^1 spaces of the members.  hom_matrix is the
    simple check's matrix of Hom dimensions; homs[(i, j)] = Hom(L_i, L_j)
    and ext1[(i, j)] = (Ext^1(L_i, L_j), basis items), both in that mode,
    are built once and start state 0.

    mode 'full': all Hom/Ext^1 spaces are finite-dimensional and the whole
    iteration uses total spaces (finite-length local models).  mode
    'graded0': some space is infinite-dimensional and the collection is
    graded; the iteration then uses degree-zero parts throughout, matching
    the sheaf-level classes on a projective model.
    """

    def __init__(self, modules):
        if not modules:
            raise DeformationError("empty collection")
        ring = modules[0].ring
        for m in modules:
            if m.ring != ring:
                raise DeformationError("collection members live over different rings")
        ok, matrix, homs = _simple_homs(modules)
        if not ok:
            raise DeformationError(f"not a simple collection: Hom matrix {matrix}")
        self.modules = list(modules)
        self.ring = ring
        self.hom_matrix = matrix
        self.graded = all(m.gen_degrees is not None for m in modules)
        spaces = _ext1_spaces(modules, modules)
        if (all(h.mode == "full" for h in homs.values())
                and all(s.dim() is not None for s in spaces.values())):
            self.mode = "full"
        elif self.graded:
            self.mode = "graded0"
        else:
            raise DeformationError(
                "infinite-dimensional Hom/Ext^1 on an ungraded collection")
        # auto mode may have landed on 'full' for a finite block of a
        # graded0 collection: read the same subquotient in degree zero
        self.homs = {key: h if h.mode == self.mode else
                     MorphismSpace(h.M, h.N, h.msq, self.mode, h.stable)
                     for key, h in homs.items()}
        self.ext1 = _with_items(self.mode, spaces)

    def __len__(self):
        return len(self.modules)


def _ext1_spaces(sources, targets):
    return {(i, j): ext_space(F, L, 1) for i, F in enumerate(sources)
            for j, L in enumerate(targets)}


def _with_items(mode, spaces):
    """(space, basis items) per key: the degree-zero items in mode 'graded0'."""
    degree = 0 if mode == "graded0" else None
    return {key: (s, s.basis_items(graded_degree=degree))
            for key, s in spaces.items()}


class DeformationState:
    """State n of the iteration: components, filtrations, parameter algebra."""

    def __init__(self, collection: SimpleCollection, step: int, components,
                 filtrations):
        self.collection = collection
        self.step = step
        self.components = components
        # filtrations[i] = list of (step_added, collection index) per factor
        self.filtrations = filtrations
        self._ext1 = None
        self._ext1_counts = None
        self._algebra = None
        self._idents = None
        self._hom_blocks = None

    # -- Ext data --------------------------------------------------------------

    def ext1_spaces(self):
        """dict (i, j) -> (MatrixSubquotient, basis items) for
        Ext^1(F^(i), L_j) in the collection's mode."""
        if self._ext1 is None:
            self._ext1 = _with_items(self.collection.mode, _ext1_spaces(
                self.components, self.collection.modules))
        return self._ext1

    def ext1_dims(self):
        """dim Ext^1(F^(i), L_j) in the collection's mode.  Until a step
        reads the basis items, mode 'graded0' counts them from leading
        terms (graded_dim), whose null space is the cocycle build of
        Hom(F^(i), L_j) in degree zero."""
        if self._ext1 is None and self.collection.mode == "graded0":
            if self._ext1_counts is None:
                self._ext1_counts = {key: s.graded_dim(0) for key, s in
                                     _ext1_spaces(self.components,
                                                  self.collection.modules
                                                  ).items()}
            return dict(self._ext1_counts)
        return {(i, j): len(items) for (i, j), (_s, items) in self.ext1_spaces().items()}

    def is_terminated(self) -> bool:
        return not any(self.ext1_dims().values())

    # -- parameter algebra -------------------------------------------------------

    def hom_blocks(self):
        """blocks[(i, j)] = Hom(F^(j), F^(i)) in the collection's mode."""
        if self._hom_blocks is None:
            mode = self.collection.mode
            self._hom_blocks = {(i, j): hom_space(Fj, Fi, mode=mode)
                                for i, Fi in enumerate(self.components)
                                for j, Fj in enumerate(self.components)}
        return self._hom_blocks

    def algebra(self) -> FiniteDimAlgebra:
        """R = End((+) F^(i)) on the block basis of homs.structure_constants;
        its unit is the sum of the block identities."""
        if self._algebra is None:
            F = self.collection.ring.field
            layout, table, self._idents = structure_constants(
                self.hom_blocks(), len(self.collection))
            # the block identities have disjoint supports, so each entry of
            # their sum is the entry of the identity whose block holds it
            unit = [self._idents[i][t] if i == j else F.zero()
                    for t, (i, j, _k) in enumerate(layout)]
            labels = [f"e{i+1}_{k}" if i == j else f"t{i+1}{j+1}_{k}"
                      for (i, j, k) in layout]
            self._algebra = FiniteDimAlgebra(F, labels, table, unit)
        return self._algebra

    def block_idempotents(self):
        """Coefficient vectors of the block identities e_i in algebra()."""
        self.algebra()
        return self._idents

    def dim_R(self) -> int:
        return self.algebra().dim


def initial_state(collection: SimpleCollection) -> DeformationState:
    """State 0: the members, with the collection's Hom and Ext^1 spaces."""
    r = len(collection)
    state = DeformationState(collection, 0, list(collection.modules),
                             [[(0, i)] for i in range(r)])
    state._hom_blocks = {(i, j): collection.homs[(j, i)]
                         for i in range(r) for j in range(r)}
    state._ext1 = collection.ext1
    return state


def deform_step(state: DeformationState) -> DeformationState:
    """One universal-extension step; returns the new state.  A class of
    internal degree d adds a copy of L_j twisted by -d."""
    coll = state.collection
    ambient = coll.ring.ambient
    new_components = []
    new_filtrations = []
    ext = state.ext1_spaces()
    for i, F in enumerate(state.components):
        added, copies, classes = [], [], []
        for j, L in enumerate(coll.modules):
            space, items = ext[(i, j)]
            for it in items:
                copy = L
                if coll.graded:
                    idx, mon = it
                    delta = space.gen_degrees()[idx] + ambient.weighted_deg(mon)
                    copy = FPModule(coll.ring, L.ngens, L.relations,
                                    [d - delta for d in L.gen_degrees])
                added.append(j)
                copies.append(copy)
                classes.append(space.item_matrix(it))
        E = F
        if added:
            stacked = [[p for c in classes for p in c[l]]
                       for l in range(len(F.relations))]
            E = yoneda_extension(stacked, reduce(FPModule.direct_sum, copies),
                                 F).E
            if coll.graded and E.gen_degrees is None:
                raise DeformationError("universal extension left the graded world")
            E = E.minimal_presentation()
        new_components.append(E)
        new_filtrations.append(state.filtrations[i]
                               + [(state.step + 1, j) for j in added])
    return DeformationState(coll, state.step + 1, new_components, new_filtrations)


class TerminationReport:
    def __init__(self, outcome, final_step, dim_r_trajectory, states):
        self.outcome = outcome          # "terminated" | "non-terminated"
        self.final_step = final_step    # n of termination, or the bound
        self.dim_r_trajectory = dim_r_trajectory
        self.states = states

    @property
    def final_state(self):
        return self.states[-1]

    def algebra(self):
        return self.final_state.algebra()

    def __repr__(self):
        return (f"TerminationReport({self.outcome} at {self.final_step}, "
                f"dim R trajectory {self.dim_r_trajectory})")


def run(collection: SimpleCollection, max_iter: int = 8) -> TerminationReport:
    """Iterate deform_step until Ext^1(F, L_j) vanishes or the bound is hit.

    The trajectory lists dim R for states 0, 1, ... (at most max_iter
    entries); monotone growth until termination is checked."""
    if max_iter < 1:
        raise DeformationError("max_iter must be at least 1")
    state = initial_state(collection)
    states = [state]
    trajectory = [state.dim_R()]
    while len(states) < max_iter and not state.is_terminated():
        state = deform_step(state)
        states.append(state)
        trajectory.append(state.dim_R())
        if trajectory[-1] <= trajectory[-2]:
            raise InvariantError("dim R failed to grow strictly at step "
                                 f"{state.step}")
    if state.is_terminated():
        return TerminationReport("terminated", state.step, trajectory, states)
    return TerminationReport("non-terminated", max_iter, trajectory, states)


def flatness_filtration_check(state: DeformationState):
    """Flatness witness for iterated universal extensions.

    Verifies that the filtration bookkeeping matches the algebra: factor
    multiplicities equal dim e_i R, radical layers of R match the factors
    added per step, the block idempotents are orthogonal and sum to one,
    and R modulo its radical is k^r.  Returns (ok, detail dict).

    The radical layers dim rad^s/rad^(s+1) are
    FiniteDimAlgebra.radical_layers, which raises AlgebraError where the
    trace-form radical is not nilpotent (over F2).
    """
    alg = state.algebra()
    idem = state.block_idempotents()
    r = len(state.collection)
    detail = {}
    ok = True
    # idempotent identities
    if not alg.eq(reduce(alg.add, idem, alg.zero_vec()), alg.unit):
        ok = False
        detail["idempotent_sum"] = "does not equal 1"
    for a in range(r):
        for b in range(r):
            prod = alg.mul(idem[a], idem[b])
            want = idem[a] if a == b else alg.zero_vec()
            if not alg.eq(prod, want):
                ok = False
                detail["orthogonality"] = (a, b)
    # multiplicities: dim e_i R vs factor counts
    factors = [f for filt in state.filtrations for f in filt]
    counts = [sum(1 for _step, j in factors if j == i) for i in range(r)]
    mults = [alg.subspace_dim([alg.mul(e, b) for b in alg.basis]) for e in idem]
    detail["multiplicities"] = mults
    detail["filtration_counts"] = counts
    if mults != counts:
        ok = False
    if sum(mults) != alg.dim:
        ok = False
        detail["dim_mismatch"] = (sum(mults), alg.dim)
    # radical layers vs per-step factor counts
    layers = alg.radical_layers()
    if layers[0] != r:
        ok = False
        detail["semisimple_rank"] = layers[0]
    layer_counts = Counter(step for step, _j in factors)
    # layers[s] = dim rad^s/rad^{s+1}; compare against factors added at step s
    expect = [layer_counts.get(s, 0) for s in range(len(layers))]
    got = [l for l in layers if l != 0]
    want = [e for e in expect if e != 0]
    detail["radical_layers"] = layers
    detail["step_factor_counts"] = expect
    if got != want:
        ok = False
    return ok, detail
