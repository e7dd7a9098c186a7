"""Iterated universal-extension deformations of a simple collection.

A state carries one deformation component per collection member: the
component F^(i) deforms L_i, and one step replaces each F^(i) by its
universal extension

    0 -> (+)_j L_j ^ dim Ext^1(F^(i), L_j)  ->  new F^(i)  ->  F^(i)  -> 0

along a basis of extension classes.  The parameter algebra is
R = End((+) F^(i)), built from the pairwise Hom blocks by
homs.structure_constants, the one table builder, which Hom algebras share;
its idempotents are the block identities.  Graded collections use
degree-zero Hom/Ext parts (the sheaf-level data on the projective models);
finite-length collections use full Hom/Ext spaces.  Termination means
every Ext^1(F^(i), L_j) used by the iteration vanishes.
"""

from __future__ import annotations

from .errors import InvariantError
from .findim import AlgebraError, FiniteDimAlgebra
from .homs import (InfiniteDimensionError, MatrixSubquotient, ext_space,
                   hom_space, structure_constants)
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
    probed from the Hom and Ext^1 spaces of the members.  homs[(i, j)] is
    the space Hom(L_i, L_j) that the simple check built.

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
        ok, matrix, self.homs = _simple_homs(modules)
        if not ok:
            raise DeformationError(f"not a simple collection: Hom matrix {matrix}")
        self.modules = list(modules)
        self.ring = ring
        self.graded = all(m.gen_degrees is not None for m in modules)
        self.mode = self._probe_mode()

    def _probe_mode(self) -> str:
        try:
            for Li in self.modules:
                for Lj in self.modules:
                    hom_space(Li, Lj, mode="full")
                    ext_space(Li, Lj, 1).basis_items()
            return "full"
        except (InfiniteDimensionError, ValueError):
            if self.graded:
                return "graded0"
            raise DeformationError(
                "infinite-dimensional Hom/Ext^1 on an ungraded collection")

    def __len__(self):
        return len(self.modules)


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
        self._algebra = None
        self._idents = None
        self._hom_blocks = None

    # -- Ext data --------------------------------------------------------------

    def _items(self, space: MatrixSubquotient):
        if self.collection.mode == "graded0":
            return space.basis_items(graded_degree=0)
        return space.basis_items()

    def ext1_spaces(self):
        """dict (i, j) -> (MatrixSubquotient, basis items) for
        Ext^1(F^(i), L_j) in the collection's mode."""
        if self._ext1 is None:
            out = {}
            for i, F in enumerate(self.components):
                for j, L in enumerate(self.collection.modules):
                    space = ext_space(F, L, 1)
                    items = self._items(space)
                    out[(i, j)] = (space, items)
            self._ext1 = out
        return self._ext1

    def ext1_dims(self):
        return {(i, j): len(items) for (i, j), (_s, items) in self.ext1_spaces().items()}

    def is_terminated(self) -> bool:
        return all(len(items) == 0 for _s, items in self.ext1_spaces().values())

    # -- parameter algebra -------------------------------------------------------

    def hom_blocks(self):
        """blocks[(i, j)] = Hom(F^(j), F^(i)) in the collection's mode; a
        block between two undeformed members is the collection's own space
        when the simple check landed on that mode."""
        if self._hom_blocks is None:
            coll = self.collection
            blocks = {}
            for i, Fi in enumerate(self.components):
                for j, Fj in enumerate(self.components):
                    known = coll.homs[(j, i)]
                    if (Fi is coll.modules[i] and Fj is coll.modules[j]
                            and known.mode == coll.mode):
                        blocks[(i, j)] = known
                    else:
                        blocks[(i, j)] = hom_space(Fj, Fi, mode=coll.mode)
            self._hom_blocks = blocks
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

    def filtration_length(self) -> int:
        return sum(len(f) for f in self.filtrations)


def initial_state(collection: SimpleCollection) -> DeformationState:
    comps = list(collection.modules)
    filts = [[(0, i)] for i in range(len(collection))]
    return DeformationState(collection, 0, comps, filts)


def deform_step(state: DeformationState) -> DeformationState:
    """One universal-extension step; returns the new state."""
    coll = state.collection
    ring = coll.ring
    new_components = []
    new_filtrations = []
    ext = state.ext1_spaces()
    for i, F in enumerate(state.components):
        additions = []  # (j, cocycle matrix, class degree)
        for j, L in enumerate(coll.modules):
            space, items = ext[(i, j)]
            for it in items:
                delta = None
                if coll.graded:
                    idx, mon = it
                    delta = space.gen_degrees()[idx] + ring.ambient.weighted_deg(mon)
                additions.append((j, space.item_matrix(it), delta))
        if not additions:
            new_components.append(F)
            new_filtrations.append(list(state.filtrations[i]))
            continue
        gE = F.ngens + sum(coll.modules[j].ngens for j, _c, _d in additions)
        cols = []
        for l, relcol in enumerate(F.relations):
            col = [ring.normal_form(p) for p in relcol]
            for j, cocycle, _d in additions:
                col += [ring.normal_form(-p) for p in cocycle[l]]
            cols.append(col)
        offset = F.ngens
        for j, _c, _d in additions:
            L = coll.modules[j]
            for relcol in L.relations:
                col = [ring.zero()] * gE
                for t, p in enumerate(relcol):
                    col[offset + t] = p
                cols.append(col)
            offset += L.ngens
        degrees = None
        if coll.graded:
            # a class of internal degree d twists its added copy by -d
            degrees = tuple(F.gen_degrees)
            for j, _c, delta in additions:
                degrees += tuple(d - delta for d in coll.modules[j].gen_degrees)
        E = FPModule(ring, gE, cols, degrees)
        if degrees is not None and not E.is_graded():
            raise DeformationError("universal extension left the graded world")
        new_components.append(E)
        new_filtrations.append(list(state.filtrations[i])
                               + [(state.step + 1, j) for j, _c, _d in additions])
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
    and R modulo its radical is k^r.  Returns (ok, detail dict).  Raises
    AlgebraError when the powers of the trace-form radical stop shrinking,
    as they do where the trace form vanishes (over F2).
    """
    alg = state.algebra()
    idem = state.block_idempotents()
    r = len(state.collection)
    F = alg.field
    detail = {}
    ok = True
    # idempotent identities
    one = alg.zero_vec()
    for e in idem:
        one = alg.add(one, e)
    if not alg.eq(one, alg.unit):
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
    counts = [0] * r
    for filt in state.filtrations:
        for _step, j in filt:
            counts[j] += 1
    mults = []
    for e in idem:
        basis = [[F.one() if s == t else F.zero() for t in range(alg.dim)]
                 for s in range(alg.dim)]
        span = [alg.mul(e, b) for b in basis]
        mults.append(alg.subspace_dim(span))
    detail["multiplicities"] = mults
    detail["filtration_counts"] = counts
    if mults != counts:
        ok = False
    if sum(mults) != alg.dim:
        ok = False
        detail["dim_mismatch"] = (sum(mults), alg.dim)
    # radical layers vs per-step factor counts
    rad = alg.radical()
    if alg.dim - len(rad) != r:
        ok = False
        detail["semisimple_rank"] = alg.dim - len(rad)
    layer_counts = {}
    for filt in state.filtrations:
        for step, _j in filt:
            layer_counts[step] = layer_counts.get(step, 0) + 1
    layers = [alg.dim - len(rad)]
    power = rad
    for _ in range(alg.dim if rad else 0):
        nxt = alg.multiply_subspaces(power, rad)
        d_now = alg.subspace_dim(power)
        d_next = alg.subspace_dim(nxt)
        if d_next == d_now:
            # a nilpotent ideal shrinks at every power; the trace form can
            # vanish on all of A in small characteristic
            raise AlgebraError(f"radical powers stop shrinking at dimension "
                               f"{d_now} over {F.name} (dim A = {alg.dim}): "
                               "the trace-form radical is not nilpotent")
        layers.append(d_now - d_next)
        if d_next == 0:
            break
        power = nxt
    # layers[s] = dim rad^s/rad^{s+1}; compare against factors added at step s
    expect = [layer_counts.get(s, 0) for s in range(len(layers))]
    got = [l for l in layers if l != 0]
    want = [e for e in expect if e != 0]
    detail["radical_layers"] = layers
    detail["step_factor_counts"] = expect
    if got != want:
        ok = False
    return ok, detail
