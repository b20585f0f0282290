"""Orbit-size laws for the pair bijections on connected affine quandles."""

import math

import quandles as q
from conftest import f_orbit_length_by_power_sum, f_orbit_length_by_recursion, induced_g_action
from quandles.cocycles import PairMaps, full_partition, normalized_cocycles


def alternating_sum(group, alpha, z, count, start=0):
    """sum_{j=start}^{count-1} (-1)^j alpha^j(z)."""
    total = group.zero
    term = alpha.pow(start)(z) if start else z
    for j in range(start, count):
        if j > start:
            term = alpha(term)
        total = group.add(total, group.neg(term) if j % 2 else term)
    return total


def test_f_fixed_points_and_no_two_orbits(affine_corpus):
    for name, quandle in affine_corpus:
        n = quandle.size
        maps = PairMaps(quandle, 0)
        for x in range(n):
            for y in range(n):
                length = q.f_orbit_length(quandle, 0, x, y)
                assert (length == 1) == (y == quandle.op(x, 0)), name
                assert length != 2, name
                assert length <= n, name


def test_f_orbit_length_closed_forms(affine_corpus):
    # the pairs of acceptance criterion 7: every (x, y) of the corpus at u = 0
    for name, quandle in affine_corpus:
        n = quandle.size
        for x in range(n):
            for y in range(n):
                length = q.f_orbit_length(quandle, 0, x, y)
                assert f_orbit_length_by_recursion(quandle, 0, x, y) == length, name
                assert f_orbit_length_by_power_sum(quandle, x, y) == length, name


def test_g_orbit_lcm_law(affine_corpus):
    for name, quandle in affine_corpus:
        l0 = quandle.left_section[0]
        part = full_partition(quandle, 0, "g")
        for block in part.blocks:
            x, y = block[0]
            expected = math.lcm(len(l0.orbit_of(x)), len(l0.orbit_of(y)))
            assert len(block) == expected, name
            assert (len(block) == 1) == ((x, y) == (0, 0)), name


def test_h_orbit_is_additive_order(affine_corpus):
    for name, quandle in affine_corpus:
        group = quandle.group
        elems = group.elements()
        maps = PairMaps(quandle, 0)
        for x in range(quandle.size):
            for y in range(quandle.size):
                length = 1
                cur = maps.h((x, y))
                while cur != (x, y):
                    length += 1
                    cur = maps.h(cur)
                assert length == group.order_of(elems[y]), name
                assert (length == 1) == (y == 0), name


def test_f_orbit_alternating_power_identity(affine_corpus):
    # with N = |O_f(x, y)| and z = x - y/0: (-1)^N alpha^N(z) = z
    for name, quandle in affine_corpus:
        group, alpha = quandle.group, quandle.alpha
        elems = group.elements()
        for x in range(quandle.size):
            for y in range(quandle.size):
                length = q.f_orbit_length(quandle, 0, x, y)
                z = group.sub(elems[x], elems[quandle.right_divide(y, 0)])
                image = alpha.pow(length)(z)
                if length % 2:
                    image = group.neg(image)
                assert image == z, name


def test_f_orbit_even_translation_cycle_dichotomy(affine_corpus):
    # when l = |O_{L_0}(x - y/0)| is even, |O_f| = k*l for even |O_f| and
    # k'*l/2 for odd |O_f|, where k and k' are the additive orders of the
    # alternating sums over one period and a half period
    for name, quandle in affine_corpus:
        group, alpha = quandle.group, quandle.alpha
        elems = group.elems if hasattr(group, "elems") else group.elements()
        l0 = quandle.left_section[0]
        for x in range(quandle.size):
            for y in range(quandle.size):
                z_idx = None
                z = group.sub(elems[x], elems[quandle.right_divide(y, 0)])
                ell = len(l0.orbit_of(group.index_of(z)))
                if ell % 2:
                    continue
                length = q.f_orbit_length(quandle, 0, x, y)
                if length % 2 == 0:
                    k = group.order_of(alternating_sum(group, alpha, z, ell))
                    assert length == k * ell, name
                else:
                    k2 = group.order_of(alternating_sum(group, alpha, z, ell // 2))
                    assert length == k2 * ell // 2, name


def test_doubly_transitive_f_orbits_uniform(doubly_transitive_corpus):
    # odd-prime values hold under F <= |X| - 1, which needs 1 + alpha
    # bijective and so fails exactly at |X| = 3 (where alpha = -1 and the
    # whole three-pair fiber over a nonzero point is one f-orbit: F = 3)
    for name, quandle in doubly_transitive_corpus:
        n = quandle.size
        lengths = {
            q.f_orbit_length(quandle, 0, x, y)
            for x in range(n)
            for y in range(n)
            if y != quandle.op(x, 0)
        }
        assert len(lengths) == 1, name
        (f_length,) = lengths
        assert f_length > 1, name
        prime = quandle.group.moduli[0]
        if prime == 2:
            assert f_length == n - 1, name
        elif n == 3:
            assert f_length == 3, name
        else:
            assert f_length in (n - 1, (n - 1) // 2), name
            if f_length % 2 == 0:
                assert f_length == n - 1, name
            else:
                assert f_length == (n - 1) // 2, name


def test_alpha_power_fixed_iff_geometric_sum_zero(affine_corpus):
    for name, quandle in affine_corpus:
        group, alpha = quandle.group, quandle.alpha
        for x in group.elements():
            for n in range(1, group.order + 1):
                fixed = alpha.pow(n)(x) == x
                total = group.zero
                term = x
                for k in range(n):
                    if k:
                        term = alpha(term)
                    total = group.add(total, term)
                assert fixed == (total == group.zero), name


def test_product_fibers(affine_corpus):
    for name, quandle in affine_corpus:
        n = quandle.size
        maps = PairMaps(quandle, 0)
        fibers = {}
        for x in range(n):
            for y in range(n):
                fibers.setdefault(quandle.op(x, y), set()).add((x, y))
        for target, fiber in fibers.items():
            assert len(fiber) == n, name
            for pair in fiber:
                assert maps.f(pair) in fiber, name


def test_commutation_relations(small_affine_corpus):
    for name, quandle in small_affine_corpus:
        n = quandle.size
        maps = PairMaps(quandle, 0)
        for x in range(n):
            for y in range(n):
                pair = (x, y)
                assert maps.f(maps.g(pair)) == maps.g(maps.f(pair)), name
                assert maps.h(maps.g(pair)) == maps.g(maps.h(pair)), name
                commute = maps.f(maps.h(pair)) == maps.h(maps.f(pair))
                assert commute == (pair == (0, 0)), name


def test_labeled_g_families(affine_corpus):
    for name, quandle in affine_corpus:
        n = quandle.size
        part = full_partition(quandle, 0, "g")
        maps = PairMaps(quandle, 0)
        assert len(part.blocks[part.uu_block]) == 1
        # the f-family consists exactly of the g-orbits of nontrivial f-fixed pairs
        fixed_pairs = {
            (x, quandle.op(x, 0)) for x in range(n) if x != 0
        }
        assert part.f_family == {part.index[x * n + y] for x, y in fixed_pairs}, name
        # the u-family covers the fiber over u, apart from (u, u)
        fiber_pairs = {
            (x, y) for x in range(n) for y in range(n) if quandle.op(x, y) == 0
        } - {(0, 0)}
        covered = {p for b in part.u_family for p in part.blocks[b]}
        assert covered == fiber_pairs, name
        # h moves both families entirely off themselves
        for family in (part.f_family, part.u_family):
            for b in family:
                hx, hy = maps.h(part.blocks[b][0])
                image_block = part.index[hx * n + hy]
                assert image_block not in family, name
        # f preserves both families; each f-fixed g-orbit stays pointwise fixed
        _, f_action = induced_g_action(quandle, 0, "f")
        assert {f_action[b] for b in part.f_family} == part.f_family, name
        assert {f_action[b] for b in part.u_family} == part.u_family, name
        for b in part.f_family:
            assert f_action[b] == b, name


def test_induced_action_well_defined(small_affine_corpus):
    for name, quandle in small_affine_corpus:
        for which in ("f", "h"):
            part, action = induced_g_action(quandle, 0, which)
            assert sorted(set(action)) == sorted(set(action)), name


def test_semiregular_orbit_lengths_descend(affine_corpus):
    # in semiregular quandles the induced f- and h-orbit lengths on g-orbits
    # equal the plain orbit lengths; for f this holds away from the fiber
    # over the base point (on that fiber the order-4 quandle has a g-orbit
    # fixed by f whose pairs lie on f-orbits of length 3)
    for name, quandle in affine_corpus:
        if quandle.semiregular_length() is None:
            continue
        part = full_partition(quandle, 0, "g")
        maps = PairMaps(quandle, 0)
        for which in ("f", "h"):
            _, action = induced_g_action(quandle, 0, which)
            fn = maps.get(which)
            for b, block in enumerate(part.blocks):
                pair = block[0]
                if which == "f" and quandle.op(*pair) == 0:
                    continue
                induced = 1
                cur = action[b]
                while cur != b:
                    induced += 1
                    cur = action[cur]
                plain = 1
                cur_pair = fn(pair)
                while cur_pair != pair:
                    plain += 1
                    cur_pair = fn(cur_pair)
                assert induced == plain, name


def test_f_orbit_collapse_on_base_fiber_counterexample(q4):
    # the concrete boundary case for the test above, kept as a regression
    # anchor: on the order-4 quandle the g-orbit of the base-point fiber is
    # f-invariant as a block while its pairs sit on f-orbits of length 3
    part = full_partition(q4, 0, "g")
    _, action = induced_g_action(q4, 0, "f")
    (fiber_block,) = part.u_family
    assert action[fiber_block] == fiber_block
    pair = part.blocks[fiber_block][0]
    assert q.f_orbit_length(q4, 0, *pair) == 3


def test_doubly_transitive_singleton_families(doubly_transitive_corpus):
    for name, quandle in doubly_transitive_corpus:
        part = full_partition(quandle, 0, "g")
        assert len(part.f_family) == 1, name
        assert len(part.u_family) == 1, name
        if quandle.size > 3:
            assert part.f_family.isdisjoint(part.u_family), name


def test_unit_products_generate_cyclic_affine(affine_corpus):
    for name, quandle in affine_corpus:
        group = quandle.group
        if group.rank != 1:
            continue
        m = group.moduli[0]
        units = [u for u in range(m) if math.gcd(u, m) == 1]
        for x in range(m):
            assert any(
                quandle.op(u, v) == x for u in units for v in units
            ), name


def test_zero_normalized_is_unit_normalized_on_cyclic(affine_corpus):
    z2 = q.CoeffGroup.abelian((2,))
    for name, quandle in affine_corpus:
        group = quandle.group
        if group.rank != 1 or group.order > 9:
            continue
        m = group.order
        units = [u for u in range(m) if math.gcd(u, m) == 1]
        for beta in normalized_cocycles(quandle, z2, 0):
            for u in units:
                assert beta.is_normalized(u), name
