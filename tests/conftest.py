import pytest

from properconn import EdgeColoring, build_counterexample, proper_path_exists


@pytest.fixture(scope="session")
def mini_pair():
    return build_counterexample("mini", 1)


@pytest.fixture(scope="session")
def k33_pair():
    return build_counterexample("k33", 1)


@pytest.fixture(scope="session")
def mini(mini_pair):
    return mini_pair[0]


@pytest.fixture(scope="session")
def k33(k33_pair):
    return k33_pair[0]


@pytest.fixture(scope="session")
def end_profiles():
    """``profiles(g, c, u, v)``: the (color at u, color at v) pairs of the
    proper u-v paths, by one single-path query per color pair. Without the
    ends' edges of other colors, a u-v path must leave u by color a and enter
    v by color b, so a proper path there is a proper path of profile (a, b).
    """

    def profiles(g, c, u, v):
        out = set()
        for a in {c.color(u, w) for w in g.adj[u]}:
            for b in {c.color(v, w) for w in g.adj[v]}:
                h = g.without_edges(
                    e
                    for e in g.edges
                    if (u in e and c.color(*e) != a) or (v in e and c.color(*e) != b)
                )
                hc = EdgeColoring(c.k, {e: c.color(*e) for e in h.edges})
                if proper_path_exists(h, hc, u, v) is not None:
                    out.add((a, b))
        return out

    return profiles
