"""A model's per-layer intermediates, read off its backbone."""

from types import SimpleNamespace


def backbone(model, x) -> SimpleNamespace:
    """ξ⁽ˡ⁾ and the graphs of every layer l, and Z⁽¹⁾ … Z⁽ᴸ⁺¹⁾, for the
    windows ``x``, from one walk of ``Model._branches``: ``.xi``,
    ``.graphs`` and ``.z``, lists in layer order."""
    xi, graphs, z = [], [], []
    branches = model._branches(model._as_input(x), model._alpha_s())
    for scale, (feats, seq, state) in enumerate(branches):
        z.append(state)
        if scale:
            xi.append(feats)
            graphs.append(seq)
    return SimpleNamespace(xi=xi, graphs=graphs, z=z)
