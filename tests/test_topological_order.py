"""``Network._topological_order`` against the list-scanning Kahn order.

The order decides every layer index, and so every golden, so the
queue-and-set implementation must reproduce the reference's stable
order exactly: on every zoo network (declared and shuffled) and on
random DAGs with diamonds and layers that read one input twice.
"""

import random
from typing import Dict, List

import pytest
from hypothesis import given, settings, strategies as st

from repro.graph import GraphError, Network
from repro.graph.layer import Layer
from repro.zoo import available, build


def reference_order(layers: List[Layer]) -> List[Layer]:
    """Kahn's algorithm with a list queue and list membership scans."""
    by_name: Dict[str, Layer] = {}
    for layer in layers:
        if layer.name in by_name:
            raise GraphError(f"duplicate layer name {layer.name!r}")
        by_name[layer.name] = layer
    for layer in layers:
        for dep in layer.inputs:
            if dep not in by_name:
                raise GraphError(
                    f"layer {layer.name!r} references unknown input {dep!r}")
    remaining = {layer.name: set(layer.inputs) for layer in layers}
    ordered: List[Layer] = []
    ready = [l for l in layers if not remaining[l.name]]
    consumers: Dict[str, List[Layer]] = {l.name: [] for l in layers}
    for layer in layers:
        for dep in layer.inputs:
            consumers[dep].append(layer)
    while ready:
        layer = ready.pop(0)
        ordered.append(layer)
        for consumer in consumers[layer.name]:
            deps = remaining[consumer.name]
            deps.discard(layer.name)
            if not deps and consumer not in ready and consumer not in ordered:
                ready.append(consumer)
    if len(ordered) != len(layers):
        stuck = [l.name for l in layers if l not in ordered]
        raise GraphError(f"network contains a cycle involving {stuck}")
    return ordered


def names(layers: List[Layer]) -> List[str]:
    return [layer.name for layer in layers]


def assert_same_order(layers: List[Layer]) -> None:
    assert names(Network._topological_order(layers)) == \
        names(reference_order(layers))


@pytest.mark.parametrize("name", available())
def test_zoo_networks_declared_and_shuffled(name):
    layers = [node.layer for node in build(name, 2)]
    assert_same_order(layers)
    random.Random(name).shuffle(layers)
    assert_same_order(layers)


@st.composite
def random_dag(draw) -> List[Layer]:
    """Layer i reads 1-3 earlier layers, repeats allowed; declared in a
    random order."""
    count = draw(st.integers(1, 30))
    layers = [Layer("L0")]
    for i in range(1, count):
        inputs = draw(st.lists(st.integers(0, i - 1), min_size=1,
                               max_size=3))
        layers.append(Layer(f"L{i}", inputs=[f"L{j}" for j in inputs]))
    return draw(st.permutations(layers))


@settings(max_examples=200, deadline=None)
@given(layers=random_dag())
def test_random_dags_match_reference(layers):
    assert_same_order(list(layers))


def test_diamond_and_repeated_input():
    layers = [
        Layer("join", inputs=["left", "right", "left"]),
        Layer("right", inputs=["in"]),
        Layer("left", inputs=["in", "in"]),
        Layer("in"),
    ]
    assert names(Network._topological_order(layers)) == \
        ["in", "right", "left", "join"]
    assert_same_order(layers)


@pytest.mark.parametrize("layers, message", [
    ([Layer("in"), Layer("a", inputs=["b"]), Layer("b", inputs=["a"]),
      Layer("c", inputs=["in"])],
     "network contains a cycle involving ['a', 'b']"),
    ([Layer("in"), Layer("c", inputs=["in"]), Layer("c", inputs=["in"])],
     "duplicate layer name 'c'"),
])
def test_error_messages_unchanged(layers, message):
    with pytest.raises(GraphError) as reference:
        reference_order(layers)
    with pytest.raises(GraphError) as got:
        Network._topological_order(layers)
    assert str(got.value) == str(reference.value) == message
