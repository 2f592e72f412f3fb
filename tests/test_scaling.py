"""Model construction and network indexing cost linear in model size.

Both checks count deterministic work (Python calls under cProfile, or
name comparisons), never wall-clock time, so they hold on any host.
"""

import cProfile
import pstats

import pytest

from repro.baselines.naive_de import TdfChain
from repro.core import ElaborationError, Module, SimTime
from repro.eln import Capacitor, Network, Resistor, Vsource


def _build_calls(blocks: int) -> int:
    """Python calls made building a flat ``blocks``-block TDF chain."""
    profile = cProfile.Profile()
    profile.runcall(TdfChain, blocks, SimTime(1, "us"), lambda t: 0.0,
                    lambda value: value)
    return pstats.Stats(profile).total_calls


def test_building_a_flat_chain_is_linear_in_its_blocks():
    """Adding a child checks its name against a set, not against every
    sibling: calls per block at 1,024 blocks stay within 1.2x of those
    at 128 (545,314 calls at 1,024 blocks when every sibling was
    compared)."""
    _build_calls(8)  # first-use imports and caches
    small, large = _build_calls(128), _build_calls(1024)
    assert large / 1024 <= 1.2 * small / 128


def test_duplicate_child_names_are_still_refused():
    top = Module("top")
    Module("child", parent=top)
    with pytest.raises(ElaborationError, match="already has a child"):
        Module("child", parent=top)
    assert [child.name for child in top.children] == ["child"]


class CountedName(str):
    """A node name that counts the equality tests made on it."""

    comparisons = 0

    def __eq__(self, other):
        CountedName.comparisons += 1
        return str.__eq__(self, other)

    __hash__ = str.__hash__


def _node_name_comparisons(nodes: int) -> int:
    """Name comparisons ``node_names()`` makes on an RC ladder of
    ``nodes`` nodes, each node named by a fresh string at every use."""
    net = Network("ladder")
    net.add(Vsource("Vin", "n1", "0"))
    for k in range(1, nodes):
        net.add(Resistor(f"R{k}", f"n{k}", f"n{k + 1}", 1e3))
        net.add(Capacitor(f"C{k}", f"n{k + 1}", "0", 1e-9))
    for component in net.components:
        component.nodes = [CountedName(node) for node in component.nodes]
    CountedName.comparisons = 0
    names = net.node_names()
    comparisons = CountedName.comparisons
    assert names == [f"n{k}" for k in range(1, nodes + 1)]
    return comparisons


def test_node_names_compare_each_reference_once():
    """Node names are collected in a dict: each repeated reference costs
    one comparison (a ladder node is named three times), where a list
    compared it with every name seen before it (6,290,431 comparisons
    at 2,048 nodes)."""
    small, large = (_node_name_comparisons(n) for n in (128, 2048))
    assert large / 2048 <= 1.2 * small / 128
    assert large <= 2 * 2048
