"""Variable-topology recurrent neural controllers and their mutation operators.

A genome is a count of hidden neurons plus a list of weighted connections over
a fixed node-id layout: inputs 0..15 (7 proximity, 8 range-and-bearing, 1
bias), outputs 16 and 17 (left and right wheel), hidden 18..17+H. Hidden ids
stay contiguous; deleting a hidden node renumbers the ids above it. Inputs can
only be connection sources; recurrent connections (any-to-any among hidden and
output nodes, self-loops included) are allowed. All nodes use tanh and are
updated synchronously, reading previous-cycle activations for non-input
sources.
"""

from dataclasses import dataclass, replace

import numpy as np

N_PROXIMITY = 7
N_RAB = 8
N_INPUTS = N_PROXIMITY + N_RAB + 1  # 16, last one is the bias
BIAS_INDEX = N_INPUTS - 1
N_OUTPUTS = 2
FIRST_OUTPUT_ID = N_INPUTS  # 16
FIRST_HIDDEN_ID = N_INPUTS + N_OUTPUTS  # 18

MAX_HIDDEN = 20
MAX_CONNECTIONS = 40
WEIGHT_BOUND = 2.0


@dataclass(frozen=True)
class Connection:
    source: int
    target: int
    weight: float


@dataclass(frozen=True)
class Genome:
    hidden: int = 0
    connections: tuple[Connection, ...] = ()

    def n_nodes(self) -> int:
        return N_INPUTS + N_OUTPUTS + self.hidden

    def validate(self) -> None:
        if not 0 <= self.hidden <= MAX_HIDDEN:
            raise ValueError(f"hidden count {self.hidden} out of range")
        if len(self.connections) > MAX_CONNECTIONS:
            raise ValueError(f"{len(self.connections)} connections exceed the cap")
        seen = set()
        for c in self.connections:
            if not 0 <= c.source < self.n_nodes():
                raise ValueError(f"bad source id {c.source}")
            if not FIRST_OUTPUT_ID <= c.target < self.n_nodes():
                raise ValueError(f"bad target id {c.target}")
            if not abs(c.weight) <= WEIGHT_BOUND:  # NaN fails every comparison
                raise ValueError(f"weight {c.weight} out of bounds")
            if (c.source, c.target) in seen:
                raise ValueError(f"duplicate connection {(c.source, c.target)}")
            seen.add((c.source, c.target))


@dataclass(frozen=True)
class MutationParams:
    node_add_rate: float = 0.10
    node_delete_rate: float = 0.10
    conn_add_rate: float = 0.15
    conn_delete_rate: float = 0.15
    conn_modify_rate: float = 0.15
    weight_rate: float = 0.05
    eta_m: float = 15.0


def _n_legal_pairs(hidden: int) -> int:
    return Genome(hidden).n_nodes() * (N_OUTPUTS + hidden)


def _pair_from_flat(index: int, hidden: int) -> tuple[int, int]:
    n_targets = N_OUTPUTS + hidden
    return index // n_targets, FIRST_OUTPUT_ID + index % n_targets


def random_genome(rng: np.random.Generator) -> Genome:
    """Sample a random topology: hidden ~ U{0..20}, connections ~ U{0..cap},
    endpoints uniform over legal pairs, weights ~ U(-2, 2)."""
    hidden = int(rng.integers(0, MAX_HIDDEN + 1))
    n_pairs = _n_legal_pairs(hidden)
    n_conn = int(rng.integers(0, min(MAX_CONNECTIONS, n_pairs) + 1))
    chosen = rng.choice(n_pairs, size=n_conn, replace=False)
    connections = tuple(
        Connection(*_pair_from_flat(int(i), hidden), float(rng.uniform(-WEIGHT_BOUND, WEIGHT_BOUND)))
        for i in chosen
    )
    return Genome(hidden, connections)


def polynomial_mutation(x: float, rng: np.random.Generator, eta: float = 15.0) -> float:
    """Bounded polynomial mutation (Deb's operator) of a weight in [-WEIGHT_BOUND, WEIGHT_BOUND]."""
    low, high = -WEIGHT_BOUND, WEIGHT_BOUND
    u = float(rng.random())
    d1 = (x - low) / (high - low)
    d2 = (high - x) / (high - low)
    power = 1.0 / (eta + 1.0)
    if u <= 0.5:
        dq = (2.0 * u + (1.0 - 2.0 * u) * (1.0 - d1) ** (eta + 1.0)) ** power - 1.0
    else:
        dq = 1.0 - (2.0 * (1.0 - u) + 2.0 * (u - 0.5) * (1.0 - d2) ** (eta + 1.0)) ** power
    return float(np.clip(x + dq * (high - low), low, high))


def _delete_hidden(genome: Genome, node_id: int) -> Genome:
    kept = []
    for c in genome.connections:
        if c.source == node_id or c.target == node_id:
            continue
        s = c.source - 1 if c.source > node_id else c.source
        t = c.target - 1 if c.target > node_id else c.target
        kept.append(Connection(s, t, c.weight))
    return Genome(genome.hidden - 1, tuple(kept))


def mutate(genome: Genome, params: MutationParams, rng: np.random.Generator) -> Genome:
    """Return a mutated copy of `genome`. The parent is left unmodified.

    Structural operators fire independently with their configured rates and
    are applied in a fixed order (node add, node delete, connection add,
    delete, endpoint modification); additions that would break a cap and
    operations on empty structures are no-ops. Each weight is then perturbed
    with probability `weight_rate` by polynomial mutation.
    """
    hidden = genome.hidden
    connections = list(genome.connections)

    if rng.random() < params.node_add_rate and hidden < MAX_HIDDEN:
        hidden += 1

    if rng.random() < params.node_delete_rate and hidden > 0:
        victim = FIRST_HIDDEN_ID + int(rng.integers(0, hidden))
        reduced = _delete_hidden(Genome(hidden, tuple(connections)), victim)
        hidden, connections = reduced.hidden, list(reduced.connections)

    if rng.random() < params.conn_add_rate and len(connections) < MAX_CONNECTIONS:
        used = {(c.source, c.target) for c in connections}
        n_pairs = _n_legal_pairs(hidden)
        if len(used) < n_pairs:
            # rejection sampling stays uniform over the free pairs; fall back
            # to enumeration when the free set is a sliver of the pair space
            pair = None
            for _ in range(64):
                candidate = _pair_from_flat(int(rng.integers(0, n_pairs)), hidden)
                if candidate not in used:
                    pair = candidate
                    break
            if pair is None:
                free = [
                    _pair_from_flat(i, hidden)
                    for i in range(n_pairs)
                    if _pair_from_flat(i, hidden) not in used
                ]
                pair = free[int(rng.integers(0, len(free)))]
            weight = float(rng.uniform(-WEIGHT_BOUND, WEIGHT_BOUND))
            connections.append(Connection(*pair, weight))

    if rng.random() < params.conn_delete_rate and connections:
        connections.pop(int(rng.integers(0, len(connections))))

    if rng.random() < params.conn_modify_rate and connections:
        idx = int(rng.integers(0, len(connections)))
        old = connections[idx]
        used = {(c.source, c.target) for c in connections}
        n_nodes = Genome(hidden).n_nodes()
        if rng.random() < 0.5:  # rewire the incoming (source) endpoint
            options = [
                s for s in range(n_nodes)
                if s != old.source and (s, old.target) not in used
            ]
            if options:
                new_source = options[int(rng.integers(0, len(options)))]
                connections[idx] = Connection(new_source, old.target, old.weight)
        else:  # rewire the outgoing (target) endpoint
            options = [
                t for t in range(FIRST_OUTPUT_ID, n_nodes)
                if t != old.target and (old.source, t) not in used
            ]
            if options:
                new_target = options[int(rng.integers(0, len(options)))]
                connections[idx] = Connection(old.source, new_target, old.weight)

    for i, c in enumerate(connections):
        if rng.random() < params.weight_rate:
            connections[i] = replace(c, weight=polynomial_mutation(c.weight, rng, params.eta_m))

    return Genome(hidden, tuple(connections))


class CompiledNetwork:
    """Dense-matrix form of genomes for fast, batched synchronous updates.

    Non-input nodes are ordered [output 0, output 1, hidden...]. A sequence
    of B genomes gives (B, K, 16) input and (B, K, K) recurrent weights,
    zero-padded to the largest K, and `step` advances (B, robots, K)
    states; the padding units stay at 0 and add exact zeros, so each
    genome's outputs do not depend on the others.
    """

    def __init__(self, genomes):
        genomes = list(genomes)
        k = N_OUTPUTS + max(g.hidden for g in genomes)
        self.n_units = k
        self.w_in = np.zeros((len(genomes), k, N_INPUTS))
        self.w_rec = np.zeros((len(genomes), k, k))
        for b, genome in enumerate(genomes):
            for c in genome.connections:
                row = c.target - FIRST_OUTPUT_ID
                if c.source < N_INPUTS:
                    self.w_in[b, row, c.source] = c.weight
                else:
                    self.w_rec[b, row, c.source - FIRST_OUTPUT_ID] = c.weight

    def initial_state(self, batch: int) -> np.ndarray:
        return np.zeros((len(self.w_in), batch, self.n_units))

    def step(self, state: np.ndarray, inputs: np.ndarray) -> np.ndarray:
        """One synchronous update; returns the new activation matrix."""
        return np.tanh(
            inputs @ np.swapaxes(self.w_in, -1, -2) + state @ np.swapaxes(self.w_rec, -1, -2)
        )

    @staticmethod
    def outputs(state: np.ndarray) -> np.ndarray:
        return state[..., :N_OUTPUTS]


def genome_to_text(genome: Genome) -> str:
    """Line-oriented serialization: hidden count header, then one
    `source target weight` line per connection with round-trip-exact weights."""
    lines = [str(genome.hidden)]
    for c in genome.connections:
        lines.append(f"{c.source} {c.target} {c.weight:.17g}")
    return "\n".join(lines) + "\n"


def genome_from_text(text: str) -> Genome:
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ValueError("empty genome text")
    hidden = int(lines[0])
    connections = []
    for line in lines[1:]:
        s, t, w = line.split()
        connections.append(Connection(int(s), int(t), float(w)))
    genome = Genome(hidden, tuple(connections))
    genome.validate()
    return genome


def save_genome(genome: Genome, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(genome_to_text(genome))


def load_genome(path) -> Genome:
    with open(path, encoding="utf-8") as fh:
        return genome_from_text(fh.read())
