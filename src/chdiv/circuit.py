"""Straight-line circuits: one text grammar, one wire check and one
interpreter for the Boolean labeling circuits of tucker and the
arithmetic circuits of fixp.

A gate is (op, args, out).  args lists the op's rational parameters
first, then its input wires.  A subclass declares OPS, a table
op -> (number of rationals, number of wires), its IN/OUT keywords and
its WIRE type.  The text form has one statement per line, and `#`
starts a comment:

    IN w
    OP r ... a ... -> w
    OUT w

Rationals are read by core.rat, exponent cap included.

New circuits are built gate by gate with a GateBuilder.  A rewrite
is a run of its source circuit: source.run(wires, ops) with ops that
emit gates through the builder, so run maps every source wire to its
new one and no rewrite renames wires itself.
"""

import functools

from .core import rat


class Circuit:
    OPS = {}
    IN, OUT = "IN", "OUT"
    WIRE = str

    def __init__(self, inputs, gates, outputs):
        self.inputs = list(inputs)
        self.outputs = list(outputs)
        self.gates = []
        defined = set(self.inputs)
        if len(defined) != len(self.inputs):
            raise ValueError("duplicate input wire")
        for op, args, out in gates:
            if op not in self.OPS:
                raise ValueError("unknown op %r" % (op,))
            n_rat, n_wire = self.OPS[op]
            if len(args) != n_rat + n_wire:
                raise ValueError("%s expects %d args" % (op, n_rat + n_wire))
            args = tuple(map(rat, args[:n_rat])) + tuple(args[n_rat:])
            for w in args[n_rat:]:
                if w not in defined:
                    raise ValueError("wire %r used before definition" % (w,))
            if out in defined:
                raise ValueError("wire %r defined twice" % (out,))
            defined.add(out)
            self.gates.append((op, args, out))
        for w in self.outputs:
            if w not in defined:
                raise ValueError("undefined output wire %r" % (w,))

    @classmethod
    def _wire(cls, token):
        if token == "->":
            raise ValueError("'->' is not a wire")
        return cls.WIRE(token)

    @classmethod
    def parse(cls, text):
        inputs, gates, outputs = [], [], []
        for lineno, raw in enumerate(text.splitlines(), 1):
            p = raw.split("#")[0].split()
            if not p:
                continue
            try:
                if p[0] in (cls.IN, cls.OUT) and len(p) == 2:
                    wires = inputs if p[0] == cls.IN else outputs
                    wires.append(cls._wire(p[1]))
                    continue
                n_rat, n_wire = cls.OPS[p[0]]
                if len(p) != n_rat + n_wire + 3 or p[-2] != "->":
                    raise ValueError
                args = ([rat(r) for r in p[1:1 + n_rat]]
                        + [cls._wire(w) for w in p[1 + n_rat:-2]])
                gates.append((p[0], args, cls._wire(p[-1])))
            except (KeyError, ValueError, ZeroDivisionError):
                raise ValueError("bad circuit line %d: %r"
                                 % (lineno, raw)) from None
        return cls(inputs, gates, outputs)

    def run(self, values, ops):
        """Interpret the circuit: values for the inputs in order, and
        ops[op](*rationals, *input values) giving a gate's output value.
        Returns the output values as a list."""
        if len(values) != len(self.inputs):
            raise ValueError("expected %d input values" % len(self.inputs))
        val = dict(zip(self.inputs, values))
        for op, args, out in self.gates:
            if op not in ops:
                raise ValueError("no meaning given for op %s" % op)
            n_rat = self.OPS[op][0]
            val[out] = ops[op](*args[:n_rat],
                               *[val[w] for w in args[n_rat:]])
        return [val[w] for w in self.outputs]


class GateBuilder:
    """Collects gates for a new circuit.  new_wire() returns a fresh
    wire; gate(op, *args) appends (op, args, w) for a fresh wire w and
    returns w."""

    def __init__(self, new_wire):
        self.new_wire = new_wire
        self.gates = []

    def gate(self, op, *args):
        w = self.new_wire()
        self.gates.append((op, args, w))
        return w

    def copying(self, ops):
        """ops for a run that copies each of ops' gates unchanged."""
        return {op: functools.partial(self.gate, op) for op in ops}
