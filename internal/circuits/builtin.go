package circuits

import (
	"cmp"
	"fmt"
	"sort"

	"dft/internal/logic"
)

// builtins maps the generator names accepted by `dftc bench` and the
// dftd job API onto their constructors. Each takes the size argument
// n, ignoring it for fixed circuits; def is the size used when the
// caller passes n <= 0.
var builtins = map[string]struct {
	def int
	gen func(n int) *logic.Circuit
}{
	"c17":       {0, func(int) *logic.Circuit { return C17() }},
	"adder":     {8, RippleAdder},
	"mult":      {4, ArrayMultiplier},
	"parity":    {8, ParityTree},
	"decoder":   {3, Decoder},
	"mux":       {2, Mux},
	"cmp":       {4, Comparator},
	"maj":       {3, Majority},
	"alu74181":  {0, func(int) *logic.Circuit { return ALU74181() }},
	"alu74181x": {2, Cascade74181},
	"counter":   {8, Counter},
	"shift":     {8, ShiftRegister},
	"johnson":   {4, JohnsonCounter},
	"gray":      {4, GrayCounter},
	"hardcore":  {8, Hardcore},
}

// maxBuiltinSize bounds the size argument: generators grow at least
// linearly, and Builtin sits behind the dftd network API, so unbounded
// n is a memory-exhaustion hole rather than a convenience. The array
// multiplier grows as about 6n² gates, so sizeCap gives it a lower
// cap (about 100k gates, the size of the largest decoder); the
// exponential decoder, mux and majority voter bound n themselves.
const maxBuiltinSize = 4096

var sizeCap = map[string]int{"mult": 128}

// Builtin instantiates a library circuit by generator name. n sizes
// parameterized generators (bit width, input count, cascade depth);
// n <= 0 selects each generator's documented default. Unknown names
// return an error listing the valid set, and a size the generator
// rejects (generators panic on nonsense like an even majority voter)
// comes back as an error too.
func Builtin(name string, n int) (c *logic.Circuit, err error) {
	b, ok := builtins[name]
	if !ok {
		return nil, fmt.Errorf("circuits: unknown generator %q (want one of %v)", name, BuiltinNames())
	}
	if n <= 0 {
		n = b.def
	}
	if limit := cmp.Or(sizeCap[name], maxBuiltinSize); n > limit {
		return nil, fmt.Errorf("circuits: %s size %d exceeds the %d cap", name, n, limit)
	}
	defer func() {
		if r := recover(); r != nil {
			c, err = nil, fmt.Errorf("circuits: %s(%d): %v", name, n, r)
		}
	}()
	return b.gen(n), nil
}

// BuiltinNames returns the generator names in lexical order.
func BuiltinNames() []string {
	names := make([]string, 0, len(builtins))
	for k := range builtins {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}
