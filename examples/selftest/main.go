// Selftest builds the paper's Fig. 20/21 BILBO architecture around two
// combinational networks, runs the two-phase self-test, shows the
// signatures catching an injected fault, and demonstrates Fig. 22's
// caveat: the same machinery that tests an adder almost for free gets
// nowhere on a wide-fan-in PLA.
package main

import (
	"fmt"
	"math/rand"

	"dft/internal/bilbo"
	"dft/internal/circuits"
	"dft/internal/fault"
	"dft/internal/logic"
)

func main() {
	adder := circuits.RippleAdder(3)
	parity := circuits.ParityTree(8)
	st := bilbo.NewSelfTest(adder, parity, 8, 8, 255)

	g1, g2 := st.GoodSignatures()
	fmt.Printf("golden signatures: phase1=%#04x phase2=%#04x\n", g1, g2)

	// Inject a fault into the adder and watch the signature move.
	s1, _ := adder.NetByName("S1")
	f := fault.Fault{Gate: s1, Pin: fault.Stem, SA: logic.One}
	b1, b2 := st.SessionSignatures(1, &f)
	fmt.Printf("faulty  signatures: phase1=%#04x phase2=%#04x  (fault %s)\n",
		b1, b2, f.Name(adder))
	fmt.Printf("self-test verdict : detected=%v\n\n", b1 != g1 || b2 != g2)

	// Coverage as a function of session length.
	cl := fault.Collapse(adder)
	fmt.Println("random-pattern coverage of the adder (paper: \"combinational")
	fmt.Println("logic is highly susceptible to random patterns\"):")
	for _, n := range []int{8, 32, 128, 255} {
		cs := bilbo.NewSelfTest(adder, parity, 8, 8, n).MeasureCoverage(cl.Reps)
		fmt.Printf("  %4d patterns -> %.1f%%\n", n, cs.Coverage()*100)
	}

	// Fig. 22: the PLA counterexample.
	rng := rand.New(rand.NewSource(7))
	pla := circuits.RandomPLA(rng, 16, 6, 4, 16)
	plaCl := fault.Collapse(pla)
	plaSt := bilbo.NewSelfTest(pla, parity, 16, 8, 255)
	cs := plaSt.MeasureCoverage(plaCl.Reps)
	fmt.Printf("\nsame budget on a 16-literal-product PLA -> %.1f%% (Fig. 22's point)\n",
		cs.Coverage()*100)

	// The data-volume argument.
	scanBits, bilboBits := bilbo.DataVolume(100, 255)
	fmt.Printf("\ntest data volume for a 100-bit chain, 255 patterns:\n")
	fmt.Printf("  scan: %d bits  BILBO: %d bits  (factor %d)\n",
		scanBits, bilboBits, scanBits/bilboBits)
}
