// Scanflow walks the paper's central argument on the canonical hard
// sequential design: a deep binary counter, whose high bits are
// hundreds of clock cycles away from the pins. It shows (1) how poorly
// random sequences do without DFT, (2) LSSD scan insertion with its
// overhead bill, (3) combinational ATPG under the full-scan view
// reaching every fault in one frame, and (4) the generated tests
// applied end to end through the actual scan hardware — scan-in,
// capture, scan-out — distinguishing good from faulty machines.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"dft/internal/atpg"
	"dft/internal/circuits"
	"dft/internal/fault"
	"dft/internal/lssd"
)

func main() {
	// A 12-bit counter: bit 11 toggles once per 2^11 cycles, so a
	// 100-cycle pin-level test can never see it move.
	c := circuits.Counter(12)
	cl := fault.Collapse(c)
	fmt.Printf("design %s: %d gates, %d flip-flops, %d fault classes\n\n",
		c.Name, c.NumGates(), c.NumDFFs(), len(cl.Reps))

	// --- Before DFT: the tester sees only the pins. ---
	rng := rand.New(rand.NewSource(1))
	seq := make([][]bool, 100)
	for i := range seq {
		p := make([]bool, len(c.PIs))
		for j := range p {
			p[j] = rng.Intn(2) == 1
		}
		seq[i] = p
	}
	seqRes := fault.SimulateSequence(c, cl.Reps, seq)
	fmt.Printf("no scan, 100 random cycles    : %.1f%% coverage\n", seqRes.Coverage()*100)

	// --- Insert LSSD scan. ---
	design := lssd.NewDesign(c, lssd.StyleLSSD)
	fmt.Printf("LSSD insertion                : chain length %d, overhead %.1f%%, +%d pins\n",
		design.ChainLength(), 100*lssd.Overhead(c, design.Scanned), lssd.PinOverhead())

	// --- ATPG is now combinational. ---
	view := atpg.FullScanView(c)
	gen := atpg.Generate(c, view, cl.Reps, atpg.Config{Engine: atpg.EnginePodem, RandomFirst: 128})
	fmt.Printf("full-scan combinational ATPG  : %.1f%% coverage, %d patterns\n",
		gen.RawCover*100, len(gen.Patterns))
	fmt.Printf("serialization bill            : %d tester cycles\n\n", design.TestCycles(len(gen.Patterns)))

	// --- Apply a few tests through the real scan hardware. ---
	fmt.Println("end-to-end through the scan chain:")
	shown := 0
	search := atpg.NewSearcher(c, view)
	for _, f := range cl.Reps {
		if shown == 5 {
			break
		}
		if !c.Gates[f.Gate].Type.IsCombinational() {
			continue
		}
		cube, err := search.Podem(f, atpg.PodemConfig{})
		if err != nil {
			log.Fatalf("podem on %s: %v", f.Name(c), err)
		}
		full := cube.Bools()
		st := lssd.ScanTest{PI: full[:len(c.PIs)], State: full[len(c.PIs):]}

		design.Reset()
		good := design.RunTest(st)
		faulty := lssd.NewDesign(c, lssd.StyleLSSD)
		faulty.InjectFault(f)
		bad := faulty.RunTest(st)

		detected := false
		for i := range good.Captured {
			if good.Captured[i] != bad.Captured[i] {
				detected = true
			}
		}
		for i := range good.PO {
			if good.PO[i] != bad.PO[i] {
				detected = true
			}
		}
		fmt.Printf("  %-28s scan test %v -> detected=%v\n", f.Name(c), cube, detected)
		shown++
	}
}
