// Quickstart: load a small circuit, analyze its testability, generate
// a complete stuck-at test set with PODEM, and print the quality
// economics — the whole toolkit in thirty lines.
package main

import (
	"fmt"
	"log"

	"dft/internal/atpg"
	"dft/internal/compact"
	"dft/internal/core"
)

const c17 = `
# ISCAS-85 c17
INPUT(G1)
INPUT(G2)
INPUT(G3)
INPUT(G6)
INPUT(G7)
OUTPUT(G22)
OUTPUT(G23)
G10 = NAND(G1, G3)
G11 = NAND(G3, G6)
G16 = NAND(G2, G11)
G19 = NAND(G11, G7)
G22 = NAND(G10, G16)
G23 = NAND(G16, G19)
`

func main() {
	design, err := core.LoadString("c17", c17)
	if err != nil {
		log.Fatal(err)
	}

	// 1. Where are the hard nets? (§II: controllability/observability.)
	summary, hardest := design.Analyze(3)
	fmt.Println("SCOAP:", summary)
	for _, h := range hardest {
		fmt.Printf("  hard net %-6s CC0=%d CC1=%d CO=%d\n", h.Name, h.CC0, h.CC1, h.CO)
	}

	// 2. Generate tests for every collapsed stuck-at fault.
	tests := design.Generate(core.GenerateOptions{Engine: atpg.EnginePodem, CompactMode: compact.ModeReverse})
	fmt.Printf("\n%d patterns cover %.0f%% of %d fault classes\n",
		len(tests.Patterns), tests.Coverage*100, tests.TargetN)
	for i, p := range tests.Patterns {
		fmt.Printf("  t%d: ", i)
		for _, b := range p {
			if b {
				fmt.Print("1")
			} else {
				fmt.Print("0")
			}
		}
		fmt.Println()
	}

	// 3. The economics (§I.C).
	fmt.Println()
	fmt.Print(design.BuildReport(tests))
}
